"""The two CSV readers agree.

``load_csv`` and ``read_columns`` first try one ``np.loadtxt`` pass
(``_loadtxt_columns``) and otherwise read the file with the csv module
(``_read_rows`` + ``_columns``). On every input the fast path must return the
csv path's columns, with bit-equal floats, or return None; then the csv path
reads the file again and raises any error.
"""

import csv

import numpy as np
import pytest

import hipar.data
from hipar import DataError, load_csv
from hipar.data import (
    CATEGORICAL,
    NUMERICAL,
    CodedColumn,
    _columns,
    _loadtxt_columns,
    _read_rows,
    read_columns,
)


def _cells(col) -> tuple:
    """A column as comparable cells: a float's bits, a categorical column's
    exact level table and codes."""
    if isinstance(col, CodedColumn):
        assert all(type(v) is str for v in col.levels)
        assert list(col.levels) == sorted(set(col.levels))
        assert col.codes.dtype == np.intp
        return "coded", col.levels, col.codes.tolist()
    assert col.dtype == float
    return "float64", np.asarray(col).view(np.int64).tolist()


def _table(columns: dict, n: int) -> tuple:
    return [(name, _cells(col)) for name, col in columns.items()], n


def _outcome(read):
    try:
        return "ok", read()
    except DataError as exc:
        return "error", str(exc)


def _dataset(d) -> list:
    return [(a.name, a.kind, a.role, _cells(d.column(a.name))) for a in d.schema]


def _load_both(path, monkeypatch, **kwargs) -> bool:
    """Assert that ``load_csv`` gives the same Dataset or the same DataError with
    the fast path and without it; return whether the fast path read the file."""
    read = []
    real_read_rows = hipar.data._read_rows
    with monkeypatch.context() as m:
        m.setattr(hipar.data, "_read_rows", lambda p: read.append(p) or real_read_rows(p))
        fast = _outcome(lambda: _dataset(load_csv(path, **kwargs)))
    with monkeypatch.context() as m:
        m.setattr(hipar.data, "_loadtxt_columns", lambda p, kinds_of: None)
        slow = _outcome(lambda: _dataset(load_csv(path, **kwargs)))
    assert fast == slow
    return not read


def _columns_both(path, kinds) -> bool:
    """Assert that the fast path returns the csv path's columns or None, and that
    ``read_columns`` agrees with the csv path; return whether it was fast."""
    fast = _loadtxt_columns(path, lambda header: kinds)

    def slow_read():
        header, rows = _read_rows(path)
        return _table(_columns(path, header, rows, kinds), len(rows))

    slow = _outcome(slow_read)
    if fast is not None:
        assert slow == ("ok", _table(*fast))
    assert _outcome(lambda: _table(*read_columns(path, kinds))) == slow
    return fast is not None


# (id, file text, whether load_csv(target="y") takes the fast path)
CASES = [
    ("plain", "g,x,y\na,1.5,2\nb,-0.0,3\n", True),
    ("crlf", "g,x,y\r\na,1.5,2\r\nb,2.5,3\r\n", True),
    ("lone-cr", "g,x,y\ra,1.5,2\rb,2.5,3\r", True),
    ("bom", "\ufeffg,x,y\na,1.5,2\nb,2.5,3\n", True),
    ("bom-crlf-no-final-newline", "\ufeffg,x,y\r\na,1.5,2\r\nb,2.5,3", True),
    ("no-final-newline", "g,x,y\na,1.5,2\nb,2.5,3", True),
    ("one-row", "g,x,y\na,1.5,2\n", True),
    ("header-whitespace", " g ,\tx, y\xa0\na,1.5,2\n", True),
    ("whitespace", "g,x,y\n a ,\t1.5 ,2\n\xa0b\xa0, 2.5\xa0, 3\t\n", True),
    ("separators", "g,x,y\n\x1ca\x1d,\x1c1\x1f,2\nb\x1e,\x1e2,3\n", True),
    ("other-line-breaks", "g,x,y\na\x0cb,1,2\nc\x85d,2,3\ne f\x0bg,3,4\n", True),
    ("real-forms", "g,x,y\na,+.5,1e5\nb,5.,-1E-3\nc,1.e3,0.1\nd,  7  ,8\n", True),
    ("first-row-not-real", "g,x,y\na,nan,2\nb,1.5,3\n", True),
    ("categorical-numbers", "g,x,y\na,1.5,2\n1,2.5,3\n", True),
    ("quotes", 'g,x,y\n"a",1.5,2\nb,2.5,3\n', False),
    ("doubled-quotes", 'g,x,y\n"a ""b""",1.5,2\nb,2.5,3\n', False),
    ("quoted-real", 'g,x,y\na," 1.5",2\nb,2.5,3\n', False),
    ("quoted-newline", 'g,x,y\n"a\nb",1.5,2\nb,2.5,3\n', False),
    ("quoted-comma", 'g,x,y\n"a,b",1.5,2\nb,2.5,3\n', False),
    ("underscore", "g,x,y\na,1.5,2\nb,1_0,3\n", False),
    ("arabic-indic-digits", "g,x,y\na,1.5,2\nb,١٢,3\n", False),
    ("minus-sign", "g,x,y\na,1.5,2\nb,−1,3\n", False),
    ("hex", "g,x,y\na,1.5,2\nb,0x1p3,3\n", False),
    ("nan", "g,x,y\na,1.5,2\nb,NaN,3\n", False),
    ("inf", "g,x,y\na,1.5,2\nb,-inf,3\n", False),
    ("overflow", "g,x,y\na,1.5,2\nb,1e400,3\n", False),
    ("target-nan", "g,x,y\na,1.5,2\nb,2.5,nan\n", False),
    ("target-categorical", "g,x,y\na,1.5,z\nb,2.5,3\n", True),
    ("nul", "g,x,y\na\x00,1.5,2\nb,2.5,3\n", False),
    ("blank-line", "g,x,y\na,1.5,2\n\nb,2.5,3\n", False),
    ("blank-line-at-end", "g,x,y\na,1.5,2\nb,2.5,3\n\n", False),
    ("blank-line-crlf", "g,x,y\r\na,1.5,2\r\n\r\nb,2.5,3\r\n", False),
    ("blank-line-first", "\ng,x,y\na,1.5,2\n", False),
    ("whitespace-line", "g,x,y\na,1.5,2\n   \nb,2.5,3\n", False),
    ("short-row", "g,x,y\na,1.5,2\nb,2.5\n", False),
    ("long-row", "g,x,y\na,1.5,2\nb,2.5,3,4\n", False),
    ("ragged-first-row", "g,x,y\na,1.5\nb,2.5,3\n", False),
    ("missing-category", "g,x,y\na,1.5,2\n ,2.5,3\n", False),
    ("missing-real", "g,x,y\na,1.5,2\nb,,3\n", False),
    ("whitespace-real", "g,x,y\na,1.5,2\nb,\t,3\n", False),
    ("header-only", "g,x,y\n", False),
    ("header-only-no-newline", "g,x,y", False),
    ("empty", "", False),
    ("duplicate-header", "g,x, g\na,1.5,2\n", False),
    ("target-absent", "g,x,z\na,1.5,2\n", False),
    ("single-column", "y\n1\n2\n", True),
    # a cell longer than the first row's is cut by a field as wide as that
    # one: "abcd" would read as "abc"
    ("later-row-longer", "g,x,y\nab,1.5,2\nabcd,2.5,3\nabc,3.5,4\n", True),
    ("v1-v10", "g,x,y\nv1,1.5,2\nv10,2.5,3\nv2,3.5,4\nv1,4.5,5\n", True),
    ("multi-byte", "g,x,y\né,1.5,2\n中文,2.5,3\n😀,3.5,4\né中😀x,4.5,5\né,5.5,6\n", True),
    ("equal-after-strip", "g,x,y\n a,1.5,2\na,2.5,3\na\xa0,3.5,4\n\ta\x1c,4.5,5\n", True),
    ("one-long-cell", "g,x,y\n" + "a,1.5,2\n" * 200 + "b" * 5000 + ",2.5,3\n", True),
    ("first-cell-long", "g,x,y\n" + "b" * 5000 + ",2.5,3\n" + "a,1.5,2\n" * 200, True),
]


@pytest.mark.parametrize("text, fast", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_both_readers_agree_on_each_shape(tmp_path, monkeypatch, text, fast):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _load_both(str(path), monkeypatch, target="y") == fast
    _load_both(str(path), monkeypatch, target="y", categorical_overrides=["x"])
    _load_both(str(path), monkeypatch, target="y", categorical_overrides=["nope"])
    _load_both(str(path), monkeypatch, target="y", categorical_overrides=["y"])
    _columns_both(str(path), {"g": CATEGORICAL, "x": NUMERICAL})
    _columns_both(str(path), {"x": NUMERICAL, "g": CATEGORICAL, "y": None})
    _columns_both(str(path), {"x": CATEGORICAL})
    _columns_both(str(path), {"w": NUMERICAL})


def test_unread_columns_may_hold_empty_cells(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("g,note,x,y\na,,1.5,\nb, ,2.5,\n")
    assert _columns_both(str(path), {"x": NUMERICAL, "g": CATEGORICAL})
    assert not _columns_both(str(path), {"x": NUMERICAL, "y": NUMERICAL})


def test_unread_columns_may_hold_long_and_empty_cells(tmp_path):
    # an unread column is a one-character field: its cells are cut, unread
    path = tmp_path / "t.csv"
    note = "n" * 300
    path.write_text(f"g,note,x,y\na,,1.5,\nbb,{note},2.5,\nc, ,3.5,\nd,{note[:50]},4.5,\n")
    assert _columns_both(str(path), {"x": NUMERICAL, "g": CATEGORICAL})
    assert _columns_both(str(path), {"g": CATEGORICAL})


def _record_loadtxt(monkeypatch) -> list:
    """Make ``np.loadtxt`` record, per call, its fields' dtypes and columns."""
    calls = []
    real_loadtxt = np.loadtxt

    def loadtxt(*args, dtype, usecols, **kwargs):
        calls.append(([dtype[f].str for f in dtype.names], usecols))
        return real_loadtxt(*args, dtype=dtype, usecols=usecols, **kwargs)

    monkeypatch.setattr(hipar.data.np, "loadtxt", loadtxt)
    return calls


def test_fixed_width_fields_stay_within_their_memory_bound(tmp_path, monkeypatch):
    # a 5,000-character first-row label would make its column 20 kB a row as a
    # fixed-width field: over the bound, the column is read as Python strings;
    # under a looser bound, as fixed-width text
    path = tmp_path / "t.csv"
    path.write_text("g,x,y\n" + "b" * 5000 + ",2.5,3\n" + "a,1.5,2\n" * 200)
    kinds = {"g": CATEGORICAL, "x": NUMERICAL}
    calls = _record_loadtxt(monkeypatch)
    assert _columns_both(str(path), kinds)
    assert calls[0] == (["|O", "<f8", "<U1"], None)
    calls.clear()
    monkeypatch.setattr(hipar.data, "_FIXED_WIDTH_BYTES_PER_CHAR", 10**4)
    assert _columns_both(str(path), kinds)
    assert calls[0] == (["<U5001", "<f8", "<U1"], None)
    assert _load_both(str(path), monkeypatch, target="y")


@pytest.mark.parametrize("text, calls", [
    # the first row makes g a three-character field, which "abcd" fills: g
    # alone is read again, as Python strings; h's "c" never fills its field
    ("x,g,h,y\n1.5,ab,c,2\n2.5,abcd,d,3\n3.5,abc,e,4\n",
     [(["<f8", "<U3", "<U2", "<U1"], None), (["|O"], [1])]),
    # a 20-character cell after one-character ones
    ("x,g,h,y\n1.5,a,c,2\n2.5," + "b" * 20 + ",d,3\n3.5,a,e,4\n",
     [(["<f8", "<U2", "<U2", "<U1"], None), (["|O"], [1])]),
    # both categorical columns filled
    ("x,g,h,y\n1.5,a,c,2\n2.5,bb,dd,3\n",
     [(["<f8", "<U2", "<U2", "<U1"], None), (["|O", "|O"], [1, 2])]),
], ids=["one-column", "much-longer", "two-columns"])
def test_a_cut_column_is_read_again_as_strings(tmp_path, monkeypatch, text, calls):
    path = tmp_path / "t.csv"
    path.write_text(text)
    recorded = _record_loadtxt(monkeypatch)
    assert _columns_both(str(path), {"x": NUMERICAL, "g": CATEGORICAL, "h": CATEGORICAL})
    assert recorded == calls * 2  # _loadtxt_columns, then read_columns


def test_a_field_over_the_csv_limit_defers(tmp_path, monkeypatch):
    # the csv module rejects a field longer than its limit, so the fast path
    # must not read such a file
    limit = csv.field_size_limit()
    path = tmp_path / "t.csv"
    try:
        csv.field_size_limit(8)
        for text, fast in (("g,x,y\naaaaaaaa,1,2\n", False), ("g,x,y\naaaa,1,2\n", True),
                           ("ggggggggggggg,x,y\na,1,2\n", False)):
            path.write_text(text)
            assert _load_both(str(path), monkeypatch, target="y") == fast
            assert _columns_both(str(path), {"x": NUMERICAL}) == fast
    finally:
        csv.field_size_limit(limit)


def _random_reals(rng, n) -> list[float]:
    mantissa = rng.standard_normal(n)
    exponent = rng.integers(-310, 309, n).astype(float)
    with np.errstate(over="ignore", under="ignore"):
        values = mantissa * 10.0 ** exponent
    values = values[np.isfinite(values)]
    tiny = [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 0.0]
    return values.tolist() + tiny + rng.uniform(-1e3, 1e3, 200).round(3).tolist()


def test_random_reals_are_bit_equal(tmp_path, monkeypatch):
    rng = np.random.default_rng(2024)
    values = _random_reals(rng, 2000)
    forms = [repr, lambda v: "%.17g" % v, lambda v: "%.6e" % v, lambda v: f" {v!r}\t"]
    lines = [f"{forms[i % 4](v)},{v!r},g{i % 3}" for i, v in enumerate(values)]
    path = tmp_path / "reals.csv"
    path.write_text("x,y,g\n" + "\n".join(lines) + "\n")
    assert _load_both(str(path), monkeypatch, target="y")
    assert _columns_both(str(path), {"x": NUMERICAL, "y": NUMERICAL, "g": CATEGORICAL})
    got = read_columns(str(path), {"y": NUMERICAL})[0]["y"]
    assert got.view(np.int64).tolist() == np.array(values).view(np.int64).tolist()


# cells for the random tables: reals in several spellings, words, whitespace,
# quotes, non-reals float() reads and ones it does not
POOL = [
    "1", "-2.5", "+.5", "5.", "1e5", "-0.0", "0.1", "3.141592653589793", " 7 ", "\t8\xa0",
    "\x1c9\x1f", "1_0", "١٢", "−1", "0x10", "nan", "-inf", "1e400", "Infinity",
    "a", "b", " a ", "\xa0b", "a b", "\x1ca", "é", "a\x0cb", "", " ", "\t", '"a"', '"1"',
    '"a,b"', '""', "#1",
]


def test_random_tables(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    path = tmp_path / "t.csv"
    taken = 0
    for _trial in range(300):
        n_rows = int(rng.integers(1, 5))
        rows = []
        for _ in range(n_rows):
            row = [POOL[int(rng.integers(len(POOL)))] for _ in range(3)]
            if rng.random() < 0.6:  # mostly clean reals in x and y
                row[1], row[2] = repr(float(rng.normal())), repr(float(rng.normal()))
            if rng.random() < 0.05:
                row = row[:int(rng.integers(0, 4))] + ["z"] * int(rng.integers(0, 2))
            rows.append(",".join(row))
            if rng.random() < 0.05:  # a blank or whitespace-only line
                rows.append(["", " ", "\t"][int(rng.integers(3))])
        end = ["\n", "\r\n", "\r"][int(rng.integers(3))]
        text = end.join(["g,x,y", *rows])
        if rng.random() < 0.8:
            text += end
        if rng.random() < 0.2:
            text = "\ufeff" + text
        path.write_bytes(text.encode("utf-8"))
        taken += _load_both(str(path), monkeypatch, target="y")
        _load_both(str(path), monkeypatch, target="y", categorical_overrides=["g", "x"])
        _columns_both(str(path), {"g": CATEGORICAL, "x": NUMERICAL})
        _columns_both(str(path), {"y": None, "x": CATEGORICAL})
    assert taken > 30  # the fast path is exercised, not only deferred


@pytest.fixture
def mixed_csv(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "mixed.csv"
    lines = [f"{'abc'[i % 3]},{x!r},{i % 5},{y!r}"
             for i, (x, y) in enumerate(rng.normal(size=(50, 2)).tolist())]
    path.write_text("g,x,k,y\n" + "\n".join(lines) + "\n")
    return str(path)


def test_the_fast_path_reads_a_plain_file(mixed_csv, monkeypatch):
    # a silent deferral would lose the gain with every other test still green
    def no_csv(path):
        raise AssertionError("the csv module read a plain file")

    monkeypatch.setattr(hipar.data, "_read_rows", no_csv)
    d = load_csv(mixed_csv, target="y")
    assert [(a.name, a.kind) for a in d.schema] == [
        ("g", CATEGORICAL), ("x", NUMERICAL), ("k", NUMERICAL), ("y", NUMERICAL)]
    assert d.n == 50
    columns, n = read_columns(mixed_csv, {"x": NUMERICAL, "g": CATEGORICAL, "k": CATEGORICAL})
    assert n == 50 and list(columns) == ["x", "g", "k"]
    assert columns["k"].tolist()[:6] == ["0", "1", "2", "3", "4", "0"]
    assert load_csv(mixed_csv, target="y", categorical_overrides=["k"]).attribute("k").kind \
        == CATEGORICAL


@pytest.mark.parametrize("text", [
    'g,x,y\n"a",1.5,2\n', "g,x,y\na\x00,1.5,2\n", "g,x,y\na,1.5,2\n\nb,2.5,3\n",
    "g,x,y\r\na,1.5,2\r\n\r\n", "\nx\n1.5\n", "g,x,y\n", "",
], ids=["quote", "nul", "blank-line", "blank-line-crlf", "blank-line-first", "no-rows", "empty"])
def test_text_the_csv_module_must_read_is_not_parsed(tmp_path, monkeypatch, text):
    def no_loadtxt(*args, **kwargs):
        raise AssertionError("loadtxt parsed text the csv module must read")

    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(hipar.data.np, "loadtxt", no_loadtxt)
    # no column is asked for, so no header check turns the file down first
    assert _loadtxt_columns(str(path), lambda header: {}) is None


def test_a_row_count_other_than_the_line_count_defers(mixed_csv, monkeypatch):
    # loadtxt skips lines without cells; any line it drops must send the file
    # to the csv module
    real_loadtxt = np.loadtxt
    kinds = {"x": NUMERICAL, "g": CATEGORICAL}
    assert _loadtxt_columns(mixed_csv, lambda header: kinds) is not None
    monkeypatch.setattr(hipar.data.np, "loadtxt", lambda *a, **k: real_loadtxt(*a, **k)[1:])
    assert _loadtxt_columns(mixed_csv, lambda header: kinds) is None


def test_a_categorical_file_is_coded_in_one_loadtxt_pass(tmp_path, monkeypatch):
    # shaped like the cat-wide benchmark: 8 categorical columns and 2 integer
    # ones. A quiet return to object cells, to the csv module or to a second
    # pass would keep every other test green and lose the gain
    rng = np.random.default_rng(5)
    names = [f"k{j}" for j in range(8)]
    codes = rng.integers(0, 8, (400, 8))
    z = rng.integers(0, 20, (400, 2)).astype(float)
    lines = [",".join([*(f"v{c}" for c in row), *map(repr, zz), repr(0.5 * i)])
             for i, (row, zz) in enumerate(zip(codes.tolist(), z.tolist()))]
    path = tmp_path / "cat.csv"
    path.write_text(",".join([*names, "n0", "n1", "y"]) + "\n" + "\n".join(lines) + "\n")
    with monkeypatch.context() as m:
        m.setattr(hipar.data, "_loadtxt_columns", lambda p, kinds_of: None)
        csv_path = _dataset(load_csv(str(path), target="y"))
    passes = []
    real_loadtxt = np.loadtxt

    def loadtxt(*args, dtype, **kwargs):
        assert all(dtype[f].kind != "O" for f in dtype.names), dtype
        passes.append(dtype)
        return real_loadtxt(*args, dtype=dtype, **kwargs)

    def no_csv(path):
        raise AssertionError("the csv module read a plain file")

    monkeypatch.setattr(hipar.data.np, "loadtxt", loadtxt)
    monkeypatch.setattr(hipar.data, "_read_rows", no_csv)
    d = load_csv(str(path), target="y")
    assert _dataset(d) == csv_path
    assert d.categorical_features() == names
    assert d.column("k0").levels == tuple(f"v{c}" for c in range(8))
    kinds = {name: CATEGORICAL for name in names} | {"n0": NUMERICAL}
    columns, n = read_columns(str(path), kinds)
    assert n == 400 and [_cells(columns[k]) for k in kinds] == [_cells(d.column(k)) for k in kinds]
    assert len(passes) == 2  # one each
    assert [passes[1][f].str for f in passes[1].names] == ["<U3"] * 8 + ["<f8", "<U1", "<U1"]
