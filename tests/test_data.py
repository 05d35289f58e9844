import csv
import gc
import math

import numpy as np
import pytest

import hipar.data
from hipar import DataError, holdout_split, k_folds, load_csv, write_csv


def test_load_toy_table(toy):
    assert toy.n == 6
    assert toy.target == "price"
    assert toy.categorical_features() == ["property-type", "state"]
    assert toy.numerical_features() == ["rooms", "surface"]
    assert toy.column("price")[0] == 510.0


def test_load_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/nowhere.csv", target="y")


def test_load_target_absent(toy_csv):
    with pytest.raises(DataError, match="not found"):
        load_csv(toy_csv, target="nope")


def test_load_target_non_numeric(toy_csv):
    with pytest.raises(DataError, match="not numerical"):
        load_csv(toy_csv, target="state")


def test_load_single_column_no_features(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("y\n1\n2\n3\n")
    with pytest.raises(DataError, match="no feature columns"):
        load_csv(str(path), target="y")


def test_load_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,y\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(str(path), target="y")


def test_categorical_override(toy_csv):
    d = load_csv(toy_csv, target="price", categorical_overrides={"rooms"})
    assert d.attribute("rooms").kind == "categorical"
    assert d.column("rooms")[:2].tolist() == ["5", "3"]


def test_override_unknown_column(toy_csv):
    with pytest.raises(DataError, match="override"):
        load_csv(toy_csv, target="price", categorical_overrides={"zzz"})


def test_missing_cell_rejected_with_row_index(tmp_path):
    path = tmp_path / "holes.csv"
    path.write_text("a,y\n1,2\n,3\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(str(path), target="y")


def test_non_finite_cells_make_column_categorical(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("a,y\ninf,1\n2,2\n")
    d = load_csv(str(path), target="y")
    assert d.attribute("a").kind == "categorical"


def test_round_trip(tmp_path, toy):
    out = tmp_path / "round.csv"
    write_csv(toy, str(out))
    back = load_csv(str(out), target="price")
    assert [(a.name, a.kind, a.role) for a in back.schema] == [
        (a.name, a.kind, a.role) for a in toy.schema
    ]
    for attr in toy.schema:
        a, b = toy.column(attr.name), back.column(attr.name)
        assert a.tolist() == b.tolist()


def test_type_inference_stable_under_row_permutation(tmp_path):
    rng = np.random.default_rng(0)
    body = [("x", "1.5", "7"), ("q", "2", "8"), ("z", "0.25", "9")]
    for perm in [body, body[::-1], [body[1], body[2], body[0]]]:
        path = tmp_path / f"perm{rng.integers(1e9)}.csv"
        path.write_text("a,b,y\n" + "\n".join(",".join(r) for r in perm) + "\n")
        d = load_csv(str(path), target="y")
        assert d.attribute("a").kind == "categorical"
        assert d.attribute("b").kind == "numerical"


def test_k_folds_balance_and_partition(toy):
    plan = k_folds(toy, 3, seed=11)
    sizes = sorted(len(plan.fold_rows(f)) for f in range(3))
    assert sizes == [2, 2, 2]
    union = np.concatenate([plan.fold_rows(f) for f in range(3)])
    assert sorted(union.tolist()) == list(range(6))


def test_k_folds_uneven_sizes(two_segment):
    sub = two_segment.subset(range(7))
    plan = k_folds(sub, 3, seed=5)
    sizes = sorted(len(plan.fold_rows(f)) for f in range(3))
    assert sizes == [2, 2, 3]


def test_k_folds_deterministic(toy):
    a = k_folds(toy, 3, seed=42)
    b = k_folds(toy, 3, seed=42)
    assert np.array_equal(a.assignments, b.assignments)
    c = k_folds(toy, 3, seed=43)
    assert not np.array_equal(a.assignments, c.assignments)


def test_k_folds_range(toy):
    with pytest.raises(DataError):
        k_folds(toy, 1, seed=0)
    with pytest.raises(DataError):
        k_folds(toy, 7, seed=0)


@pytest.mark.parametrize("k", [2.5, 3.0, True, np.float64(2.0), "3"])
def test_k_folds_rejects_a_fold_count_that_is_not_an_int(toy, k):
    with pytest.raises(DataError, match="fold count"):
        k_folds(toy, k, seed=0)
    assert k_folds(toy, np.int64(3), 0).assignments.tolist() == \
        k_folds(toy, 3, 0).assignments.tolist()


@pytest.mark.parametrize("fraction", [math.nan, 0.0, 1.0, 1.5, -0.2, math.inf])
def test_holdout_fraction_outside_the_open_unit_interval_is_rejected(fraction):
    for draw in (lambda: hipar.data.holdout_mask(10, fraction, 0),
                 lambda: holdout_split(range(10), fraction, 0)):
        with pytest.raises(DataError, match="fraction must lie in"):
            draw()


@pytest.mark.parametrize("n", [-1, 2.0, True, None])
def test_holdout_mask_position_count_must_be_a_nonnegative_int(n):
    with pytest.raises(DataError, match="position count"):
        hipar.data.holdout_mask(n, 0.2, 0)
    assert hipar.data.holdout_mask(0, 0.2, 0).tolist() == []
    assert hipar.data.holdout_mask(np.int64(10), 0.2, 0).tolist() == \
        hipar.data.holdout_mask(10, 0.2, 0).tolist()


def test_holdout_sizes():
    train, test = holdout_split(range(10), 0.2, seed=0)
    assert len(train) == 8 and len(test) == 2
    train, test = holdout_split([3, 9], 0.2, seed=0)
    assert len(train) == 1 and len(test) == 1


def test_holdout_partition_and_determinism():
    rows = [2, 4, 8, 16, 23]
    t1 = holdout_split(rows, 0.2, seed=77)
    t2 = holdout_split(rows, 0.2, seed=77)
    assert np.array_equal(t1[0], t2[0]) and np.array_equal(t1[1], t2[1])
    merged = sorted(t1[0].tolist() + t1[1].tolist())
    assert merged == sorted(rows)
    assert len(np.intersect1d(t1[0], t1[1])) == 0


@pytest.mark.parametrize("rows, seed, train, test", [
    # recorded from the split as sort(rows)[perm[n_test:]] / [:n_test], each side sorted
    (range(10), 0, [0, 1, 2, 3, 5, 7, 8, 9], [4, 6]),
    ([9, 2, 7, 4, 11, 0, 5], 3, [0, 2, 4, 5, 7, 11], [9]),
    (range(3, 40, 3), 8191, [3, 6, 9, 18, 21, 24, 30, 33, 36, 39], [12, 15, 27]),
    ([41, 17, 8, 33, 2, 29, 14, 50, 5, 26, 11, 38], 12345,
     [2, 5, 8, 11, 14, 17, 26, 33, 38, 50], [29, 41]),
    (range(2), 7, [1], [0]),
])
def test_holdout_split_recorded_arrays(rows, seed, train, test):
    got = holdout_split(rows, 0.2, seed)
    for side, want in zip(got, (train, test)):
        assert side.dtype == np.dtype(int)
        assert side.tobytes() == np.array(want, dtype=int).tobytes()


def test_holdout_too_few_rows():
    with pytest.raises(DataError):
        holdout_split([1], 0.2, seed=0)


def test_holdout_mask_of_one_position_is_empty():
    assert hipar.data.holdout_mask(1, 0.2, 0).tolist() == [False]


@pytest.mark.parametrize("seed", [-1, True, 1.0, "1", None])
def test_seed_that_is_not_a_nonnegative_int_is_rejected(toy, seed):
    for draw in (lambda: hipar.data.holdout_mask(10, 0.2, seed),
                 lambda: holdout_split(range(10), 0.2, seed),
                 lambda: k_folds(toy, 3, seed)):
        with pytest.raises(DataError, match="seed must be a nonnegative integer"):
            draw()
    assert k_folds(toy, 3, np.int64(3)).assignments.tolist() == \
        k_folds(toy, 3, 3).assignments.tolist()


# (cell, value of a finite real or None); empty cells are missing values instead
CELLS = [
    ("1_0", None), ("nan", None), ("inf", None), ("-Infinity", None), ("1e309", None),
    (" 2.5 ", 2.5), ("+.5", 0.5), ("5.", 5.0), ("0x10", None),
    ("١٢", 12.0),  # Arabic-Indic digits: float() reads them
    ("\x1c7", 7.0),  # str.strip() removes \x1c, float() alone does not
]
MISSING = ["", "   "]


@pytest.mark.parametrize("cell,value", CELLS)
def test_load_csv_type_inference_per_cell(tmp_path, cell, value):
    from hipar.data import _parse_real

    assert _parse_real(cell) == value
    path = tmp_path / "cells.csv"
    path.write_text(f"a,y\n1,1\n{cell},2\n", encoding="utf-8")
    d = load_csv(str(path), target="y")
    if value is None:
        assert d.attribute("a").kind == "categorical"
        assert d.column("a").tolist() == ["1", cell.strip()]
    else:
        assert d.attribute("a").kind == "numerical"
        assert d.column("a").tolist() == [1.0, value]


@pytest.mark.parametrize("cell", MISSING)
def test_load_csv_missing_cell_per_cell(tmp_path, cell):
    path = tmp_path / "cells.csv"
    path.write_text(f"a,y\n1,1\n{cell},2\n")
    with pytest.raises(DataError, match="row 2 has a missing value in column 'a'"):
        load_csv(str(path), target="y")


def test_real_column_agrees_with_parse_real_cell_by_cell():
    from hipar.data import _parse_real, _real_column

    rng = np.random.default_rng(5)
    alphabet = list("0123456789+-.eE_ xaIinfNn") + ["\t", " ", "\x1c", "٣", "\x00"]
    cells = [c for c, _ in CELLS] + MISSING
    cells += ["".join(rng.choice(alphabet, int(rng.integers(1, 7)))) for _ in range(3000)]
    for cell in cells:
        column = _real_column([cell])
        want = _parse_real(cell)
        assert (column is None) == (want is None), cell
        if want is not None:
            assert column.tolist() == [want], cell
    # a column is real only if every cell is
    assert _real_column(["1", "2", "1_0"]) is None
    assert _real_column(["1", "nan"]) is None
    assert _real_column(["1", " 2 "]).tolist() == [1.0, 2.0]


def test_first_bad_row_is_reported(tmp_path):
    path = tmp_path / "bad.csv"
    # a later column's missing cell comes first in row order; ragged rows count too
    for body, message in (
        ("1,2,3\n4,5,6\n7,8,\n1,,3\n", "row 3 has a missing value in column 'y'"),
        ("1,2,3\n4,,6\n7,8\n", "row 2 has a missing value in column 'b'"),
        ("1,2,3\n4,5\n7,8,\n", "row 2 has 2 cells, expected 3"),
        ("1,2,3\n , ,6\n", "row 2 has a missing value in column 'a'"),
    ):
        path.write_text("a,b,y\n" + body)
        with pytest.raises(DataError, match=message):
            load_csv(str(path), target="y")


def test_blank_line_is_a_row_without_cells(tmp_path):
    path = tmp_path / "blank.csv"
    for body, row in (("1,2\n\n3,4\n", 2), ("1,2\n3,4\n\n", 3)):
        path.write_text("a,y\n" + body)
        with pytest.raises(DataError, match=f"row {row} has 0 cells, expected 2"):
            load_csv(str(path), target="y")


def test_duplicate_header_and_header_whitespace(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a, a ,y\n1,2,3\n")
    with pytest.raises(DataError, match="duplicate column names"):
        load_csv(str(path), target="y")
    path.write_text(" a , y\n1,2\n2,3\n")
    assert [a.name for a in load_csv(str(path), target="y").schema] == ["a", "y"]


def test_undecodable_file_is_a_data_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("a,y\ncafé,1\n".encode("latin-1"))
    with pytest.raises(DataError, match="cannot read"):
        load_csv(str(path), target="y")


@pytest.mark.parametrize("enabled", [True, False])
def test_row_read_pauses_gc_and_restores_its_state(tmp_path, monkeypatch, enabled):
    body = "".join(f"{i},{i * 2}\n" for i in range(20_000)).encode()
    good = tmp_path / "good.csv"
    good.write_bytes(b"x,y\n" + body)
    # the undecodable byte sits past the first read buffer, so the error is
    # raised while the data rows are read, not while the header is
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x,y\n" + body + b"\xff,1\n")
    seen = []
    real_reader = csv.reader

    def reader(fh):
        for row in real_reader(fh):
            seen.append(gc.isenabled())
            yield row

    monkeypatch.setattr(hipar.data.csv, "reader", reader)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert load_csv(str(good), target="y").n == 20_000
        assert gc.isenabled() is enabled
        assert not any(seen[1:])  # paused for every data row
        with pytest.raises(DataError, match="cannot read"):
            load_csv(str(bad), target="y")
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def _g_schema(kind="categorical"):
    return [hipar.AttributeSchema("g", kind), hipar.AttributeSchema("x", "numerical"),
            hipar.AttributeSchema("y", "numerical", role="target")]


def test_categorical_cells_must_be_strings():
    # with g as object floats, hipar_init built Equals("g", "0.0"), which matched
    # no row, and the fit kept only TRUE
    rng = np.random.default_rng(0)
    g = rng.integers(0, 2, 200).astype(float)
    x = rng.uniform(0.0, 1.0, 200)
    y = np.where(g == 0, 1 + 3 * x, 10 - 2 * x)
    with pytest.raises(DataError, match="column 'g' holds a non-string cell"):
        hipar.Dataset(_g_schema(), {"g": g.astype(object), "x": x, "y": y})
    text = np.array([str(v) for v in g.tolist()], dtype=object)
    d = hipar.Dataset(_g_schema(), {"g": text, "x": x, "y": y})
    selected, _ = hipar.run_hipar(d, hipar.RunConfig(target="y", theta=0.2))
    assert any(hipar.Equals("g", "0.0") in r.pattern.conditions for r in selected.chosen)


def test_schema_attribute_without_column_is_a_data_error():
    with pytest.raises(DataError, match=r"schema attributes \['x'\] have no column"):
        hipar.Dataset(_g_schema(), {"g": ["a", "b"], "y": np.zeros(2)})


def test_unknown_attribute_kind_is_rejected():
    with pytest.raises(DataError, match="attribute 'g' has unknown kind 'ordinal'"):
        hipar.Dataset(_g_schema("ordinal"), {"g": ["a", "b"], "x": np.zeros(2), "y": np.zeros(2)})


def test_unknown_attribute_role_is_rejected():
    # a role other than feature or target would leave the column out of both feature lists
    schema = [hipar.AttributeSchema("g", "categorical", role="label"), *_g_schema()[1:]]
    with pytest.raises(DataError, match="attribute 'g' has unknown role 'label'"):
        hipar.Dataset(schema, {"g": ["a", "b"], "x": np.zeros(2), "y": np.zeros(2)})


def test_coded_column_outside_its_table_is_rejected():
    cells = hipar.data.code(["a", "zz"], ["a"])
    assert cells.codes.tolist() == [0, -1] and cells.tolist() == ["a", None]
    with pytest.raises(DataError, match="column 'g' has a cell outside its level table"):
        hipar.Dataset(_g_schema(), {"g": cells, "x": np.zeros(2), "y": np.zeros(2)})


@pytest.mark.parametrize("n", [2, 3, 4, 7])
@pytest.mark.parametrize("fraction", [0.5, 0.9, 0.99])
def test_holdout_split_keeps_a_row_on_each_side(n, fraction):
    train, test = holdout_split(range(n), fraction, seed=0)
    assert len(train) >= 1 and len(test) == min(n - 1, max(1, round(fraction * n)))
    assert sorted(train.tolist() + test.tolist()) == list(range(n))
