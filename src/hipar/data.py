"""Typed tabular datasets: CSV loading, type inference, folds and holdout splits."""

from __future__ import annotations

import csv
import gc
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

CATEGORICAL = "categorical"
NUMERICAL = "numerical"


class DataError(ValueError):
    """Input data or configuration violates a documented contract."""


def _parse_real(cell: str) -> float | None:
    """Return the finite float value of a cell, or None if it is not one.

    C-locale decimal point only; Python's underscore literals are rejected.
    """
    text = cell.strip()
    if not text or "_" in text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def is_int(value) -> bool:
    """Whether a count or a seed is an int or a numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether a setting is a real number (a numpy scalar too); a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _row_index(i) -> int:
    """One item of a row set as an int; a bool or a non-integer is a DataError."""
    if not isinstance(i, (bool, np.bool_)):
        try:
            return operator.index(i)
        except TypeError:
            pass
    raise DataError(f"row index {i!r} is not an integer")


def row_indices(rows: Iterable[int]) -> np.ndarray:
    """Row indices as an int array, in the given order; accepts an array of an
    integer dtype or any iterable of ints. A float or bool is a DataError,
    never truncated or read as a mask."""
    if not isinstance(rows, np.ndarray):
        return np.fromiter(map(_row_index, rows), dtype=int)
    _check_integer(rows)
    return rows.astype(int, copy=False)


def _check_integer(idx: np.ndarray) -> None:
    if idx.dtype.kind not in "iu":
        raise DataError(f"row indices must be integers, not {idx.dtype} values")


def sorted_rows(rows: Iterable[int], n: int | None = None) -> np.ndarray:
    """Row indices as a sorted int array (see ``row_indices``). An int array
    already in increasing order, as the search's regions are, is returned as
    it is; any other input is sorted into a new array.

    A negative or repeated index, or with the table's row count ``n`` given an
    index >= n, is a DataError: a row set names each row once.
    """
    idx = row_indices(rows)
    if (idx[1:] > idx[:-1]).all():  # row_indices checked the type; the ends are left
        _check_bounds(idx, n)
    else:
        idx = np.sort(idx)
        check_rows(idx, n)
    return idx


def check_rows(idx: np.ndarray, n: int | None = None) -> None:
    """DataError unless the sorted row indices name each row once, as
    ``sorted_rows`` gives them: integers, nonnegative, strictly increasing
    and, with the table's row count ``n`` given, below n. One pass, no sort."""
    _check_integer(idx)
    _check_bounds(idx, n)
    step = idx[1:] > idx[:-1]
    if not step.all():
        i = np.flatnonzero(~step)[0]
        if idx[i] == idx[i + 1]:
            raise DataError(f"row index {int(idx[i])} is repeated")
        raise DataError(f"row indices are not sorted: {int(idx[i])} before {int(idx[i + 1])}")


def _check_bounds(idx: np.ndarray, n: int | None) -> None:
    """DataError unless the ends of sorted row indices lie in [0, n)."""
    if len(idx):
        if idx[0] < 0:
            raise DataError(f"row index {int(idx[0])} is negative")
        if n is not None and idx[-1] >= n:
            raise DataError(f"row index {int(idx[-1])} is out of range for {n} rows")


@dataclass(frozen=True)
class AttributeSchema:
    name: str
    kind: str  # "categorical" | "numerical"
    role: str = "feature"  # "feature" | "target"


@dataclass(frozen=True, eq=False)
class CodedColumn:
    """A categorical column: one integer code per cell into a sorted table of
    distinct ``str`` levels, compared exactly (a trailing NUL makes another
    level). Every code names a level, which is checked when the column is
    made, as are the table and the codes' type. ``column == value`` is one
    integer compare, and a value outside the table matches no cell. Rows
    index their column on the same table, one row its cell. ``code`` builds
    a column from cells."""

    levels: tuple[str, ...]  # sorted, distinct
    codes: np.ndarray  # 1-d, integer, read-only
    index: dict[str, int] = field(init=False, repr=False)  # level -> code

    def __post_init__(self):
        levels, codes = self.levels, self.codes
        bad = [v for v in levels if not isinstance(v, str)]
        if bad:
            raise DataError(f"level {bad[0]!r} is not a string")
        for a, b in zip(levels, levels[1:]):
            if not a < b:
                raise DataError(f"levels are not sorted and distinct: {a!r} before {b!r}")
        if not (isinstance(codes, np.ndarray) and codes.ndim == 1 and codes.dtype.kind in "iu"):
            raise DataError("codes must be a 1-d integer array")
        if len(codes) and (codes.min() < 0 or codes.max() >= len(levels)):
            raise DataError(f"a code is outside the table of {len(levels)} levels")
        codes.flags.writeable = False
        object.__setattr__(self, "index", {v: i for i, v in enumerate(levels)})

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows):
        codes = self.codes[rows]
        if codes.ndim == 0:
            return self.levels[codes]
        return CodedColumn(self.levels, codes)

    def __eq__(self, value) -> np.ndarray:  # type: ignore[override]
        # a value outside the table gets the code past it, which no cell holds
        return self.codes == self.index.get(value, len(self.levels))

    def tolist(self) -> list[str]:
        return list(map(self.levels.__getitem__, self.codes.tolist()))


def code(cells, what: str = "a categorical cell is not a string") -> CodedColumn:
    """``str`` cells, a sequence or an array, coded on their sorted distinct
    values: the one way cells are coded. A non-``str`` cell, hashable or not,
    is a DataError: ``what``, which names the column, then the cell."""
    if isinstance(cells, np.ndarray):
        cells = cells.tolist()
    try:
        distinct = set(cells)
    except TypeError:  # an unhashable cell
        distinct = cells
    bad = [v for v in distinct if not isinstance(v, str)]
    if bad:
        raise DataError(f"{what}: {bad[0]!r}")
    levels = tuple(sorted(distinct))
    index = {v: i for i, v in enumerate(levels)}
    return CodedColumn(levels, np.fromiter(map(index.__getitem__, cells), np.intp, len(cells)))


def check_schema(schema: Sequence[AttributeSchema]) -> str:
    """The name of the schema's target; a DataError unless the names are
    unique, every kind and role is known and exactly one attribute, a
    numerical one, has the target role."""
    names = [a.name for a in schema]
    if len(set(names)) != len(names):
        raise DataError("duplicate attribute names in schema")
    for a in schema:
        if a.kind not in (CATEGORICAL, NUMERICAL):
            raise DataError(f"attribute {a.name!r} has unknown kind {a.kind!r}")
        if a.role not in ("feature", "target"):
            raise DataError(f"attribute {a.name!r} has unknown role {a.role!r}")
    targets = [a for a in schema if a.role == "target"]
    if len(targets) != 1:
        raise DataError("schema must designate exactly one target attribute")
    if targets[0].kind != NUMERICAL:
        raise DataError(f"target column {targets[0].name!r} must be numerical")
    return targets[0].name


class Dataset:
    """Immutable column-typed table with one designated numerical target,
    named by ``target``: the schema's one attribute with the target role, and
    the target of every fit, score and search on the table.

    The numbers are one read-only, C-contiguous float64 array ``block`` of
    q x n, copied from the given columns and checked finite once: a row per
    numerical feature in schema order, then the target's, wherever the
    target sits in the schema; ``column`` gives such a row as a view. A
    categorical column given as ``str`` cells is coded once by ``code``, a
    non-``str`` cell being a DataError; one given as a ``CodedColumn`` (a
    reader's, or a subset's, which keeps its parent's table) is kept as it
    is. Two memos are filled lazily, and everything in them is read-only.
    ``bits`` holds each condition's row set, keyed by the condition: its
    rows packed by ``np.packbits`` into 64-bit words with zero padding
    (``patterns.condition_bits``). ``ranks(name)`` keeps, per numerical
    column, its sorted distinct values and every row's integer rank code
    among them, for the discretizer; a subset starts with its parent's
    values and the codes of its rows. Instances are safe to share across
    threads once constructed: two threads may at worst compute the same
    read-only entry twice, and the later store wins.
    """

    def __init__(self, schema: Sequence[AttributeSchema], columns: dict[str, np.ndarray]):
        self.target = check_schema(schema)
        names = [a.name for a in schema]
        missing = [n for n in names if n not in columns]
        if missing:
            raise DataError(f"schema attributes {missing} have no column")
        lengths = {len(columns[n]) for n in names}
        if len(lengths) != 1:
            raise DataError("columns have inconsistent lengths")
        self.schema = list(schema)
        if lengths.pop() < 1:
            raise DataError("empty table: no data rows")
        numbers = [*self.numerical_features(), self.target]
        block = np.array([np.asarray(columns[n], dtype=float) for n in numbers])
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            bad = next(n for n in names if n in numbers and not finite[numbers.index(n)])
            raise DataError(f"column {bad!r} contains non-finite values")
        self._fill(block, columns)

    def _fill(self, block: np.ndarray, columns: dict[str, object]) -> None:
        """Set up a table whose schema and target are set, from its checked
        ``block`` and its categorical ``columns``."""
        self.n = block.shape[1]
        block.flags.writeable = False
        self.block = block
        self._columns: dict[str, np.ndarray | CodedColumn] = dict(
            zip([*self.numerical_features(), self.target], block))
        for name in self.categorical_features():
            col = columns[name]
            if not isinstance(col, CodedColumn):  # a CodedColumn is kept as it is
                col = code(col, f"categorical column {name!r} holds a non-string cell")
            self._columns[name] = col
        self._by_name = {a.name: a for a in self.schema}
        self.bits: dict[object, np.ndarray] = {}
        self._ranks: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def attribute(self, name: str) -> AttributeSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise DataError(f"unknown attribute {name!r}") from None

    def column(self, name: str) -> np.ndarray | CodedColumn:
        self.attribute(name)
        return self._columns[name]

    def ranks(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """A numerical column's sorted distinct values and each row's code, the
        index of its value among them (-0.0 and 0.0 are one value). Codes are
        int32, or int64 when twice the level count does not fit in int32, so a
        code shifted left by one bit never overflows. Computed once, read-only.
        A subset's values are its parent's (``subset``), so they may hold
        values its rows lack; a value is read through the code of a row."""
        memo = self._ranks.get(name)
        if memo is None:
            if self.attribute(name).kind != NUMERICAL:
                raise DataError(f"attribute {name!r} is not numerical")
            levels, codes = np.unique(self._columns[name], return_inverse=True)
            codes = codes.reshape(-1).astype(
                np.int32 if 2 * len(levels) < 2**31 else np.int64, copy=False)
            levels.flags.writeable = False
            codes.flags.writeable = False
            memo = self._ranks[name] = (levels, codes)
        return memo

    def categorical_features(self) -> list[str]:
        return [a.name for a in self.schema if a.role == "feature" and a.kind == CATEGORICAL]

    def numerical_features(self) -> list[str]:
        """Numerical feature attributes, target excluded."""
        return [a.name for a in self.schema if a.role == "feature" and a.kind == NUMERICAL]

    def subset(self, rows: Iterable[int]) -> "Dataset":
        """The given rows as a table, in row order: one ``take`` of the
        block's columns. It keeps the parent's level tables: each categorical
        column's levels, and each numerical column's ranked values (``ranks``)
        with the codes of its rows, so no column is ranked again."""
        idx = sorted_rows(rows, self.n)
        out = Dataset.__new__(Dataset)
        out.schema, out.target = list(self.schema), self.target
        out._fill(self.block.take(idx, axis=1),
                  {name: self._columns[name][idx] for name in self.categorical_features()})
        for a in self.schema:
            if a.kind == NUMERICAL:
                levels, codes = self.ranks(a.name)
                codes = codes[idx]
                codes.flags.writeable = False
                out._ranks[a.name] = levels, codes
        return out


# The csv module rejects a field longer than its process-wide limit (131,072
# characters by default), even in a column nobody reads. ``_read_rows`` lifts it
# to the largest value a C long holds on every platform, and puts it back.
_NO_FIELD_LIMIT = 2**31 - 1


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Stripped header names and data rows of a UTF-8 CSV with a mandatory
    header row, by the csv module; a leading byte-order mark is skipped. A
    field of any length is read, and the csv module's field limit is left as
    it was."""
    limit = csv.field_size_limit(_NO_FIELD_LIMIT)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, header row required") from None
            # the reader makes one list per row and none of them can be garbage,
            # so the cyclic collector only costs time while they pile up
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                rows = list(reader)
            finally:
                if gc_was_enabled:
                    gc.enable()
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    finally:
        csv.field_size_limit(limit)
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    return header, rows


def _real_column(cells: list[str]) -> np.ndarray | None:
    """The cells as floats if every one is a finite real by ``_parse_real``'s
    rule, else None. ``float()`` strips whitespace as ``str.strip`` does, except
    for the separators \\x1c-\\x1f: a column it rejects is tried again stripped.
    The underscore and finiteness checks are made once for the whole column."""
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        try:
            values = np.fromiter(map(float, map(str.strip, cells)), float, len(cells))
        except ValueError:
            return None
    if "_" in "".join(cells) or not np.isfinite(values).all():
        return None
    return values


def _bad_row(path: str, header: list[str], rows: list[list[str]], kinds: dict[str, str | None]):
    """The error for the first row, in file order, that breaks a cell rule:
    wrong length, a missing cell in a read column, or a NUMERICAL column's
    cell that is not a finite real. Columns are checked in ``kinds`` order."""
    cols = [(header.index(name), name, kind == NUMERICAL) for name, kind in kinds.items()]
    for i, row in enumerate(rows, 1):
        if len(row) != len(header):
            return DataError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
        for j, name, real in cols:
            cell = row[j].strip()
            if not cell:
                return DataError(f"{path}: row {i} has a missing value in column {name!r}")
            if real and _parse_real(cell) is None:
                return DataError(
                    f"{path}: row {i}, column {name!r}: {cell!r} is not a finite number"
                )
    raise AssertionError(f"{path}: no row breaks a cell rule")


def _columns(
    path: str, header: list[str], rows: list[list[str]], kinds: dict[str, str | None]
) -> dict[str, np.ndarray | CodedColumn]:
    """The columns named in ``kinds``, by the cell rules ``load_csv`` and ``hipar
    predict`` share.

    Every row must have one cell per header name, and no read cell may be empty
    or whitespace. A NUMERICAL column must hold finite reals (float64 array); a
    CATEGORICAL one gives its stripped cells coded by ``code``; None makes the
    column NUMERICAL if every cell is a finite real, else CATEGORICAL. A broken
    rule raises a DataError naming the first bad row. This is the csv module's
    path, the referee of ``_loadtxt_columns`` and the one source of the
    readers' row errors.
    """
    missing = [name for name in kinds if name not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    if any(len(row) != len(header) for row in rows):
        raise _bad_row(path, header, rows, kinds)
    columns: dict[str, np.ndarray | CodedColumn] = {}
    for name, kind in kinds.items():
        j = header.index(name)
        cells = [row[j] for row in rows]
        values = None if kind == CATEGORICAL else _real_column(cells)
        if values is None:
            cells = [c.strip() for c in cells]
            if kind == NUMERICAL or not all(cells):
                raise _bad_row(path, header, rows, kinds)
            values = code(cells)
        columns[name] = values
    return columns


# A categorical field a character wider than its c-character cell takes
# 4(c + 1) bytes, 4 per character of the cell and the comma (or newline) after
# it; a float field (8 bytes, at least a digit and a comma) and an unread
# one-character field (4 bytes, at least a comma) take no more. So a table of
# rows as long as the first takes at most 4 bytes per character of the text.
# A file whose table would take more than twice that reads its categorical
# fields as Python strings.
_FIXED_WIDTH_BYTES_PER_CHAR = 8


def _fields(types: list) -> np.dtype:
    """The record of one ``loadtxt`` row: field ``f{j}`` of the j-th type."""
    return np.dtype([(f"f{j}", t) for j, t in enumerate(types)])


def _loadtxt(lines: list[str], dtype: np.dtype, usecols=None) -> np.ndarray | None:
    """One ``np.loadtxt`` pass over the lines into a structured array, or None
    if ``loadtxt`` rejects a cell or drops a line (it skips a line with no
    cells)."""
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                           ndmin=1, usecols=usecols)
    except ValueError:
        return None
    return table if len(table) == len(lines) else None


def _code_text(cells: np.ndarray, longest: int) -> CodedColumn | None:
    """The stripped cells of a unicode array, none longer than ``longest``
    characters, coded on their sorted distinct values, or None if a stripped
    cell is empty. One C-level unique over the raw cells; only the distinct
    raw cells are stripped, by ``str.strip``, and coded (``code``), and the
    unique's inverse gathers their codes. Cells of at most two characters are
    sorted as one 64-bit word each, about six times faster."""
    if longest <= 2:
        raw, inverse = np.unique(cells.astype("U2").view(np.uint64), return_inverse=True)
        raw = raw.view("U2")
    else:
        raw, inverse = np.unique(cells.astype(f"U{longest}"), return_inverse=True)
    stripped = [c.strip() for c in raw.tolist()]
    if not all(stripped):
        return None
    return code(stripped)[inverse.reshape(-1)]


def _loadtxt_columns(
    path: str, kinds_of: Callable[[list[str]], dict[str, str | None] | None]
) -> tuple[dict[str, np.ndarray | CodedColumn], int] | None:
    """The columns and data row count that ``_read_rows`` and ``_columns`` give,
    read by ``np.loadtxt`` in numpy's C parser, or None: the csv module then
    reads the file again and raises any error. ``kinds_of`` maps the header to
    the columns to read and their kinds, or to None where the caller rejects
    the header.

    Numerical fields are read as float64. numpy reads a subset of the reals
    ``float()`` reads, rounds them with the same routine and strips the same
    whitespace, so its floats are bit-equal. Every other field is read as
    fixed-width text: an unread one one character wide, its content ignored;
    a categorical one a character wider than its first-row cell, and coded
    without Python work per cell (``_code_text``). ``loadtxt`` cuts a longer
    cell silently, so a width is only used when no cell of the column fills
    it. A column with a cell that does is read once more, alone, as Python
    strings, and so is every categorical column of a file whose fixed-width
    table would take more than ``_FIXED_WIDTH_BYTES_PER_CHAR`` bytes per
    character of its text; their stripped cells are then coded by ``code``,
    as ``_columns`` codes them. Whatever the two readers could read apart
    returns None: a quote or a NUL, a blank line, no data rows, a repeated or
    missing name, a cell ``loadtxt`` rejects, a row count other than the line
    count, a non-finite real or an empty categorical cell. So does a line
    longer than the csv module's field limit: such a rare file is left to the
    csv module, which ``_read_rows`` lets read it. An inferred kind (None) is
    guessed from the first data row; a wrong guess makes ``loadtxt`` raise or
    leaves a non-finite value, so it returns None.

    Each whole-file form is dropped once the next one holds the data: the
    text once it is split into lines, the lines once ``loadtxt`` has parsed
    them and no column was cut. So two forms are held at most, the text and
    its lines during the split, the lines and the table during the parse (the
    peak). A file with a cut column keeps its lines for that column's second
    read.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:  # universal newlines: every line ends in \n
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    if '"' in text or "\0" in text or text.startswith("\n"):
        return None
    size = len(text)
    lines = text.split("\n")
    del text  # the lines hold the file from here on
    first = lines.pop(0)
    header = [h.strip() for h in first.split(",")]
    if lines[-1:] == [""]:  # the end of the last line
        lines.pop()
    kinds = kinds_of(header) if len(set(header)) == len(header) else None
    if kinds is None or not lines or not set(kinds) <= set(header):
        return None
    lengths = np.fromiter(map(len, lines), np.intp, len(lines))
    if lengths.min() == 0 or max(len(first), lengths.max()) > csv.field_size_limit():
        return None  # a blank line, or a field the csv module rejects
    del lengths
    first_row = lines[0].split(",")
    if len(first_row) != len(header):
        return None
    types: list = ["U1"] * len(header)
    categorical: dict[str, int] = {}  # column -> its field
    for name, kind in kinds.items():
        j = header.index(name)
        if kind == NUMERICAL or kind is None and _parse_real(first_row[j]) is not None:
            types[j] = float
        else:
            types[j] = f"U{len(first_row[j]) + 1}"
            categorical[name] = j
    dtype = _fields(types)
    if len(lines) * dtype.itemsize > _FIXED_WIDTH_BYTES_PER_CHAR * size:
        dtype = _fields([object if j in categorical.values() else t for j, t in enumerate(types)])
    table = _loadtxt(lines, dtype)
    if table is None:
        return None
    n = len(table)
    # a fixed-width column -> its longest cell; one that fills its field may have been cut
    longest = {name: int(np.strings.str_len(table[f"f{j}"]).max())
               for name, j in categorical.items() if table.dtype[j] != object}
    cut = [name for name, most in longest.items()
           if most == table.dtype[categorical[name]].itemsize // 4]
    if not cut:
        del lines  # only a cut column's second read needs them
    columns: dict[str, np.ndarray | CodedColumn] = {}
    strings: dict[str, np.ndarray] = {}  # column -> its cells as Python strings
    for name in kinds:
        values = table[f"f{header.index(name)}"]
        if values.dtype == float:
            if not np.isfinite(values).all():
                return None
            columns[name] = values.copy()  # contiguous
        elif values.dtype == object:
            strings[name] = values
        elif name not in cut:
            columns[name] = _code_text(values, longest[name])
            if columns[name] is None:
                return None
    if cut:
        del table, values  # no column left holds a view of it
        again = _loadtxt(lines, _fields([object] * len(cut)), [categorical[name] for name in cut])
        if again is None:
            return None
        strings |= {name: again[f"f{k}"] for k, name in enumerate(cut)}
    for name, values in strings.items():
        cells = list(map(str.strip, values.tolist()))
        if not all(cells):
            return None
        columns[name] = code(cells)
    return {name: columns[name] for name in kinds}, n


def read_columns(
    path: str, kinds: dict[str, str | None]
) -> tuple[dict[str, np.ndarray | CodedColumn], int]:
    """The named columns of a CSV by ``load_csv``'s cell rules (see ``_columns``),
    and the number of data rows; other columns are ignored. A numerical column
    is a float64 array, a categorical one a ``CodedColumn`` on its sorted
    distinct stripped cells, coded as the file is read. numpy's C parser reads
    the file when it gives the same columns, the csv module otherwise, and
    every error comes from the csv module's path."""
    fast = _loadtxt_columns(path, lambda header: kinds)
    if fast is not None:
        return fast
    header, rows = _read_rows(path)
    return _columns(path, header, rows, kinds), len(rows)


def load_csv(path: str, target: str, categorical_overrides: Iterable[str] = ()) -> Dataset:
    """Load an RFC-4180-style CSV (UTF-8, header row mandatory, a leading
    byte-order mark skipped) into a Dataset.

    A column is numerical iff every cell parses as a finite real, unless it is
    named in ``categorical_overrides``. Rows containing a missing (empty) cell
    are rejected with a row-indexed error; there is no imputation. A
    categorical column is coded on its sorted distinct stripped cells as the
    file is read, and the Dataset keeps that ``CodedColumn``. numpy's C parser
    reads the file when it gives the same columns, the csv module otherwise,
    and every error comes from the csv module's path.
    """
    overrides = set(categorical_overrides)

    def kinds_of(header: list[str]) -> dict[str, str | None] | None:
        if target not in header or not overrides <= set(header) or target in overrides:
            return None
        return {name: CATEGORICAL if name in overrides else None for name in header}

    fast = _loadtxt_columns(path, kinds_of)
    if fast is not None:
        columns = fast[0]
    else:
        header, rows = _read_rows(path)
        if target not in header:
            raise DataError(f"target column {target!r} not found (columns: {', '.join(header)})")
        unknown = overrides - set(header)
        if unknown:
            raise DataError(f"categorical override names unknown columns: {sorted(unknown)}")
        if overrides & {target}:
            raise DataError(f"target column {target!r} cannot be overridden categorical")
        if not rows:
            raise DataError(f"{path}: empty table, no data rows")
        columns = _columns(path, header, rows, kinds_of(header))
    if isinstance(columns[target], CodedColumn):
        raise DataError(f"target column {target!r} is not numerical")
    schema = [
        AttributeSchema(
            name,
            CATEGORICAL if isinstance(col, CodedColumn) else NUMERICAL,
            role="target" if name == target else "feature",
        )
        for name, col in columns.items()
    ]
    if not any(a.role == "feature" for a in schema):
        raise DataError("no feature columns remain besides the target")
    return Dataset(schema, columns)


def write_csv(d: Dataset, path: str) -> None:
    """Serialize a Dataset back to CSV; reloading yields cell-identical values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in d.schema])
        cols = [d.column(a.name).tolist() for a in d.schema]
        cols = [list(map(repr, c)) if a.kind == NUMERICAL else c for c, a in zip(cols, d.schema)]
        writer.writerows(zip(*cols))


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: np.ndarray  # per-row fold index

    def fold_rows(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]

    def train_rows(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]


def k_folds(d: Dataset, k: int, seed: int) -> FoldPlan:
    """Deterministic k-fold plan: seeded shuffle, round-robin deal.

    Fold sizes differ by at most one; the assignment depends only on (n, k, seed).
    """
    check_folds(k)
    if k > d.n:
        raise DataError(f"fold count k={k} exceeds the table's {d.n} rows")
    perm = _rng(seed).permutation(d.n)
    assignments = np.empty(d.n, dtype=int)
    assignments[perm] = np.arange(d.n) % k
    assignments.flags.writeable = False
    return FoldPlan(k=k, assignments=assignments)


def holdout_mask(n: int, fraction: float, seed: int) -> np.ndarray:
    """Boolean mask over n positions (the rows of a table), True on the test
    side: the first min(n - 1, max(1, round(fraction * n))) positions of the
    seed's permutation. Both sides hold a row when n >= 2; n = 1 gives an
    empty test side. n must be a nonnegative int and 0 < fraction < 1."""
    if not is_int(n) or n < 0:
        raise DataError(f"position count must be a nonnegative integer, got {n!r}")
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must lie in (0, 1), got {fraction}")
    size = min(n - 1, max(1, round(fraction * n)))
    test = np.zeros(n, dtype=bool)
    test[_rng(seed).permutation(n)[:size]] = True
    return test


def check_folds(k) -> None:
    """DataError unless a fold count is an int >= 2; ``k_folds`` also bounds it
    by the table's row count."""
    if not is_int(k) or k < 2:
        raise DataError(f"fold count must be an integer >= 2, got {k!r}")


def check_seed(seed) -> None:
    """DataError unless the seed of a split or fold plan is a nonnegative int."""
    if not is_int(seed) or seed < 0:
        raise DataError(f"seed must be a nonnegative integer, got {seed!r}")


def _rng(seed: int) -> np.random.Generator:
    """The generator of a split or fold plan (see ``check_seed``)."""
    check_seed(seed)
    return np.random.default_rng(seed)
