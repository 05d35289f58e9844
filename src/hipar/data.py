"""Typed tabular datasets: CSV loading, type inference, folds and holdout splits."""

from __future__ import annotations

import csv
import gc
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    """Row indices as a new sorted int array (see ``row_indices``).

    A negative or repeated index, or with the table's row count ``n`` given an
    index >= n, is a DataError: a row set names each row once.
    """
    idx = np.sort(row_indices(rows))
    check_rows(idx, n)
    return idx


def check_rows(idx: np.ndarray, n: int | None = None) -> None:
    """DataError unless the sorted row indices name each row once, as
    ``sorted_rows`` gives them: integers, nonnegative, strictly increasing
    and, with the table's row count ``n`` given, below n. One pass, no sort."""
    _check_integer(idx)
    if len(idx):
        if idx[0] < 0:
            raise DataError(f"row index {int(idx[0])} is negative")
        if n is not None and idx[-1] >= n:
            raise DataError(f"row index {int(idx[-1])} is out of range for {n} rows")
        step = idx[1:] > idx[:-1]
        if not step.all():
            i = np.flatnonzero(~step)[0]
            if idx[i] == idx[i + 1]:
                raise DataError(f"row index {int(idx[i])} is repeated")
            raise DataError(f"row indices are not sorted: {int(idx[i])} before {int(idx[i + 1])}")


@dataclass(frozen=True)
class AttributeSchema:
    name: str
    kind: str  # "categorical" | "numerical"
    role: str = "feature"  # "feature" | "target"


@dataclass(frozen=True, eq=False)
class CodedColumn:
    """A categorical column: one integer code per cell into a sorted table of
    distinct ``str`` levels, compared exactly (a trailing NUL makes another
    level); -1 codes a cell equal to no level. ``column == value`` is one
    integer compare, and a value outside the table matches no cell. Rows index
    their column on the same table, one row its cell (None for -1)."""

    levels: tuple[str, ...]  # sorted, distinct
    codes: np.ndarray  # read-only
    index: dict[str, int]  # level -> code

    def __post_init__(self):
        self.codes.flags.writeable = False

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows):
        codes = self.codes[rows]
        if codes.ndim == 0:
            return self.levels[codes] if codes >= 0 else None
        return CodedColumn(self.levels, codes, self.index)

    def __eq__(self, value) -> np.ndarray:  # type: ignore[override]
        # -2 is no cell's code: a value outside the table matches nothing
        return self.codes == self.index.get(value, -2)

    def tolist(self) -> list:
        cells = (*self.levels, None)  # code -1 picks None
        return [cells[c] for c in self.codes.tolist()]


def code(cells, levels: Sequence[str]) -> CodedColumn:
    """The cells coded against a sorted table of distinct levels, a cell equal
    to none of them as -1. ``cells`` is a sequence of cells, or a CodedColumn
    whose levels are translated to the new table."""
    levels = tuple(levels)
    index = {v: i for i, v in enumerate(levels)}
    if isinstance(cells, CodedColumn):
        table = np.array([*(index.get(v, -1) for v in cells.levels), -1], dtype=np.intp)
        codes = table[cells.codes]  # the trailing -1 keeps code -1
    else:
        if isinstance(cells, np.ndarray):
            cells = cells.tolist()
        codes = np.fromiter(map(index.get, cells, itertools.repeat(-1)), np.intp, len(cells))
    return CodedColumn(levels, codes, index)


class Dataset:
    """Immutable column-typed table with one designated numerical target.

    Columns are stored column-major: float64 arrays for numerical attributes,
    a ``CodedColumn`` for categorical ones, coded once against the column's
    sorted levels (a subset keeps its parent's table). Two memos are filled
    lazily, and everything in them is read-only. ``bits`` holds each
    condition's row set, keyed by the condition: its rows packed by
    ``np.packbits`` into 64-bit words with zero padding
    (``patterns.condition_bits``). ``ranks(name)`` keeps, per numerical
    column, its sorted distinct values and every row's integer rank code among
    them, for the discretizer. Instances are safe to share across threads once
    constructed: two threads may at worst compute the same read-only entry
    twice, and the later store wins.
    """

    def __init__(self, schema: Sequence[AttributeSchema], columns: dict[str, np.ndarray]):
        names = [a.name for a in schema]
        if len(set(names)) != len(names):
            raise DataError("duplicate attribute names in schema")
        for a in schema:
            if a.kind not in (CATEGORICAL, NUMERICAL):
                raise DataError(f"attribute {a.name!r} has unknown kind {a.kind!r}")
            if a.role not in ("feature", "target"):
                raise DataError(f"attribute {a.name!r} has unknown role {a.role!r}")
        missing = [n for n in names if n not in columns]
        if missing:
            raise DataError(f"schema attributes {missing} have no column")
        targets = [a for a in schema if a.role == "target"]
        if len(targets) != 1:
            raise DataError("schema must designate exactly one target attribute")
        if targets[0].kind != NUMERICAL:
            raise DataError(f"target column {targets[0].name!r} must be numerical")
        lengths = {len(columns[n]) for n in names}
        if len(lengths) != 1:
            raise DataError("columns have inconsistent lengths")
        self.schema = list(schema)
        self.n = lengths.pop()
        if self.n < 1:
            raise DataError("empty table: no data rows")
        self._columns: dict[str, np.ndarray | CodedColumn] = {}
        for attr in self.schema:
            col = columns[attr.name]
            if attr.kind == NUMERICAL:
                col = np.asarray(col, dtype=float)
                if not np.all(np.isfinite(col)):
                    raise DataError(f"column {attr.name!r} contains non-finite values")
                col.flags.writeable = False
            elif isinstance(col, CodedColumn):  # a subset's column keeps its table
                if col.codes.min() < 0:
                    raise DataError(f"column {attr.name!r} has a cell outside its level table")
            else:
                cells = col.tolist() if isinstance(col, np.ndarray) else list(col)
                levels = set(cells)
                bad = [v for v in levels if not isinstance(v, str)]
                if bad:
                    raise DataError(f"categorical column {attr.name!r} holds a non-string "
                                    f"cell {bad[0]!r}")
                col = code(cells, sorted(levels))
            self._columns[attr.name] = col
        self._by_name = {a.name: a for a in self.schema}
        self.bits: dict[object, np.ndarray] = {}
        self._ranks: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def target(self) -> str:
        return next(a.name for a in self.schema if a.role == "target")

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
        code shifted left by one bit never overflows. Computed once, read-only."""
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

    def numeric_matrix(self, rows: np.ndarray, names: Sequence[str]) -> np.ndarray:
        """len(rows) x len(names) float matrix of the given numerical columns,
        stored column-major: its transpose is one contiguous row per column."""
        if len(names) == 0:
            return np.empty((len(rows), 0))
        return np.array([self.column(n)[rows] for n in names]).T

    def row(self, i: int) -> dict[str, object]:
        out: dict[str, object] = {}
        for attr in self.schema:
            v = self._columns[attr.name][i]
            out[attr.name] = float(v) if attr.kind == NUMERICAL else v
        return out

    def subset(self, rows: Iterable[int]) -> "Dataset":
        idx = sorted_rows(rows, self.n)
        return Dataset(self.schema, {a.name: self._columns[a.name][idx] for a in self.schema})


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Stripped header names and data rows of a UTF-8 CSV with a mandatory header row."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
) -> dict[str, np.ndarray]:
    """The columns named in ``kinds``, by the cell rules ``load_csv`` and ``hipar
    predict`` share.

    Every row must have one cell per header name, and no read cell may be empty
    or whitespace. A NUMERICAL column must hold finite reals (float64 array); a
    CATEGORICAL one gives its stripped cells (object array); None makes the
    column NUMERICAL if every cell is a finite real, else CATEGORICAL. A broken
    rule raises a DataError naming the first bad row.
    """
    missing = [name for name in kinds if name not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    if any(len(row) != len(header) for row in rows):
        raise _bad_row(path, header, rows, kinds)
    columns: dict[str, np.ndarray] = {}
    for name, kind in kinds.items():
        j = header.index(name)
        cells = [row[j] for row in rows]
        values = None if kind == CATEGORICAL else _real_column(cells)
        if values is None:
            cells = [c.strip() for c in cells]
            if kind == NUMERICAL or not all(cells):
                raise _bad_row(path, header, rows, kinds)
            values = np.array(cells, dtype=object)
        columns[name] = values
    return columns


def read_columns(path: str, kinds: dict[str, str | None]) -> tuple[dict[str, np.ndarray], int]:
    """The named columns of a CSV by ``load_csv``'s cell rules (see ``_columns``),
    and the number of data rows; other columns are ignored."""
    header, rows = _read_rows(path)
    return _columns(path, header, rows, kinds), len(rows)


def load_csv(path: str, target: str, categorical_overrides: Iterable[str] = ()) -> Dataset:
    """Load an RFC-4180-style CSV (UTF-8, header row mandatory) into a Dataset.

    A column is numerical iff every cell parses as a finite real, unless it is
    named in ``categorical_overrides``. Rows containing a missing (empty) cell
    are rejected with a row-indexed error; there is no imputation.
    """
    overrides = set(categorical_overrides)
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

    kinds = {name: CATEGORICAL if name in overrides else None for name in header}
    columns = _columns(path, header, rows, kinds)
    if columns[target].dtype != float:
        raise DataError(f"target column {target!r} is not numerical")
    schema = [
        AttributeSchema(
            name,
            NUMERICAL if col.dtype == float else CATEGORICAL,
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
    if not is_int(k) or not 2 <= k <= d.n:
        raise DataError(f"fold count k={k!r} is not an integer in [2, {d.n}]")
    perm = _rng(seed).permutation(d.n)
    assignments = np.empty(d.n, dtype=int)
    assignments[perm] = np.arange(d.n) % k
    assignments.flags.writeable = False
    return FoldPlan(k=k, assignments=assignments)


def holdout_split(rows: Iterable[int], fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split an index set into (train, test) with |test| = min(n - 1, max(1,
    round(fraction * n))), so neither side is empty.

    Deterministic given the seed; the two sides partition the input.
    """
    idx = sorted_rows(rows)
    if len(idx) < 2:
        raise DataError("holdout_split needs at least 2 rows")
    test = holdout_mask(len(idx), fraction, seed)
    return idx[~test], idx[test]


def holdout_mask(n: int, fraction: float, seed: int) -> np.ndarray:
    """Boolean mask over n positions (the rows of a table, or of a sorted row
    set in ``holdout_split``), True on the test side: the first min(n - 1,
    max(1, round(fraction * n))) positions of the seed's permutation. Both
    sides hold a row when n >= 2; n = 1 gives an empty test side. n must be
    a nonnegative int and 0 < fraction < 1."""
    if not is_int(n) or n < 0:
        raise DataError(f"position count must be a nonnegative integer, got {n!r}")
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must lie in (0, 1), got {fraction}")
    size = min(n - 1, max(1, round(fraction * n)))
    test = np.zeros(n, dtype=bool)
    test[_rng(seed).permutation(n)[:size]] = True
    return test


def _rng(seed: int) -> np.random.Generator:
    """The generator of a split or fold plan; a seed must be a nonnegative int."""
    if not is_int(seed) or seed < 0:
        raise DataError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.default_rng(seed)
