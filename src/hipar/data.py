"""Typed tabular datasets: CSV loading, type inference, folds and holdout splits."""

from __future__ import annotations

import csv
import math
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


def sorted_rows(rows: Iterable[int]) -> np.ndarray:
    """Row indices as a new sorted int array; accepts an array or any iterable of ints."""
    if not isinstance(rows, np.ndarray):
        rows = np.fromiter(rows, dtype=int)
    return np.sort(rows.astype(int, copy=False))


@dataclass(frozen=True)
class AttributeSchema:
    name: str
    kind: str  # "categorical" | "numerical"
    role: str = "feature"  # "feature" | "target"


class Dataset:
    """Immutable column-typed table with one designated numerical target.

    Columns are stored column-major: float64 arrays for numerical attributes,
    object (str) arrays for categorical ones. ``masks`` is a lazily filled,
    read-only memo of condition row masks, keyed by condition and filled by
    ``patterns.condition_mask``. Instances are safe to share across threads
    once constructed: two threads may at worst compute the same read-only
    mask twice.
    """

    def __init__(self, schema: Sequence[AttributeSchema], columns: dict[str, np.ndarray]):
        names = [a.name for a in schema]
        if len(set(names)) != len(names):
            raise DataError("duplicate attribute names in schema")
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
        self._columns = {}
        for attr in self.schema:
            col = columns[attr.name]
            if attr.kind == NUMERICAL:
                col = np.asarray(col, dtype=float)
                if not np.all(np.isfinite(col)):
                    raise DataError(f"column {attr.name!r} contains non-finite values")
            else:
                col = np.asarray(col, dtype=object)
            col.flags.writeable = False
            self._columns[attr.name] = col
        self._by_name = {a.name: a for a in self.schema}
        self.masks: dict[object, np.ndarray] = {}

    @property
    def target(self) -> str:
        return next(a.name for a in self.schema if a.role == "target")

    def attribute(self, name: str) -> AttributeSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise DataError(f"unknown attribute {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        self.attribute(name)
        return self._columns[name]

    def categorical_features(self) -> list[str]:
        return [a.name for a in self.schema if a.role == "feature" and a.kind == CATEGORICAL]

    def numerical_features(self) -> list[str]:
        """Numerical feature attributes, target excluded."""
        return [a.name for a in self.schema if a.role == "feature" and a.kind == NUMERICAL]

    def numeric_matrix(self, rows: np.ndarray, names: Sequence[str]) -> np.ndarray:
        """len(rows) x len(names) float matrix of the given numerical columns."""
        if len(names) == 0:
            return np.empty((len(rows), 0))
        return np.column_stack([self.column(n)[rows] for n in names])

    def row(self, i: int) -> dict[str, object]:
        out: dict[str, object] = {}
        for attr in self.schema:
            v = self._columns[attr.name][i]
            out[attr.name] = float(v) if attr.kind == NUMERICAL else v
        return out

    def subset(self, rows: Iterable[int]) -> "Dataset":
        idx = sorted_rows(rows)
        cols = {a.name: self._columns[a.name][idx].copy() for a in self.schema}
        return Dataset(self.schema, cols)


def load_csv(path: str, target: str, categorical_overrides: Iterable[str] = ()) -> Dataset:
    """Load an RFC-4180-style CSV (UTF-8, header row mandatory) into a Dataset.

    A column is numerical iff every cell parses as a finite real, unless it is
    named in ``categorical_overrides``. Rows containing a missing (empty) cell
    are rejected with a row-indexed error; there is no imputation.
    """
    overrides = set(categorical_overrides)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, header row required") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if target not in header:
        raise DataError(f"target column {target!r} not found (columns: {', '.join(header)})")
    unknown = overrides - set(header)
    if unknown:
        raise DataError(f"categorical override names unknown columns: {sorted(unknown)}")
    if overrides & {target}:
        raise DataError(f"target column {target!r} cannot be overridden categorical")
    if not rows:
        raise DataError(f"{path}: empty table, no data rows")

    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 1} has {len(row)} cells, expected {len(header)}")
        for j, cell in enumerate(row):
            if cell.strip() == "":
                raise DataError(f"{path}: row {i + 1} has a missing value in column {header[j]!r}")

    schema: list[AttributeSchema] = []
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        parsed = [_parse_real(c) for c in cells]
        numeric = all(v is not None for v in parsed) and name not in overrides
        if name == target:
            if not numeric:
                raise DataError(f"target column {target!r} is not numerical")
            schema.append(AttributeSchema(name, NUMERICAL, role="target"))
            columns[name] = np.array(parsed, dtype=float)
        elif numeric:
            schema.append(AttributeSchema(name, NUMERICAL))
            columns[name] = np.array(parsed, dtype=float)
        else:
            schema.append(AttributeSchema(name, CATEGORICAL))
            columns[name] = np.array([c.strip() for c in cells], dtype=object)

    if not any(a.role == "feature" for a in schema):
        raise DataError("no feature columns remain besides the target")
    return Dataset(schema, columns)


def write_csv(d: Dataset, path: str) -> None:
    """Serialize a Dataset back to CSV; reloading yields cell-identical values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in d.schema])
        cols = [d.column(a.name) for a in d.schema]
        kinds = [a.kind for a in d.schema]
        for i in range(d.n):
            writer.writerow(
                [repr(float(c[i])) if k == NUMERICAL else c[i] for c, k in zip(cols, kinds)]
            )


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: np.ndarray  # per-row fold index
    seed: int

    def fold_rows(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]

    def train_rows(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]


def k_folds(d: Dataset, k: int, seed: int) -> FoldPlan:
    """Deterministic k-fold plan: seeded shuffle, round-robin deal.

    Fold sizes differ by at most one; the assignment depends only on (n, k, seed).
    """
    if not 2 <= k <= d.n:
        raise DataError(f"fold count k={k} out of range [2, {d.n}]")
    perm = np.random.default_rng(seed).permutation(d.n)
    assignments = np.empty(d.n, dtype=int)
    assignments[perm] = np.arange(d.n) % k
    assignments.flags.writeable = False
    return FoldPlan(k=k, assignments=assignments, seed=seed)


def holdout_split(rows: Iterable[int], fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split an index set into (train, test) with |test| = max(1, round(fraction * n)).

    Deterministic given the seed; the two sides partition the input.
    """
    idx = sorted_rows(rows)
    if len(idx) < 2:
        raise DataError("holdout_split needs at least 2 rows")
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must lie in (0, 1), got {fraction}")
    n_test = max(1, round(fraction * len(idx)))
    perm = np.random.default_rng(seed).permutation(len(idx))
    test = np.sort(idx[perm[:n_test]])
    train = np.sort(idx[perm[n_test:]])
    return train, test
