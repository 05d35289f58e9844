"""Interval conditions for numerical attributes: target binarization + MDLP cuts.

The discretizer binarizes the target at its median into large-value (LV) and
small-value (SV) classes, then recursively splits each numerical attribute at
the boundary cut of minimum class entropy, accepting a cut only when its
information gain clears the Fayyad-Irani MDL criterion

    gain > (log2(N - 1) + delta) / N,
    delta = log2(3^k - 2) - (k * Ent(S) - k1 * Ent(S1) - k2 * Ent(S2)).

The search is a prefix-count scan (Fayyad & Irani 1993): the attribute's values
are sorted once and collapsed to distinct-value groups, cumulative row and LV
counts at the group starts give both sides of every candidate cut, and all
candidates of a segment are scored in one vector expression. Only the MDL test
of the chosen cut runs in scalar code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import NUMERICAL, DataError, Dataset, sorted_rows
from .patterns import Condition, Interval

# A weighted entropy lies in [0, 1]; its vector and scalar forms differ by a few ulp at most.
_TIE_TOL = 1e-12


class DegenerateTarget(DataError):
    """Target binarization produced an empty class; discretization is skipped."""


@dataclass(frozen=True)
class TargetBinarization:
    threshold: float
    rows: np.ndarray  # the binarized row indices, sorted
    labels: np.ndarray  # aligned with rows; True = LV (value above threshold)


@dataclass(frozen=True)
class CutPointSet:
    attribute: str
    cuts: tuple[float, ...]  # strictly increasing


def binarize_target(rows, d: Dataset, y: str) -> TargetBinarization:
    """Median split of the target over the rows; ties at the median go to SV."""
    idx = sorted_rows(rows)
    if len(idx) < 2:
        raise DataError("target binarization needs at least 2 rows")
    values = d.column(y)[idx]
    threshold = float(np.median(values))
    labels = values > threshold
    if labels.all() or not labels.any():
        raise DegenerateTarget(f"target {y!r} has a one-sided median split on these rows")
    return TargetBinarization(threshold=threshold, rows=idx, labels=labels)


def _entropy(n_pos: int, n: int) -> float:
    if n == 0:
        return 0.0
    out = 0.0
    for c in (n_pos, n - n_pos):
        if c:
            p = c / n
            out -= p * math.log2(p)
    return out


def _n_classes(n_pos: int, n: int) -> int:
    return int(n_pos > 0) + int(n_pos < n)


def _split_entropy(n: int, pos: int, n1: int, pos1: int) -> float:
    """Weighted class entropy of splitting (n, pos) into (n1, pos1) and the rest."""
    return (n1 * _entropy(pos1, n1) + (n - n1) * _entropy(pos - pos1, n - n1)) / n


def _entropies(n_pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``_entropy`` over arrays of counts with n > 0, same operation order."""
    out = np.zeros(len(n))
    for c in (n_pos, n - n_pos):
        p = c / n
        out -= p * np.log2(np.where(c > 0, p, 1.0))
    return out


def _split_entropies(n: int, pos: int, n1: np.ndarray, pos1: np.ndarray) -> np.ndarray:
    """``_split_entropy`` for every candidate (n1, pos1) at once."""
    return (n1 * _entropies(pos1, n1) + (n - n1) * _entropies(pos - pos1, n - n1)) / n


def _mdl_accepts(n: int, pos: int, n1: int, pos1: int) -> tuple[bool, float]:
    """Fayyad-Irani test for splitting (n, pos) into (n1, pos1) and the rest."""
    n2, pos2 = n - n1, pos - pos1
    ent = _entropy(pos, n)
    ent1 = _entropy(pos1, n1)
    ent2 = _entropy(pos2, n2)
    gain = ent - (n1 * ent1 + n2 * ent2) / n
    k, k1, k2 = _n_classes(pos, n), _n_classes(pos1, n1), _n_classes(pos2, n2)
    delta = math.log2(3**k - 2) - (k * ent - k1 * ent1 - k2 * ent2)
    return gain > (math.log2(n - 1) + delta) / n, gain


def mdlp_cuts(attribute: str, rows, d: Dataset, labels: TargetBinarization) -> CutPointSet:
    """Recursive entropy partitioning of one attribute against the LV/SV labels.

    Candidate cuts are midpoints between consecutive distinct values whose label
    sets differ. The values are sorted once and collapsed to distinct-value
    groups with prefix counts of rows and LV rows, so every candidate of a
    segment is scored in one vector expression. The boundary of minimum
    weighted entropy is tried first and kept only if the MDL criterion accepts
    it (smallest cut wins entropy ties); both halves of an accepted cut recurse.
    An empty cut set is a valid result.
    """
    if d.attribute(attribute).kind != NUMERICAL:
        raise DataError(f"cannot discretize non-numerical attribute {attribute!r}")
    idx = sorted_rows(rows)
    if len(idx) < 2:
        raise DataError("discretization needs at least 2 rows")
    if not np.array_equal(idx, labels.rows):
        raise DataError("labels were binarized on a different row set")

    values = d.column(attribute)[idx]
    order = np.argsort(values)
    values = values[order]

    # distinct-value groups; cum_n[g] / cum_pos[g] count the rows / LV rows before group g
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    uniq = values[starts]
    cum_n = np.append(starts, len(values))
    cum_pos = np.append(0, np.cumsum(labels.labels[order]))[cum_n]
    group_n, group_pos = np.diff(cum_n), np.diff(cum_pos)
    # a boundary lies between groups g and g + 1 when their label sets differ
    has_pos, has_neg = group_pos > 0, group_pos < group_n
    boundary = (has_pos[:-1] != has_pos[1:]) | (has_neg[:-1] != has_neg[1:])

    cuts: list[float] = []
    stack = [(0, len(uniq))]  # half-open group ranges
    while stack:
        lo, hi = stack.pop()
        splits = lo + 1 + np.flatnonzero(boundary[lo:hi - 1])  # first group right of the cut
        if len(splits) == 0:
            continue
        n, pos = int(cum_n[hi] - cum_n[lo]), int(cum_pos[hi] - cum_pos[lo])
        n1, pos1 = cum_n[splits] - cum_n[lo], cum_pos[splits] - cum_pos[lo]
        e = _split_entropies(n, pos, n1, pos1)
        # np.log2 may round differently from math.log2 in the last bit, so the
        # near-minimal candidates are ranked by the scalar form that the MDL
        # test uses; min() keeps the first, i.e. the smallest cut, on ties
        near = np.flatnonzero(e <= e.min() + _TIE_TOL)
        i = min(near, key=lambda j: _split_entropy(n, pos, int(n1[j]), int(pos1[j])))
        accepted, _gain = _mdl_accepts(n, pos, int(n1[i]), int(pos1[i]))
        if accepted:
            split = int(splits[i])
            cuts.append(float((uniq[split - 1] + uniq[split]) / 2.0))
            stack.append((lo, split))
            stack.append((split, hi))
    return CutPointSet(attribute=attribute, cuts=tuple(sorted(cuts)))


def conditions_from_cuts(cp: CutPointSet) -> list[Condition]:
    """k cuts -> k+1 half-open interval conditions partitioning the real line.

    Zero cuts yield zero conditions, never a trivial full-range condition.
    """
    if not cp.cuts:
        return []
    bounds = (-math.inf,) + cp.cuts + (math.inf,)
    return [Interval(cp.attribute, bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
