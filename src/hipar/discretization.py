"""Interval conditions for numerical attributes: target binarization + MDLP cuts.

The discretizer binarizes the target at its median into large-value (LV) and
small-value (SV) classes, then recursively splits each numerical attribute at
the boundary cut of minimum class entropy, accepting a cut only when its
information gain clears the Fayyad-Irani MDL criterion

    gain > (log2(N - 1) + delta) / N,
    delta = log2(3^k - 2) - (k * Ent(S) - k1 * Ent(S1) - k2 * Ent(S2)).

Labels that are all SV (a constant target, one row among them) have no
boundary between classes and give no cuts, as does a row set too small to
cut; neither is an error.

The search is a prefix-count scan (Fayyad & Irani 1993) that runs once per
search node for all the regions it re-discretizes and all their attributes
(``mdlp_cuts_many``; ``mdlp_cuts`` is its one-region case). Each numerical
column is ranked once per table (``Dataset.ranks``: sorted distinct values and
integer codes, after SLIQ's presorting, Mehta, Agrawal & Rissanen 1996). Each
(region, attribute) pair is one sorted segment of a flat array of integer
keys, rank code and LV label, scanned with its neighbours in chunks of a
bounded key count, so the scan's temporaries stay small; the rows of one
distinct value form a group, and the order of rows inside a group does not
change its counts. Cumulative row and LV counts at the group starts give both
sides of every candidate cut. The candidates of every segment, and later of
every open part of the recursion, are scored in one vector through an
x*log2(x) table. Only the near-tie ranking and the MDL test of the chosen cuts
run in scalar code, on integer counts, so a region gets the cuts it gets alone.
A cut is the midpoint of its two neighbouring distinct values. The medians of
the target binarization come from one sort of the regions' target rank codes
(``binarize_targets``; ``binarize_target`` is its one-region case).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .data import DataError, Dataset, check_rows, sorted_rows
from .patterns import Condition, Interval

# A weighted entropy lies in [0, 1]; its table and scalar forms differ by ~1e-14 at most.
_TIE_TOL = 1e-12
# Keys per scan: the segments go to ``_scan`` in chunks of whole segments, so its
# batch-sized temporaries stay small (a long segment is a chunk of its own).
_CHUNK_KEYS = 65_536


@dataclass(frozen=True)
class TargetBinarization:
    threshold: float
    rows: np.ndarray  # the binarized row indices, sorted
    labels: np.ndarray  # aligned with rows; True = LV (value above threshold)


@dataclass(frozen=True)
class CutPointSet:
    attribute: str
    cuts: tuple[float, ...]  # strictly increasing


def binarize_target(rows, d: Dataset) -> TargetBinarization:
    """Median split of the dataset's target over the nonempty rows. Ties at
    the median go to SV, unless no value exceeds the median: then they go to
    LV, so a target that varies always gets both classes (y = 1, 2, 2, 2
    gives SV {1}). A constant target, one row among them, is all SV. The
    one-region case of ``binarize_targets``."""
    return binarize_targets([rows], d)[0]


def binarize_targets(row_sets: Sequence, d: Dataset) -> list[TargetBinarization]:
    """``binarize_target`` of each row set, in one pass: one sort of the row
    sets' target rank codes (``Dataset.ranks``) gives every median, and one
    comparison every label."""
    idxs = [sorted_rows(rows, d.n) for rows in row_sets]
    if any(len(idx) == 0 for idx in idxs):
        raise DataError("target binarization needs at least 1 row")
    if not idxs:
        return []
    sizes = np.array([len(idx) for idx in idxs])
    starts = np.cumsum(sizes) - sizes
    flat = np.concatenate(idxs)
    threshold = _medians(d, flat, sizes, starts)
    values = d.column(d.target)[flat]
    labels = values > np.repeat(threshold, sizes)
    lv = np.add.reduceat(labels, starts, dtype=np.int64)
    for r in np.flatnonzero((lv == 0) & (np.minimum.reduceat(values, starts) < threshold)).tolist():
        part = slice(starts[r], starts[r] + sizes[r])
        labels[part] = values[part] >= threshold[r]
    return [TargetBinarization(threshold=float(t), rows=idx, labels=labels[s:s + len(idx)])
            for t, idx, s in zip(threshold.tolist(), idxs, starts.tolist())]


def _medians(d: Dataset, flat: np.ndarray, sizes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The median target value of each row set, whose rows are
    ``flat[starts[i]:starts[i] + sizes[i]]``: the middle rank code (or the
    mean of the two middle values of an even count) after one sort of the
    keys set * L + code, L the target's level count."""
    levels, codes = d.ranks(d.target)
    offset = np.arange(len(sizes), dtype=np.int64) * len(levels)
    keys = codes[flat].astype(np.int64)
    keys += np.repeat(offset, sizes)
    keys.sort()
    low, high = keys[starts + (sizes - 1) // 2] - offset, keys[starts + sizes // 2] - offset
    median = levels[high]
    even = sizes % 2 == 0
    median[even] = (levels[low[even]] + levels[high[even]]) / 2
    return median


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


def _mdl_accepts(n: int, pos: int, n1: int, pos1: int) -> bool:
    """Fayyad-Irani test for splitting (n, pos) into (n1, pos1) and the rest."""
    n2, pos2 = n - n1, pos - pos1
    ent = _entropy(pos, n)
    ent1 = _entropy(pos1, n1)
    ent2 = _entropy(pos2, n2)
    gain = ent - (n1 * ent1 + n2 * ent2) / n
    k, k1, k2 = _n_classes(pos, n), _n_classes(pos1, n1), _n_classes(pos2, n2)
    delta = math.log2(3**k - 2) - (k * ent - k1 * ent1 - k2 * ent2)
    return gain > (math.log2(n - 1) + delta) / n


def _xlog2x(m: int) -> np.ndarray:
    """t[x] = x * log2(x) for x = 0..m, with t[0] = 0."""
    x = np.arange(m + 1, dtype=float)
    x[0] = 1.0
    return x * np.log2(x)


def _table_split_entropy(t: np.ndarray, n, pos, n1, pos1):
    """``_split_entropy`` over arrays of counts, read from an ``_xlog2x`` table
    that covers n: n1 * Ent(S1) = t[n1] - t[pos1] - t[n1 - pos1]."""
    n2, pos2 = n - n1, pos - pos1
    e = t[n1] - t[pos1]
    e -= t[n1 - pos1]
    e += t[n2]
    e -= t[pos2]
    e -= t[n2 - pos2]
    e /= n
    return e


def mdlp_cuts(attributes: Sequence[str], d: Dataset,
              labels: TargetBinarization) -> list[CutPointSet]:
    """Recursive entropy partitioning of each attribute against the LV/SV labels,
    on the rows the labels were binarized on.

    Candidate cuts are midpoints between consecutive distinct values whose label
    sets differ. The boundary of minimum weighted entropy is tried first and
    kept only if the MDL criterion accepts it (smallest cut wins entropy ties);
    both halves of an accepted cut recurse. An empty cut set is a valid result:
    one-sided labels have no boundary, and fewer than 2 rows none to cut.
    Returns one cut set per attribute, in the given order. The one-region
    case of ``mdlp_cuts_many``.
    """
    return mdlp_cuts_many([(attributes, labels)], d)[0]


def mdlp_cuts_many(tasks: Sequence[tuple[Sequence[str], TargetBinarization]],
                   d: Dataset) -> list[list[CutPointSet]]:
    """``mdlp_cuts`` of each ``(attributes, labels)`` task, in a few scans:
    every task gets exactly the cut sets it gets alone, in the order given.

    Each (region, attribute) pair is one segment of a flat key array. A row's
    key for an attribute is its rank code (``Dataset.ranks``) shifted left by
    one bit, with the LV label in the low bit; a sort orders each segment, and
    the rows of one distinct value form a group. The segments are scanned in
    chunks of consecutive whole segments of at most ``_CHUNK_KEYS`` keys. The
    groups of a chunk's segments lie in one flat array with cumulative row and
    LV counts, and each round of the recursion scores the candidates of every
    open part of every segment in one vector.
    """
    names: list[list[str]] = []
    cuts: list[list[list[float]]] = []
    segments = []  # (labels, codes, cut list, levels) of each pair with something to cut
    for attributes, labels in tasks:
        if isinstance(attributes, str):
            raise DataError("mdlp_cuts takes a sequence of attribute names, not one name")
        names.append(list(attributes))
        ranked = [d.ranks(a) for a in names[-1]]
        check_rows(labels.rows, d.n)
        cuts.append([[] for _ in ranked])
        if len(labels.rows) >= 2:
            segments += [(labels, codes, found, levels)
                         for found, (levels, codes) in zip(cuts[-1], ranked)]
    for chunk in _chunks([len(labels.rows) for labels, _, _, _ in segments]):
        part = segments[chunk]
        widths = [len(labels.rows) for labels, _, _, _ in part]
        keys = np.empty(sum(widths), np.result_type(*(codes for _, codes, _, _ in part)))
        at = 0
        for _, same in itertools.groupby(part, lambda s: id(s[0])):
            same = list(same)  # a task's segments in this chunk, as one matrix
            block = keys[at : at + len(same) * len(same[0][0].rows)].reshape(len(same), -1)
            for row, (labels, codes, _, _) in zip(block, same):
                np.left_shift(codes[labels.rows], 1, out=row)
                row |= labels.labels
            block.sort(axis=1)
            at += block.size
        _scan(keys, widths, [(found, levels) for _, _, found, levels in part])
    return [[CutPointSet(attribute=a, cuts=tuple(sorted(c))) for a, c in zip(attrs, cut)]
            for attrs, cut in zip(names, cuts)]


def _chunks(widths: Sequence[int]):
    """Slices of consecutive segments of at most ``_CHUNK_KEYS`` keys in all,
    or of one longer segment."""
    first, total = 0, 0
    for a, width in enumerate(widths):
        if total + width > _CHUNK_KEYS and a > first:
            yield slice(first, a)
            first, total = a, 0
        total += width
    if first < len(widths):
        yield slice(first, len(widths))


def _groups(keys: np.ndarray, starts: np.ndarray):
    """The distinct-value groups of all segments of the sorted keys (segment
    a holds the flat positions starts[a]:starts[a + 1]) in one flat array; a
    group starts where the rank code changes and at every segment's first
    row. Returns (cum_n, lv, bounds, live): group g holds the flat positions
    cum_n[g]:cum_n[g + 1], lv[p] counts the LV rows before flat position p,
    segment a's groups are bounds[a]:bounds[a + 1], and ``live`` holds the
    first group right of each candidate cut. The setup's other arrays, as
    long as the batch's rows, are freed on return."""
    total = len(keys)
    edge = np.empty(total + 1, dtype=bool)
    np.greater(keys[1:] ^ keys[:-1], 1, out=edge[1:-1])
    edge[starts] = True
    cum_n = np.flatnonzero(edge)
    lv = np.zeros(total + 1, dtype=np.int32 if total < 2**31 else np.int64)
    np.cumsum(keys & 1, out=lv[1:])
    bounds = np.searchsorted(cum_n, starts)
    # a boundary lies between groups g and g + 1 of one segment when their
    # label sets differ. SV rows sort first inside a group, so its first and
    # last labels give its label set.
    first_lv, last_lv = keys[cum_n[:-1]] & 1, keys[cum_n[1:] - 1] & 1
    boundary = (first_lv[:-1] != first_lv[1:]) | (last_lv[:-1] != last_lv[1:])
    boundary[bounds[1:-1] - 1] = False
    return cum_n, lv, bounds, np.flatnonzero(boundary) + 1


def _scan(keys: np.ndarray, widths: Sequence[int],
          segments: Sequence[tuple[list[float], np.ndarray]]) -> None:
    """The recursion of ``mdlp_cuts_many`` over the sorted keys of all
    segments, ``widths[a]`` rows for segment a; appends each cut segment a
    accepts to its list ``segments[a][0]``, a midpoint of its attribute's
    distinct values ``segments[a][1]``."""
    starts = np.zeros(len(widths) + 1, dtype=np.int64)
    np.cumsum(widths, out=starts[1:])
    cum_n, lv, bounds, live = _groups(keys, starts)

    # open parts of the segments, as half-open group ranges lo:hi, in order;
    # the live candidates of part s are the next size[s] entries of ``live``.
    # At first every segment is one part.
    lo, hi = bounds[:-1], bounds[1:]
    size = np.diff(np.searchsorted(live, bounds))
    t = _xlog2x(max(widths))
    while len(live):
        lo, hi, size = lo[size > 0], hi[size > 0], size[size > 0]
        seg = np.cumsum(size) - size  # each part's first candidate
        base_n, end_n, at = cum_n[lo], cum_n[hi], cum_n[live]
        base_pos = lv[base_n]
        n, pos = end_n - base_n, lv[end_n] - base_pos
        n1, pos1 = at - np.repeat(base_n, size), lv[at] - np.repeat(base_pos, size)
        e = _table_split_entropy(t, np.repeat(n, size), np.repeat(pos, size), n1, pos1)
        near = np.flatnonzero(e <= np.repeat(np.minimum.reduceat(e, seg), size) + _TIE_TOL)
        # the table may round differently from the scalar form in the last
        # bits, so the near-minimal candidates are ranked by the scalar form
        # that the MDL test uses; min() keeps the first, i.e. the smallest
        # cut, on ties
        chosen = np.full(len(seg), -1)
        near_seg = np.searchsorted(seg, near, "right") - 1
        for s, pairs in itertools.groupby(zip(near_seg.tolist(), near.tolist()), itemgetter(0)):
            group = [j for _, j in pairs]
            sn, spos = int(n[s]), int(pos[s])
            i = group[0] if len(group) == 1 else min(
                group, key=lambda j: _split_entropy(sn, spos, int(n1[j]), int(pos1[j])))
            if _mdl_accepts(sn, spos, int(n1[i]), int(pos1[i])):
                chosen[s] = i
                right = int(cum_n[live[i]])
                found, levels = segments[int(np.searchsorted(starts, right, "right")) - 1]
                found.append(float((levels[keys[right - 1] >> 1] + levels[keys[right] >> 1]) / 2.0))
        # both halves of an accepted cut stay open, the other parts close
        ok = chosen >= 0
        won = chosen[ok]
        keep = np.repeat(ok, size)
        keep[won] = False
        split, left = live[won], won - seg[ok]
        lo = np.column_stack((lo[ok], split)).reshape(-1)
        hi = np.column_stack((split, hi[ok])).reshape(-1)
        size = np.column_stack((left, size[ok] - left - 1)).reshape(-1)
        live = live[keep]


def conditions_from_cuts(cp: CutPointSet) -> list[Condition]:
    """k cuts -> k+1 half-open interval conditions partitioning the real line.

    Zero cuts yield zero conditions, never a trivial full-range condition.
    """
    if not cp.cuts:
        return []
    bounds = (-math.inf,) + cp.cuts + (math.inf,)
    return [Interval(cp.attribute, bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
