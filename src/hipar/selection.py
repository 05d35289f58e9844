"""Rule-set selection: support-to-error utility with pairwise overlap penalties.

Selecting a nonempty subset S of candidate rules minimizes

    sum_{p in S} -alpha_p  +  sum_{p<q in S} omega * J(p,q) * (alpha_p + alpha_q)

with alpha_p = sbar(p)^sigma / ebar(r_p). Since the penalty coefficients are
nonnegative, the pair variables of the integer program collapse to products and
the problem is quadratic pseudo-boolean minimization, solved exactly by
branch-and-bound up to EXACT_LIMIT rules and by multi-start steepest-descent
local search beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import DataError, Dataset
from .enumeration import HybridRule
from .patterns import region_mask

EXACT_LIMIT = 25
_LOCAL_SEARCH_STARTS = 16


@dataclass(frozen=True)
class SelectionProblem:
    candidates: list[HybridRule]
    alpha: np.ndarray  # per-rule support-to-error trade-off, > 0
    overlap: np.ndarray  # pairwise Jaccard of regions, symmetric, unit diagonal
    sigma: float
    omega: float
    normalized_errors: np.ndarray  # ebar, sums to 1
    normalized_supports: np.ndarray  # sbar, sums to 1

    def penalty(self, i: int, j: int) -> float:
        return self.omega * float(self.overlap[i, j]) * float(self.alpha[i] + self.alpha[j])


@dataclass(frozen=True)
class SelectedRuleSet:
    chosen: list[HybridRule]
    objective_value: float
    solver: str  # "exact" | "local-search" | "top-q"
    proof: bool


def build_problem(
    candidates: Sequence[HybridRule], sigma: float, omega: float, d: Dataset
) -> SelectionProblem:
    """Normalize errors and supports over the candidate pool and compute the
    pairwise region overlaps on the training data."""
    if not candidates:
        raise DataError("selection needs at least one candidate rule")
    if sigma < 0 or omega < 0:
        raise DataError("sigma and omega must be >= 0")
    errors = np.array([r.fitted.holdout_error for r in candidates], dtype=float)
    if not np.all(np.isfinite(errors)):
        raise DataError("candidate rules carry non-finite errors")
    # zero-error rules on tiny regions would blow up alpha; floor before normalizing
    errors = np.maximum(errors, 1e-9 / len(candidates))
    supports = np.array([r.support_abs for r in candidates], dtype=float)
    ebar = errors / errors.sum()
    sbar = supports / supports.sum()
    alpha = sbar**sigma / ebar

    # regions as packed bitsets: intersections are word-wise AND + popcount
    bits = np.array([np.packbits(region_mask(r.pattern, d)) for r in candidates])
    sizes = np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
    k = len(candidates)
    overlap = np.eye(k)
    for i in range(k - 1):
        inter = np.bitwise_count(bits[i] & bits[i + 1 :]).sum(axis=1, dtype=np.int64)
        union = sizes[i] + sizes[i + 1 :] - inter
        row = np.divide(inter, union, out=np.zeros(len(union)), where=union > 0)
        overlap[i, i + 1 :] = overlap[i + 1 :, i] = row
    return SelectionProblem(
        candidates=list(candidates),
        alpha=alpha,
        overlap=overlap,
        sigma=float(sigma),
        omega=float(omega),
        normalized_errors=ebar,
        normalized_supports=sbar,
    )


def subset_objective(indices: Sequence[int], sp: SelectionProblem) -> float:
    """Objective of a candidate subset, accumulated in a fixed canonical order
    (sorted indices, then sorted pairs) so recomputations reproduce solver
    values bit for bit."""
    idx = sorted(indices)
    total = 0.0
    for i in idx:
        total += -float(sp.alpha[i])
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            total += sp.penalty(idx[a], idx[b])
    return total


def _tie_key(indices: Sequence[int], sp: SelectionProblem) -> tuple[int, tuple[str, ...]]:
    # fewer rules first, then lexicographically smallest canonical keys
    return (len(indices), tuple(sorted(sp.candidates[i].key for i in indices)))


def _better(obj_a: float, key_a, obj_b: float, key_b) -> bool:
    """Is (obj_a, key_a) strictly preferable to (obj_b, key_b)?"""
    if obj_a != obj_b:
        return obj_a < obj_b
    return key_a < key_b


def _solve_exact(sp: SelectionProblem) -> tuple[list[int], float]:
    n = len(sp.candidates)
    order = sorted(range(n), key=lambda i: -float(sp.alpha[i]))
    alpha = sp.alpha
    suffix_alpha = np.zeros(n + 1)
    for pos in range(n - 1, -1, -1):
        suffix_alpha[pos] = suffix_alpha[pos + 1] + float(alpha[order[pos]])

    best_set: list[int] = []
    best_obj = float("inf")
    best_key = None

    def consider(chosen: list[int]) -> None:
        nonlocal best_set, best_obj, best_key
        if not chosen:
            return
        obj = subset_objective(chosen, sp)
        key = _tie_key(chosen, sp)
        if best_key is None or _better(obj, key, best_obj, best_key):
            best_set, best_obj, best_key = list(chosen), obj, key

    def dfs(pos: int, chosen: list[int], partial: float) -> None:
        # partial is the incremental objective of `chosen`; every undecided
        # variable can lower it by at most its alpha, penalties only add
        slack = 1e-9 * (1.0 + abs(best_obj)) if best_obj != float("inf") else float("inf")
        if partial - suffix_alpha[pos] > best_obj + slack:
            return
        if pos == n:
            consider(chosen)
            return
        v = order[pos]
        delta = -float(alpha[v])
        for u in chosen:
            delta += sp.penalty(min(u, v), max(u, v))
        chosen.append(v)
        dfs(pos + 1, chosen, partial + delta)
        chosen.pop()
        dfs(pos + 1, chosen, partial)

    dfs(0, [], 0.0)
    return best_set, best_obj


def _penalty_matrix(sp: SelectionProblem) -> np.ndarray:
    P = sp.omega * sp.overlap * (sp.alpha[:, None] + sp.alpha[None, :])
    np.fill_diagonal(P, 0.0)
    return P


def _descend(mask: np.ndarray, sp: SelectionProblem, P: np.ndarray) -> np.ndarray:
    """Steepest-descent single-bit flips, keeping the set nonempty.

    Flip deltas are maintained incrementally: adding v changes the objective by
    load[v] - alpha[v] and removing it by alpha[v] - load[v], where load[v] is
    v's total pairwise penalty against the current members.
    """
    alpha = sp.alpha
    load = P[:, mask].sum(axis=1)
    size = int(mask.sum())
    for _ in range(200 + 20 * len(mask)):  # flip budget; drift cannot cycle forever
        delta = np.where(mask, alpha - load, load - alpha)
        if size == 1:
            delta[mask] = np.inf  # the last member may not leave
        v = int(np.argmin(delta))
        if not delta[v] < 0.0:
            return mask
        if mask[v]:
            mask[v] = False
            size -= 1
            load -= P[:, v]
        else:
            mask[v] = True
            size += 1
            load += P[:, v]
    return mask


def _solve_local(sp: SelectionProblem) -> tuple[list[int], float]:
    n = len(sp.candidates)
    rng = np.random.default_rng(9)
    starts = [np.zeros(n, dtype=bool)]
    starts[0][int(np.argmax(sp.alpha))] = True  # greedy-by-alpha seed
    for _ in range(_LOCAL_SEARCH_STARTS):
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[int(np.argmax(sp.alpha))] = True
        starts.append(mask)

    P = _penalty_matrix(sp)
    best_set: list[int] | None = None
    best_obj = float("inf")
    best_key = None
    for mask in starts:
        mask = _descend(mask.copy(), sp, P)
        chosen = list(np.nonzero(mask)[0])
        obj = subset_objective(chosen, sp)
        key = _tie_key(chosen, sp)
        if best_key is None or _better(obj, key, best_obj, best_key):
            best_set, best_obj, best_key = chosen, obj, key
    return best_set, best_obj


def solve(sp: SelectionProblem) -> SelectedRuleSet:
    """Minimize the selection objective over nonempty candidate subsets.

    Exact branch-and-bound with optimality proof up to EXACT_LIMIT candidates;
    multi-start local search beyond. Objective ties break toward fewer rules,
    then lexicographically smallest canonical keys.
    """
    n = len(sp.candidates)
    exact = n <= EXACT_LIMIT
    chosen_idx, objective = _solve_exact(sp) if exact else _solve_local(sp)
    chosen = [sp.candidates[i] for i in sorted(chosen_idx)]
    return SelectedRuleSet(
        chosen=chosen,
        objective_value=objective,
        solver="exact" if exact else "local-search",
        proof=exact,
    )


def select_top_q(sp: SelectionProblem, q: int) -> SelectedRuleSet:
    """The q candidates with the largest alpha (ties break on canonical key)."""
    n = len(sp.candidates)
    if not 1 <= q <= n:
        raise DataError(f"q={q} out of range [1, {n}]")
    ranked = sorted(range(n), key=lambda i: (-float(sp.alpha[i]), sp.candidates[i].key))
    chosen_idx = sorted(ranked[:q])
    return SelectedRuleSet(
        chosen=[sp.candidates[i] for i in chosen_idx],
        objective_value=subset_objective(chosen_idx, sp),
        solver="top-q",
        proof=True,
    )
