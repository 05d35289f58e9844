"""Rule-set selection: support-to-error utility with pairwise overlap penalties.

Selecting a nonempty subset S of candidate rules minimizes

    sum_{p in S} -alpha_p  +  sum_{p<q in S} P[p,q],  P[p,q] = omega * J(p,q) * (alpha_p + alpha_q)

with alpha_p = sbar(p)^sigma / ebar(r_p). Since the penalty coefficients are
nonnegative, the pair variables of the integer program collapse to products and
the problem is quadratic pseudo-boolean minimization over the penalty matrix P,
computed once per problem. Both solvers carry load[v] = sum_{u in S} P[u,v]:
adding v changes the objective by load[v] - alpha[v]. Branch-and-bound (up to
EXACT_LIMIT rules) bounds a partial assignment by its objective minus
sum_{v undecided} max(0, alpha[v] - load[v]), since penalties only add; beyond
that, multi-start steepest-descent local search flips one bit at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import DataError, Dataset, is_int
from .enumeration import HybridRule
from .patterns import pattern_bits

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
    # omega * overlap[i, j] * (alpha[i] + alpha[j]), zero diagonal
    penalty: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        penalty = self.omega * self.overlap * (self.alpha[:, None] + self.alpha[None, :])
        np.fill_diagonal(penalty, 0.0)
        object.__setattr__(self, "penalty", penalty)


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
    if not (0 <= sigma < np.inf and 0 <= omega < np.inf):  # False for NaN too
        raise DataError(f"sigma and omega must be finite and >= 0, got {sigma} and {omega}")
    errors = np.array([r.fitted.holdout_error for r in candidates], dtype=float)
    if not np.all(np.isfinite(errors)):
        raise DataError("candidate rules carry non-finite errors")
    # zero-error rules on tiny regions would blow up alpha; floor before normalizing
    errors = np.maximum(errors, 1e-9 / len(candidates))
    supports = np.array([r.support_abs for r in candidates], dtype=float)
    ebar = errors / errors.sum()
    sbar = supports / supports.sum()
    alpha = sbar**sigma / ebar

    # regions as packed bitsets (ANDs of the memoized condition bits):
    # intersections are word-wise AND + popcount
    bits = np.array([pattern_bits(r.pattern, d) for r in candidates])
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
    for a, row in enumerate(sp.penalty[np.ix_(idx, idx)].tolist()):
        for p in row[a + 1 :]:
            total += p
    return total


def _rank(indices: Sequence[int], sp: SelectionProblem) -> tuple[float, int, tuple]:
    """Subsets order by objective, then fewer rules, then smallest pattern orders."""
    return (
        subset_objective(indices, sp),
        len(indices),
        tuple(sorted(sp.candidates[i].pattern.order for i in indices)),
    )


def _solve_exact(sp: SelectionProblem) -> list[int]:
    n = len(sp.candidates)
    order = np.argsort(-sp.alpha, kind="stable")  # branch on large alpha first
    alpha = sp.alpha[order]
    P = sp.penalty[np.ix_(order, order)]
    best = None  # rank and members of the best leaf so far

    def dfs(pos: int, chosen: list[int], partial: float, load: np.ndarray) -> None:
        # partial is the objective of `chosen` and load[v] its penalty against
        # v, both over positions in `order`
        nonlocal best
        if best is not None:
            best_obj = best[0][0]
            bound = partial - np.maximum(alpha[pos:] - load[pos:], 0.0).sum()
            if bound > best_obj + 1e-9 * (1.0 + abs(best_obj)):
                return
        if pos == n:
            if chosen:
                members = order[chosen].tolist()
                rank = _rank(members, sp)
                if best is None or rank < best[0]:
                    best = rank, members
            return
        chosen.append(pos)
        dfs(pos + 1, chosen, partial + (load[pos] - alpha[pos]), load + P[pos])
        chosen.pop()
        dfs(pos + 1, chosen, partial, load)

    dfs(0, [], 0.0, np.zeros(n))
    return best[1]


def _descend(mask: np.ndarray, sp: SelectionProblem) -> np.ndarray:
    """Steepest-descent single-bit flips, keeping the set nonempty.

    Flip deltas are maintained incrementally: adding v changes the objective by
    load[v] - alpha[v] and removing it by alpha[v] - load[v].
    """
    alpha, P = sp.alpha, sp.penalty
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


def _solve_local(sp: SelectionProblem) -> list[int]:
    n = len(sp.candidates)
    rng = np.random.default_rng(9)
    starts = [np.zeros(n, dtype=bool)]
    starts[0][int(np.argmax(sp.alpha))] = True  # greedy-by-alpha seed
    for _ in range(_LOCAL_SEARCH_STARTS):
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[int(np.argmax(sp.alpha))] = True
        starts.append(mask)
    ends = [np.flatnonzero(_descend(mask, sp)).tolist() for mask in starts]
    return min(ends, key=lambda members: _rank(members, sp))


def solve(sp: SelectionProblem) -> SelectedRuleSet:
    """Minimize the selection objective over nonempty candidate subsets.

    Exact branch-and-bound with optimality proof up to EXACT_LIMIT candidates;
    multi-start local search beyond. Objective ties break toward fewer rules,
    then lexicographically smallest pattern orders.
    """
    n = len(sp.candidates)
    if n == 0:
        raise DataError("selection needs at least one candidate rule")
    exact = n <= EXACT_LIMIT
    chosen_idx = sorted(_solve_exact(sp) if exact else _solve_local(sp))
    return SelectedRuleSet(
        chosen=[sp.candidates[i] for i in chosen_idx],
        objective_value=subset_objective(chosen_idx, sp),
        solver="exact" if exact else "local-search",
        proof=exact,
    )


def select_top_q(sp: SelectionProblem, q: int) -> SelectedRuleSet:
    """The q candidates with the largest alpha (ties break on pattern order)."""
    n = len(sp.candidates)
    if not is_int(q):
        raise DataError(f"q must be an integer, got {q!r}")
    if not 1 <= q <= n:
        raise DataError(f"q={q} out of range [1, {n}]")
    ranked = sorted(range(n), key=lambda i: (-float(sp.alpha[i]), sp.candidates[i].pattern.order))
    chosen_idx = sorted(ranked[:q])
    return SelectedRuleSet(
        chosen=[sp.candidates[i] for i in chosen_idx],
        objective_value=subset_objective(chosen_idx, sp),
        solver="top-q",
        proof=True,
    )
