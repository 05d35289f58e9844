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

Local search descends all its starts in lockstep, each taking exactly the
flips it takes alone. Branch-and-bound starts from an incumbent, the end of the
greedy start (the singleton of the largest alpha). A subset that beats or ties
it has a bound at most its objective, which the prune test's slack of
1e-9 * (1 + |best|) never cuts, and leaves still rank by ``_rank``: the
incumbent changes no result. The nodes run on Python floats, since numpy calls
on vectors this short cost more than their arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import DataError, Dataset, is_int, is_real
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


def check_biases(sigma: float, omega: float) -> None:
    """The support bias sigma and the overlap bias omega must be real, finite and >= 0."""
    if not all(is_real(b) and 0 <= b < np.inf for b in (sigma, omega)):  # False for NaN too
        raise DataError(f"sigma and omega must be finite and >= 0, got {sigma!r} and {omega!r}")


def build_problem(
    candidates: Sequence[HybridRule], sigma: float, omega: float, d: Dataset
) -> SelectionProblem:
    """Normalize errors and supports over the candidate pool and compute the
    pairwise region overlaps on the training data."""
    if not candidates:
        raise DataError("selection needs at least one candidate rule")
    check_biases(sigma, omega)
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
    members = order.tolist()
    # from position pos on: the alphas, and the penalties of the rule at pos
    # against the later positions (as floats; the node does no numpy call)
    alpha = sp.alpha[order].tolist()
    alphas = [alpha[pos:] for pos in range(n + 1)]
    rows = [row[pos + 1:] for pos, row in enumerate(sp.penalty[np.ix_(order, order)].tolist())]
    best = limit = None  # rank and members of the best subset so far; prune bounds above limit

    def keep(subset: list[int]) -> None:
        nonlocal best, limit
        rank = _rank(subset, sp)
        if best is None or rank < best[0]:
            best = rank, subset
            limit = rank[0] + 1e-9 * (1.0 + abs(rank[0]))

    def dfs(pos: int, chosen: list[int], partial: float, load: list[float]) -> None:
        # partial is the objective of `chosen` and load[i] its penalty against
        # position pos + i, all over positions in `order`
        slack = 0.0
        for a, l in zip(alphas[pos], load):
            if a > l:
                slack += a - l
        if partial - slack > limit:
            return  # penalties only add: no subset below beats or ties the best
        if pos == n:
            if chosen:
                keep([members[i] for i in chosen])
            return
        rest = load[1:]
        chosen.append(pos)
        dfs(pos + 1, chosen, partial + (load[0] - alpha[pos]),
            [l + p for l, p in zip(rest, rows[pos])])
        chosen.pop()
        dfs(pos + 1, chosen, partial, rest)

    # the incumbent: the end of local search's greedy start
    start = np.zeros((1, n), dtype=bool)
    start[0, int(np.argmax(sp.alpha))] = True
    keep(np.flatnonzero(_descend(start, sp)[0]).tolist())
    dfs(0, [], 0.0, [0.0] * n)
    return best[1]


def _descend(masks: np.ndarray, sp: SelectionProblem) -> np.ndarray:
    """Steepest-descent single-bit flips from each start, a row of ``masks``,
    keeping every set nonempty. The rows step in lockstep, and each takes
    exactly the flips it takes alone; the rows end in place.

    Flip deltas are maintained incrementally: adding v changes the objective by
    load[v] - alpha[v] and removing it by alpha[v] - load[v].
    """
    alpha, columns = sp.alpha, sp.penalty.T
    load = np.array([sp.penalty[:, m].sum(axis=1) for m in masks])
    sign = np.where(masks, -1.0, 1.0)  # flipping v adds sign[v] * P[:, v] to load
    size = masks.sum(axis=1, dtype=float)
    live = np.arange(len(masks))  # the rows still descending, and their states
    at = np.arange(len(masks))
    for _ in range(200 + 20 * masks.shape[1]):  # flip budget; drift cannot cycle forever
        delta = load - alpha
        delta *= sign  # a negation is exact: alpha - load on members
        last = size == 1.0
        if last.any():
            delta[last[:, None] & (sign < 0.0)] = np.inf  # the last member may not leave
        v = delta.argmin(axis=1)
        down = delta[at, v] < 0.0
        if not down.all():
            masks[live[~down]] = sign[~down] < 0.0
            live, load, sign, size, v = live[down], load[down], sign[down], size[down], v[down]
            if not len(live):
                return masks
            at = at[: len(live)]
        flip = sign[at, v]
        load += columns[v] * flip[:, None]
        sign[at, v] = -flip
        size += flip
    masks[live] = sign < 0.0
    return masks


def _solve_local(sp: SelectionProblem) -> list[int]:
    n = len(sp.candidates)
    rng = np.random.default_rng(9)
    starts = np.zeros((_LOCAL_SEARCH_STARTS + 1, n), dtype=bool)
    starts[0, int(np.argmax(sp.alpha))] = True  # greedy-by-alpha seed
    for mask in starts[1:]:
        mask[:] = rng.random(n) < 0.5
        if not mask.any():
            mask[int(np.argmax(sp.alpha))] = True
    ends = [np.flatnonzero(mask).tolist() for mask in _descend(starts, sp)]
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
