"""Independent reference implementations the test suite checks against.

These deliberately use naive, loop-heavy code paths so they share no machinery
with the package internals they verify.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from hipar import (
    TOP,
    Equals,
    HybridRule,
    Interval,
    Pattern,
    best_local_model,
    binarize_target,
    condition_tids,
    conditions_from_cuts,
    hipar_init,
    holdout_mask,
    mdlp_cuts,
    occam_test,
    subset_objective,
)
from hipar.enumeration import IV_PERCENTILE
from hipar.patterns import iv_from_region


def _entropy(labels):
    n = len(labels)
    if n == 0:
        return 0.0
    out = 0.0
    for c in (sum(labels), n - sum(labels)):
        if c:
            p = c / n
            out -= p * math.log2(p)
    return out


def mdlp_oracle(values, labels):
    """Exhaustive recursive evaluation of the Fayyad-Irani criterion.

    Candidate cuts sit midway between consecutive distinct values whose label
    sets differ; the minimum-entropy candidate (smallest cut on ties) is tested
    against the MDL threshold and, if accepted, both halves recurse.
    """
    pairs = sorted(zip([float(v) for v in values], [int(l) for l in labels]))

    def rec(pairs):
        n = len(pairs)
        groups = []
        for v, l in pairs:
            if groups and groups[-1][0] == v:
                groups[-1][1].append(l)
            else:
                groups.append((v, [l]))
        best = None
        for g in range(len(groups) - 1):
            if set(groups[g][1]) == set(groups[g + 1][1]):
                continue
            cut = (groups[g][0] + groups[g + 1][0]) / 2.0
            left = [l for v, l in pairs if v < cut]
            right = [l for v, l in pairs if v >= cut]
            e = (len(left) * _entropy(left) + len(right) * _entropy(right)) / n
            if best is None or e < best[0]:
                best = (e, cut)
        if best is None:
            return []
        e, cut = best
        left = [(v, l) for v, l in pairs if v < cut]
        right = [(v, l) for v, l in pairs if v >= cut]
        all_l = [l for _, l in pairs]
        ll = [l for _, l in left]
        rl = [l for _, l in right]
        gain = _entropy(all_l) - e
        k, k1, k2 = len(set(all_l)), len(set(ll)), len(set(rl))
        delta = math.log2(3**k - 2) - (
            k * _entropy(all_l) - k1 * _entropy(ll) - k2 * _entropy(rl)
        )
        if gain > (math.log2(n - 1) + delta) / n:
            return rec(left) + [cut] + rec(right)
        return []

    return sorted(rec(pairs))


def closed_frequent_oracle(d, conditions, theta_abs):
    """Brute-force closed frequent patterns over a condition universe.

    Breadth-first search over distinct frequent regions reached by intersecting
    one condition at a time; each region's closure is the set of all universe
    conditions that cover it. Returns canonical pattern keys; the full region's
    closure is included only when it is nonempty.
    """
    tids = {c: set(condition_tids(c, d).tolist()) for c in conditions}
    full = frozenset(range(d.n))
    regions = {full}
    frontier = [full]
    while frontier:
        r = frontier.pop()
        for c in conditions:
            rr = frozenset(r & tids[c])
            if len(rr) + 1e-9 >= theta_abs and rr not in regions:
                regions.add(rr)
                frontier.append(rr)
    out = set()
    for rows in regions:
        conds = [c for c in conditions if rows <= tids[c]]
        key = Pattern(conds).key
        if key != "TRUE":
            out.add(key)
    return out


@dataclass
class ReferenceSearch:
    trace: list[str]  # one line per decision, as enumerate_candidates traces them
    visited: list[str]  # keys of the visited patterns, in visit order
    accepted: list[HybridRule]  # in acceptance order
    default_rule: HybridRule


def reference_search(d, cfg, exhaustive=False):
    """The closed-pattern search of ``enumerate_candidates`` from its definition,
    one decision at a time: boolean row masks, closures by testing every
    universe condition against the region, parents from every sub-pattern one
    condition smaller, each node decided and walked in one depth-first pass.

    A node extends its pattern by each of its conditions in canonical order.
    An extension is support-pruned below theta * n rows, IV-pruned when its
    interclass variance does not exceed the 85th percentile of the node's
    interval conditions' (taken alone on the whole table; no pruning below
    two intervals), and pruned by the leftmost-parent check when its closure
    adds a condition on an earlier attribute or was visited before. The
    closure universe is every initial equality plus the node's intervals. A
    visited pattern is accepted when its rule strictly beats every immediate
    parent on its own scored rows, and recurses when accepted (always when
    ``exhaustive``) with the later equalities outside its closure plus the
    intervals MDLP finds on its free numerical attributes (each frequent on
    the whole table, and at least two per attribute). Rules are fitted by the
    one-region contest ``best_local_model``."""
    conds = sorted(hipar_init(d, cfg), key=lambda c: c.order)
    theta_abs = cfg.theta * d.n
    y = d.column(d.target)
    test = holdout_mask(d.n, 0.2, cfg.seed)
    equalities = [c for c in conds if isinstance(c, Equals)]
    masks, rules = {}, {}

    def mask(c):
        if c not in masks:
            masks[c] = np.asarray(c.mask(d.column(c.attribute)), dtype=bool)
        return masks[c]

    def region(conditions):
        out = np.ones(d.n, dtype=bool)
        for c in conditions:
            out &= mask(c)
        return out

    def closed(conditions, inside, universe):
        taken = {c.attribute: c for c in conditions}
        for u in universe:
            if not (inside & ~mask(u)).any():
                taken.setdefault(u.attribute, u)
        return Pattern(taken.values())

    def rule(p):
        if p not in rules:
            rows = np.flatnonzero(region(p.conditions))
            fitted, scored = best_local_model(rows, d, cfg.metric, test)
            rules[p] = HybridRule(p, fitted, len(rows), len(rows) / d.n), scored
        return rules[p]

    def parents(p, universe):
        support = region(p.conditions).sum()
        found = []
        for k in range(len(p)):
            sub = p.conditions[:k] + p.conditions[k + 1 :]
            inside = region(sub)
            if not sub:
                parent = TOP
            elif inside.sum() != support:
                parent = closed(sub, inside, universe)
            else:
                continue  # the rest implies the dropped condition
            if parent not in found:
                found.append(parent)
        return found or [TOP]

    def intervals(rows, p):
        free = [a for a in d.numerical_features() if a not in p.attributes()]
        found = []
        for cp in mdlp_cuts(free, d, binarize_target(rows, d)):
            kept = [c for c in conditions_from_cuts(cp) if mask(c).sum() + 1e-9 >= theta_abs]
            if len(kept) > 1:
                found.extend(kept)
        return found

    out = ReferenceSearch([], [], [], rule(TOP)[0])
    seen = set()

    def emit(text, support, iv, decision):
        out.trace.append(f"{text}\t{support}\t{iv:.6g}\t{decision}")

    def walk(pattern, inside, conds):
        own = [c for c in conds if isinstance(c, Interval)]
        universe = sorted(equalities + own, key=lambda c: c.order)
        ivs = [iv_from_region(np.flatnonzero(mask(c)), y) for c in own]
        nu = float(np.percentile(ivs, IV_PERCENTILE)) if len(ivs) >= 2 else -math.inf
        for i, c in enumerate(conds):
            ext = inside & mask(c)
            rows = np.flatnonzero(ext)
            iv = iv_from_region(rows, y)
            text = " & ".join(x.render() for x in sorted((*pattern.conditions, c),
                                                         key=lambda x: x.order))
            if len(rows) + 1e-9 < theta_abs:
                emit(text, len(rows), iv, "pruned-support")
                continue
            if not iv > nu:
                emit(text, len(rows), iv, "pruned-iv")
                continue
            p = closed((*pattern.conditions, c), ext, universe)
            earlier = [x for x in p.conditions if x.attribute < c.attribute]
            if any(x not in pattern.conditions for x in earlier) or p in seen:
                emit(p.key, len(rows), iv, "pruned-leftmost")
                continue
            seen.add(p)
            out.visited.append(p.key)
            child, scored = rule(p)
            ok = occam_test(child.fitted.model,
                            [rule(q)[0].fitted.model for q in parents(p, universe)], scored, d,
                            cfg.metric)
            if ok:
                out.accepted.append(child)
            emit(p.key, len(rows), iv, "accepted" if ok else "rejected-occam")
            if ok or exhaustive:
                later = [x for x in conds[i + 1 :]
                         if isinstance(x, Equals) and x not in p.conditions]
                children = sorted(later + intervals(rows, p), key=lambda x: x.order)
                if children:
                    walk(p, ext, children)

    if conds:
        walk(TOP, np.ones(d.n, dtype=bool), conds)
    return out


def best_subset_oracle(sp):
    """Exhaustive minimizer of the selection objective over nonempty subsets,
    with the documented tie-break (fewer rules, then smallest pattern order keys)."""
    n = len(sp.candidates)
    best = None
    for mask in range(1, 1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        obj = subset_objective(subset, sp)
        rank = (obj, len(subset), tuple(sorted(sp.candidates[i].pattern.order for i in subset)))
        if best is None or rank < best[0]:
            best = (rank, subset)
    return best[1], best[0][0]


def reference_descent(mask, sp):
    """Steepest-descent single-bit flips from one start, keeping the set
    nonempty: local search's descent as it ran one start at a time, the
    referee for the descent of many starts in lockstep.

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


def best_pair_oracle(X, y):
    """Exhaustive best two-feature least-squares subset (with intercept)."""
    best = None
    ones = np.ones(len(y))
    for i, j in combinations(range(X.shape[1]), 2):
        A = np.column_stack([X[:, i], X[:, j], ones])
        beta, *_ = np.linalg.lstsq(A, y, rcond=None)
        r = y - A @ beta
        rss = float(r @ r)
        if best is None or rss < best[0]:
            best = (rss, (i, j))
    return best[1]


def _soft_threshold(x, t):
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def lasso_cd_oracle(Xs, y_c, lam, tol=1e-6, max_sweeps=1000):
    """Row-wise cyclic coordinate descent for (1/2n)||y - X b||^2 + lam ||b||_1
    on standardized columns ((1/n)||x_j||^2 == 1), cold-started from zero; it
    keeps the n-row residual and stops when the largest coefficient change in a
    sweep drops below tol."""
    n, p = Xs.shape
    beta = np.zeros(p)
    resid = y_c.copy()
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(p):
            xj = Xs[:, j]
            rho = (xj @ resid) / n + beta[j]
            new = _soft_threshold(rho, lam)
            delta = new - beta[j]
            if delta != 0.0:
                resid -= delta * xj
                beta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < tol:
            break
    return beta


def omp_path_oracle(Xs, y_c, k):
    """Row-wise greedy forward selection: add the feature most correlated with
    the n-row residual, refit least squares on the active columns; stops early
    on a ~zero residual. Returns the coefficient vector after each step, led by
    the empty model."""
    n, p = Xs.shape
    active = []
    path = [np.zeros(p)]
    resid = y_c.copy()
    scale = float(np.max(np.abs(y_c))) if len(y_c) else 0.0
    for _ in range(min(k, p)):
        if scale == 0.0 or float(np.max(np.abs(resid))) <= 1e-12 * scale:
            break
        corr = np.abs(Xs.T @ resid)
        corr[active] = -1.0
        j = int(np.argmax(corr))
        active.append(j)
        sub, *_ = np.linalg.lstsq(Xs[:, active], y_c, rcond=None)
        resid = y_c - Xs[:, active] @ sub
        beta = np.zeros(p)
        beta[active] = sub
        path.append(beta)
    return path


def reference_vote(pred, columns, n):
    """The columnar vote with one boolean row mask per voter, gathering every
    model input through it. Columns are checked ones: finite float arrays, and
    ``str`` cells as an object array or a ``CodedColumn``."""
    num = np.zeros(n)
    den = np.zeros(n)
    for r, w in pred.voters:
        m = np.broadcast_to(r.pattern.mask(columns), n)
        model = r.fitted.model
        num[m] += w * model.predict({name: columns[name][m] for name in model.coefficients})
        den[m] += w
    covered = den > 0.0
    out = np.empty(n)
    out[covered] = num[covered] / den[covered]
    rest = ~covered
    model = pred.default_rule.fitted.model
    out[rest] = model.predict({name: columns[name][rest] for name in model.coefficients})
    return out
