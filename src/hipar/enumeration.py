"""Hierarchical depth-first enumeration of closed-pattern hybrid rule candidates.

The search is rooted at the empty pattern and extends patterns one condition at
a time in canonical order. Each extension is pruned by support and by
interclass variance (against a percentile of the IVs of the node's interval
conditions, see ``IV_PERCENTILE``), closed over the in-scope condition universe,
deduplicated with the prefix-preserving leftmost-parent check, fitted with the
local LASSO/OMP contest on the fit's one 80/20 split, and accepted only if it
strictly out-predicts every immediate ancestor rule on its holdout rows.
Accepted nodes re-discretize the numerical attributes they leave free and
recurse.

A node's region is its packed row bits. The search's categorical conditions
are stacked once, as one ``patterns.Universe``; a node with interval conditions
of its own closes over that universe plus its intervals, any other node over
the search's universe. A pattern's own conditions need not be in it, since a
closure keeps the conditions it starts from. One AND and popcount over the
universe's bit matrix gives every extension's support, and only frequent
extensions unpack their rows. The closures of an extension and of its
immediate parents run on the same matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .data import DataError, Dataset, holdout_mask
from .discretization import binarize_target, conditions_from_cuts, mdlp_cuts
from .patterns import (
    TOP,
    Condition,
    Equals,
    Interval,
    Pattern,
    Universe,
    bits_rows,
    closure,
    condition_bits,
    condition_tids,
    iv_from_region,
    pattern_bits,
    region,
)
from .regression import FittedRuleModel, best_local_model, evaluate_all

if TYPE_CHECKING:
    from .pipeline import RunConfig

Trace = Callable[[str], None]

# A node's IV threshold is this percentile of the interclass variances of its
# interval conditions, each taken alone on the full table. Every frequent
# extension, categorical or interval, whose region's interclass variance does
# not exceed it is pruned; a node with fewer than 2 intervals prunes none.
IV_PERCENTILE = 85.0


@dataclass(frozen=True)
class HybridRule:
    """A pattern antecedent paired with its fitted local model. The default
    rule is exactly the rule whose pattern is TRUE (empty)."""

    pattern: Pattern
    fitted: FittedRuleModel
    support_abs: int
    support_rel: float

    @property
    def key(self) -> str:
        return self.pattern.key

    @property
    def is_default(self) -> bool:
        return self.pattern.is_empty


@dataclass
class EnumStats:
    visited: int = 0
    pruned_support: int = 0
    pruned_iv: int = 0
    pruned_leftmost: int = 0
    rejected_occam: int = 0
    accepted: int = 0
    visited_keys: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class CandidateSet:
    rules: list[HybridRule]
    default_rule: HybridRule
    stats: EnumStats


def _frequent(count: int, theta_abs: float) -> bool:
    return count + 1e-9 >= theta_abs


def _validate(d: Dataset, cfg: RunConfig) -> None:
    if cfg.theta * d.n < 1.0 - 1e-9:
        raise DataError(f"theta*n = {cfg.theta * d.n:.3g} is below one row")


def _interval_conditions(
    d: Dataset, rows: np.ndarray, attrs: Sequence[str], cfg: RunConfig
) -> list[Interval]:
    """MDLP intervals for the attributes, frequency-filtered and imbalance-guarded.

    An attribute whose filtered partition collapses to a single interval is
    dropped entirely for this node.
    """
    labels = binarize_target(rows, d)
    theta_abs = cfg.theta * d.n
    out: list[Interval] = []
    for cp in mdlp_cuts(attrs, d, labels):
        conds = conditions_from_cuts(cp)
        survivors = [
            c for c in conds
            if _frequent(int(np.bitwise_count(condition_bits(c, d)).sum()), theta_abs)
        ]
        if len(survivors) > 1:
            out.extend(survivors)
    return out


def hipar_init(d: Dataset, cfg: RunConfig) -> list[Condition]:
    """Bootstrap conditions: frequent categorical equalities plus MDLP intervals
    derived on the full dataset, in canonical order. May be empty."""
    _validate(d, cfg)
    theta_abs = cfg.theta * d.n
    conditions: list[Condition] = []
    for attr in d.categorical_features():
        col = d.column(attr)
        counts = np.bincount(col.codes, minlength=len(col.levels)).tolist()
        conditions.extend(
            Equals(attr, v) for v, k in zip(col.levels, counts) if _frequent(k, theta_abs)
        )
    rows = np.arange(d.n)
    conditions.extend(_interval_conditions(d, rows, d.numerical_features(), cfg))
    return sorted(conditions, key=lambda c: c.order)


def leftmost_parent_check(p: Pattern, c_prime: Condition, p_closed: Pattern) -> bool:
    """Prefix-preservation test: every condition of the closure that precedes
    c_prime in canonical order must already belong to p. Requires c_prime in
    p_closed: as its only condition on that attribute, c_prime then follows
    exactly the conditions whose attributes sort first."""
    own = set(p.conditions)
    return all(cond in own for cond in p_closed.conditions
               if cond.attribute < c_prime.attribute)


def occam_test(
    rule: HybridRule,
    parents: Sequence[HybridRule],
    eval_rows: np.ndarray,
    d: Dataset,
    metric: str,
) -> bool:
    """Accept the rule iff its model is strictly better than every parent's
    model on the same evaluation rows, all scored by one residual matrix."""
    child, *others = evaluate_all([rule.fitted.model, *(p.fitted.model for p in parents)],
                                  eval_rows, d, metric).tolist()
    return all(child < e for e in others)


class _Search:
    def __init__(self, d: Dataset, cfg: RunConfig, conds: Sequence[Condition],
                 trace: Trace | None, exhaustive: bool = False):
        self.d = d
        self.test = holdout_mask(d.n, 0.2, cfg.seed)  # the fit's one 20% test set
        self.cfg = cfg
        self.trace = trace
        self.exhaustive = exhaustive
        self.yv = d.column(d.target)
        self.theta_abs = cfg.theta * d.n
        self.stats = EnumStats()
        self.accepted: list[HybridRule] = []
        self._iv1: dict[Condition, float] = {}
        # (rule, its scored rows), keyed by the exact conditions: rendered text can collide
        self._memo: dict[Pattern, tuple[HybridRule, np.ndarray]] = {}
        self._visited: set[Pattern] = set()
        self.universe = Universe([c for c in conds if isinstance(c, Equals)], d)
        self.default_rule = self.rule_for(TOP, rows=np.arange(d.n))[0]

    def iv_single(self, c: Condition) -> float:
        v = self._iv1.get(c)
        if v is None:
            v = iv_from_region(condition_tids(c, self.d), self.yv)
            self._iv1[c] = v
        return v

    def rule_for(self, pattern: Pattern,
                 rows: np.ndarray | None = None) -> tuple[HybridRule, np.ndarray]:
        """The pattern's rule and the rows its contest scored on."""
        found = self._memo.get(pattern)
        if found is not None:
            return found
        if rows is None:
            rows = region(pattern, self.d)
        fitted, scored = best_local_model(rows, self.d, self.cfg.metric, self.test)
        found = HybridRule(pattern, fitted, len(rows), len(rows) / self.d.n), scored
        self._memo[pattern] = found
        return found

    def parent_rules(self, p_closed: Pattern, support: int, universe: Universe) -> list[HybridRule]:
        """Rules of the immediate closed ancestors (closure of the pattern minus
        one condition c); the default rule stands in when nothing else remains.
        A c that the rest implies (the rest's region has the pattern's
        ``support``) yields no proper ancestor and is skipped."""
        parents: dict[Pattern, HybridRule] = {}
        for c in p_closed.conditions:
            sub = p_closed.without(c)
            if sub.is_empty:
                parents[TOP] = self.default_rule
                continue
            if np.bitwise_count(pattern_bits(sub, self.d)).sum() == support:
                continue
            par = closure(sub, self.d, universe)
            parents[par] = self.rule_for(par)[0]
        if not parents:
            parents[TOP] = self.default_rule
        return list(parents.values())

    def emit(self, decision: str, support: int, iv: float, pattern: Pattern,
             c: Condition | None = None) -> None:
        """Trace one decision on ``pattern``, or on ``pattern`` extended by ``c``
        when the extension was pruned before its closure. Renders only when a
        trace is attached."""
        if self.trace is not None:
            rendered = pattern.key if c is None else _render_with(pattern, c)
            self.trace(f"{rendered}\t{support}\t{iv:.6g}\t{decision}")

    def walk(self, pattern: Pattern, inside: np.ndarray, conds: Sequence[Condition]) -> None:
        """Extend ``pattern``, whose region is the packed row bits ``inside``."""
        intervals = [c for c in conds if isinstance(c, Interval)]
        ivs = [self.iv_single(c) for c in intervals]
        # a percentile of fewer than two values is unstable; disable iv pruning
        nu = float(np.percentile(ivs, IV_PERCENTILE)) if len(ivs) >= 2 else -math.inf
        # every extension closes over the search's categorical conditions plus
        # the node's intervals; each c is in that universe. A sibling on a
        # pinned attribute has an empty region and fails the support test.
        universe = Universe([*self.universe, *intervals], self.d) if intervals else self.universe
        ext_bits, supports = universe.extensions(conds, inside)
        for i, c in enumerate(conds):
            if not _frequent(int(supports[i]), self.theta_abs):
                self.stats.pruned_support += 1
                if self.trace is not None:  # an infrequent region's rows and IV are only traced
                    ext = bits_rows(ext_bits[i], self.d.n)
                    self.emit("pruned-support", len(ext), iv_from_region(ext, self.yv), pattern, c)
                continue
            ext = bits_rows(ext_bits[i], self.d.n)
            iv = iv_from_region(ext, self.yv)
            if not iv > nu:
                self.stats.pruned_iv += 1
                self.emit("pruned-iv", len(ext), iv, pattern, c)
                continue
            p_closed = closure(pattern.extend(c), self.d, universe)
            if not leftmost_parent_check(pattern, c, p_closed) or p_closed in self._visited:
                # second clause: independently re-discretized branches can in
                # principle converge on one closed pattern; visit it once
                self.stats.pruned_leftmost += 1
                self.emit("pruned-leftmost", len(ext), iv, p_closed)
                continue
            self.stats.visited += 1
            self._visited.add(p_closed)
            self.stats.visited_keys.append(p_closed.key)
            rule, scored = self.rule_for(p_closed, rows=ext)
            parents = self.parent_rules(p_closed, len(ext), universe)
            ok = occam_test(rule, parents, scored, self.d, self.cfg.metric)
            if ok:
                self.accepted.append(rule)
                self.stats.accepted += 1
                self.emit("accepted", len(ext), iv, p_closed)
            else:
                self.stats.rejected_occam += 1
                self.emit("rejected-occam", len(ext), iv, p_closed)
            if ok or self.exhaustive:
                closed_conds = set(p_closed.conditions)
                child_cat = [
                    cc for cc in conds[i + 1 :] if isinstance(cc, Equals) and cc not in closed_conds
                ]
                free_numeric = [
                    a for a in self.d.numerical_features() if a not in p_closed.attributes()
                ]
                child_num = _interval_conditions(self.d, ext, free_numeric, self.cfg)
                children = sorted(child_cat + child_num, key=lambda c: c.order)
                if children:
                    self.walk(p_closed, ext_bits[i], children)


def _render_with(pattern: Pattern, c: Condition) -> str:
    conds = sorted(pattern.conditions + (c,), key=lambda x: x.order)
    return " & ".join(x.render() for x in conds)


def enumerate_candidates(
    d: Dataset,
    init_conditions: Sequence[Condition],
    cfg: RunConfig,
    trace: Trace | None = None,
    exhaustive: bool = False,
) -> CandidateSet:
    """Run the full candidate enumeration; the default rule is fitted first.

    Reads theta, metric and seed of the run's config. Returns the accepted
    rules (closed, frequent, each strictly beating its evaluated parents), the
    default rule, and per-decision search statistics. ``exhaustive`` also
    explores the subtrees below rules that fail the parent-improvement test
    (the early-stopping heuristic switched off), the reference search of the
    closed-pattern oracle tests.
    """
    _validate(d, cfg)
    conds = sorted(init_conditions, key=lambda c: c.order)
    search = _Search(d, cfg, conds, trace, exhaustive)
    if conds:
        search.walk(TOP, pattern_bits(TOP, d), conds)
    return CandidateSet(rules=search.accepted, default_rule=search.default_rule, stats=search.stats)
