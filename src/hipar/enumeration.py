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

A node works in batches. It first decides every extension that reads no local
model: support, IV, closure and the leftmost-parent check. Then one contest
call (``best_local_models``) fits every child to visit and every parent rule
their Occam tests need that the memo lacks (at the root, the default rule
too), and one MDLP pass (``mdlp_cuts_many``) re-discretizes the children that
will recurse. Only then does it walk the children in order, tracing each
decision as it comes. A rule depends on its region's rows alone, so the
batches change no result. A child that an earlier sibling's subtree reaches
first is still pruned in that order, and the work done for it is dropped.

A node's region is its packed row bits. The search's categorical conditions
are stacked once, as one ``patterns.Universe``; a node with interval conditions
of its own closes over that universe plus its intervals, any other node over
the search's universe. A pattern's own conditions need not be in it, since a
closure keeps the conditions it starts from.

A node makes one pass over its extension bits. One AND and popcount over the
universe's bit matrix gives every extension's region bits and support, and one
vector comparison finds the frequent ones; the others are counted at once and
unpack their rows only to be traced, in their place. Each frequent extension
closes from its own region bits (``Universe.close``), and the region's covering
vector gives the child's categorical extensions by universe row: an equality is
in the closed pattern exactly when it covers the region. Every node, the root
and each recursing child, counts its extensions when it is made (``_Node``,
through ``Universe.extensions``); a node with no frequent extension is only
counted and traced.

A rule's identity in the search is its region, the bytes of its packed row
bits: the memo of fitted models is keyed by them, so each region is fitted
once, whichever pattern asks for it (a visited child, an Occam test's parent,
or the default rule's TRUE). A child's immediate parents are the regions of
its closed pattern without one condition each; they are never closed, and its
Occam test compares the memo's models of those regions, so no parent rule is
built.

The search is a generator that pauses at its one contest call per node
(``_Search.fit_rules``): it yields the (table, rows, test mask) of the regions
it needs and is sent back their fitted models and scored rows. ``drive`` runs
any number of searches in rounds: it resumes each running search up to its
next contest call, then fits every region they wait for with one
``best_local_models`` call. ``enumerate_candidates`` drives one search. A
fit, the search and then the selection (``pipeline._train``), is a job too:
``pipeline.run_hipar`` drives one, and ``pipeline.cross_validate`` drives its
k folds together, with the whole-table fit as the (k+1)-th job when ``hipar
eval`` writes rules (``pipeline.cross_validate_and_fit``), so a round's call
holds regions of up to k+1 tables of one schema. A rule depends on its
region's rows alone, so no search's result depends on the others.
"""

from __future__ import annotations

import math
import time
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .data import DataError, Dataset, holdout_mask
from .discretization import binarize_targets, conditions_from_cuts, mdlp_cuts_many
from .patterns import (
    TOP,
    Condition,
    Equals,
    Interval,
    Pattern,
    Universe,
    bits_rows,
    condition_bits,
    condition_tids,
    iv_from_region,
    pattern_bits,
)
from .regression import FittedRuleModel, LinearModel, best_local_models, evaluate_all

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


def _frequent(count, theta_abs: float):
    """Whether a support count, or each of an array of counts, reaches the
    threshold; exact for counts below 2**53."""
    return count + 1e-9 >= theta_abs


def _validate(d: Dataset, cfg: RunConfig) -> None:
    if cfg.theta * d.n < 1.0 - 1e-9:
        raise DataError(f"theta*n = {cfg.theta * d.n:.3g} is below one row")


def _regions_intervals(
    d: Dataset, regions: Sequence[tuple[np.ndarray, Sequence[str]]], cfg: RunConfig
) -> list[list[Interval]]:
    """MDLP intervals of each (rows, attributes) region, with one binarization
    and one MDLP pass for all of them. Only intervals frequent on the whole
    table are kept, and an attribute whose kept partition collapses to a
    single interval is dropped entirely for that region."""
    labels = binarize_targets([rows for rows, _ in regions], d)
    theta_abs = cfg.theta * d.n
    out: list[list[Interval]] = []
    for cut_sets in mdlp_cuts_many([(attrs, lab) for (_, attrs), lab in zip(regions, labels)], d):
        found: list[Interval] = []
        for cp in cut_sets:
            survivors = [
                c for c in conditions_from_cuts(cp)
                if _frequent(int(np.bitwise_count(condition_bits(c, d)).sum()), theta_abs)
            ]
            if len(survivors) > 1:
                found.extend(survivors)
        out.append(found)
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
    conditions.extend(_regions_intervals(d, [(np.arange(d.n), d.numerical_features())], cfg)[0])
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
    model: LinearModel,
    parent_models: Sequence[LinearModel],
    eval_rows: np.ndarray,
    d: Dataset,
    metric: str,
) -> bool:
    """Accept a rule iff its ``model`` is strictly better than every parent
    rule's model on the same evaluation rows, all scored by one residual
    matrix. The search reads the parents' models from its memo of fitted
    regions; no parent rule is built."""
    child, *others = evaluate_all([model, *parent_models], eval_rows, d, metric).tolist()
    return all(child < e for e in others)


@dataclass
class _Extension:
    """One frequent extension of a search node by its condition ``conds[i]``,
    as the node decides it before any local model is fitted. ``decision`` is
    None for a child to visit, whose closed pattern is ``pattern``; its
    ``rows`` are kept until the node has fitted and re-discretized its
    children, which fills in its ``rule``, its Occam verdict ``ok`` and, when
    it recurses, its ``intervals``. ``covering`` marks the node universe's
    conditions that hold on the whole child region."""

    i: int
    decision: str | None
    support: int = 0
    iv: float = 0.0
    pattern: Pattern | None = None
    rows: np.ndarray | None = None
    covering: np.ndarray | None = None
    rule: HybridRule | None = None
    ok: bool = False
    intervals: list[Interval] = field(default_factory=list)


class _Node:
    """A search node to walk: its pattern, the universe it closes over, and
    its extensions: their conditions ``conds`` in canonical order, their rows
    ``rows`` in the universe, and the packed region bits and support of each,
    counted from the node's region bits ``inside`` when the node is made.
    Every extension closes over the search's categorical conditions plus the
    node's intervals; each extension's condition is in that universe. A
    sibling on a pinned attribute has an empty region and fails the support
    test."""

    def __init__(self, pattern: Pattern, universe: Universe, conds: list[Condition],
                 rows: np.ndarray, inside: np.ndarray):
        self.pattern, self.universe, self.conds, self.rows = pattern, universe, conds, rows
        self.bits, self.supports = universe.extensions(rows, inside)


# What a search yields at its contest call: the (table, rows, test mask) of
# each region it needs fitted. It is sent back their (model, scored rows), as
# ``best_local_models`` gives them.
Request = list[tuple[Dataset, np.ndarray, np.ndarray]]
Reply = list[tuple[FittedRuleModel, np.ndarray]]


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
        # each fitted region's (model, scored rows), keyed by its packed row
        # bits' bytes: a fit depends on the region's rows alone
        self._memo: dict[bytes, tuple[FittedRuleModel, np.ndarray]] = {}
        self._visited: set[Pattern] = set()
        self.top = pattern_bits(TOP, d).tobytes()  # the whole table's region key
        self.universe = Universe([c for c in conds if isinstance(c, Equals)], d)

    def run(self, conds: Sequence[Condition]) -> Generator[Request, Reply, CandidateSet]:
        """The whole search, from the root's extensions ``conds`` (in
        canonical order), as a job for ``drive``. The default rule is fitted
        last, unless the root's batch fitted it."""
        universe = self.node_universe([c for c in conds if isinstance(c, Interval)])
        yield from self.walk(_Node(TOP, universe, list(conds), universe.rows(conds),
                                   pattern_bits(TOP, self.d)))
        yield from self.fit_rules({self.top: None})
        return CandidateSet(rules=self.accepted, default_rule=self.rule(TOP, self.top, self.d.n),
                            stats=self.stats)

    def node_universe(self, intervals: list[Interval]) -> Universe:
        """The universe of a node with these intervals of its own."""
        return Universe([*self.universe, *intervals], self.d) if intervals else self.universe

    def fit_rules(self,
                  regions: dict[bytes, np.ndarray | None]) -> Generator[Request, Reply, None]:
        """Fit the regions the memo lacks with one contest call: yield them to
        the driver and memoize the fits it sends back. ``regions`` maps each
        region's key to its rows, or to None when the rows are to be unpacked
        from the key. A fit depends on its rows alone, so what else is in the
        batch does not matter."""
        todo = [key for key in regions if key not in self._memo]
        if not todo:
            return
        rows = [bits_rows(np.frombuffer(key, np.uint64), self.d.n) if regions[key] is None
                else regions[key] for key in todo]
        fitted = yield [(self.d, r, self.test) for r in rows]
        self._memo.update(zip(todo, fitted))

    def rule(self, pattern: Pattern, key: bytes, support: int) -> HybridRule:
        """The rule of a pattern whose region, of this key and support, is fitted."""
        return HybridRule(pattern, self._memo[key][0], support, support / self.d.n)

    def parent_regions(self, p_closed: Pattern, support: int) -> list[bytes]:
        """The region keys of the immediate ancestors of a closed pattern: of
        the pattern minus one condition c each. A c that the rest implies (the
        rest's region has the pattern's ``support``) yields no proper ancestor
        and is skipped; the whole table, the default rule's region, stands in
        when nothing else remains. A rule is its region, so the ancestors are
        not closed, and the kept regions are distinct: two sub-patterns with
        one region both have the pattern's region."""
        found = []
        for c in p_closed.conditions:
            bits = pattern_bits(p_closed.without(c), self.d)
            if int(np.bitwise_count(bits).sum()) != support:
                found.append(bits.tobytes())
        return found or [self.top]

    def emit(self, decision: str, support: int, iv: float, pattern: Pattern,
             c: Condition | None = None) -> None:
        """Trace one decision on ``pattern``, or on ``pattern`` extended by ``c``
        when the extension was pruned before its closure. Renders only when a
        trace is attached."""
        if self.trace is not None:
            rendered = pattern.key if c is None else _render_with(pattern, c)
            self.trace(f"{rendered}\t{support}\t{iv:.6g}\t{decision}")

    def emit_infrequent(self, node: _Node, start: int, stop: int) -> None:
        """Trace the node's extensions ``start`` to ``stop``, all infrequent,
        as support-pruned. An infrequent region's rows and IV are only traced."""
        if self.trace is not None:
            for i in range(start, stop):
                ext = bits_rows(node.bits[i], self.d.n)
                self.emit("pruned-support", len(ext), iv_from_region(ext, self.yv), node.pattern,
                          node.conds[i])

    def walk(self, node: _Node) -> Generator[Request, Reply, None]:
        """Extend the node's pattern by each of its extensions, whose region
        bits and supports the node has counted.

        One comparison finds the frequent extensions; the others are counted
        at once, and a node with none is only traced. The node decides its
        frequent extensions first (``decide``); IV, closure and the
        leftmost-parent check read no local model. One contest call then fits
        the children to visit and the parent rules their Occam tests need,
        and one MDLP pass re-discretizes the children that will recurse
        (``prepare``). Only then are the children walked, in order, each
        infrequent extension traced in its place."""
        frequent = np.flatnonzero(_frequent(node.supports, self.theta_abs))
        self.stats.pruned_support += len(node.conds) - len(frequent)
        if not len(frequent):
            self.emit_infrequent(node, 0, len(node.conds))
            return
        steps = self.decide(node, frequent)
        yield from self.prepare(node, steps)
        done = 0
        for step in steps:
            self.emit_infrequent(node, done, step.i)
            done = step.i + 1
            if step.decision == "pruned-iv":
                self.stats.pruned_iv += 1
                self.emit("pruned-iv", step.support, step.iv, node.pattern, node.conds[step.i])
                continue
            p_closed = step.pattern
            if step.decision == "pruned-leftmost" or p_closed in self._visited:
                # second clause: independently re-discretized branches, or an
                # earlier sibling's subtree, can in principle reach one closed
                # pattern; visit it once and drop the work done for it here
                self.stats.pruned_leftmost += 1
                self.emit("pruned-leftmost", step.support, step.iv, p_closed)
                continue
            self.stats.visited += 1
            self._visited.add(p_closed)
            self.stats.visited_keys.append(p_closed.key)
            if step.ok:
                self.accepted.append(step.rule)
                self.stats.accepted += 1
                self.emit("accepted", step.support, step.iv, p_closed)
            else:
                self.stats.rejected_occam += 1
                self.emit("rejected-occam", step.support, step.iv, p_closed)
            if step.ok or self.exhaustive:
                yield from self.descend(node, step)
        self.emit_infrequent(node, done, len(node.conds))

    def descend(self, node: _Node, step: _Extension) -> Generator[Request, Reply, None]:
        """Walk a recursing child of the node. Its extensions are the node's
        later equalities outside its closed pattern, which are those that do
        not cover the child's region, and its own intervals. A child without
        intervals of its own closes over the search's universe, where the
        node's rows serve when the node closes over it too."""
        later = node.rows[step.i + 1 :]
        later = later[node.universe.equals[later] & ~step.covering[later]]
        conds = [node.universe.conditions[r] for r in later.tolist()]
        universe = self.node_universe(step.intervals)
        if universe is not node.universe:  # the equalities are in canonical order already
            conds = sorted([*conds, *step.intervals], key=lambda c: c.order)
            later = universe.rows(conds)
        yield from self.walk(_Node(step.pattern, universe, conds, later, node.bits[step.i]))

    def decide(self, node: _Node, frequent: np.ndarray) -> list[_Extension]:
        """The decisions that read no local model of the node's ``frequent``
        extensions, in order. Each closes from its own region bits."""
        ivs = [iv_from_region(condition_tids(c, self.d), self.yv)
               for c in node.conds if isinstance(c, Interval)]
        # a percentile of fewer than two values is unstable; disable iv pruning
        nu = float(np.percentile(ivs, IV_PERCENTILE)) if len(ivs) >= 2 else -math.inf
        steps: list[_Extension] = []
        for i in frequent.tolist():
            c = node.conds[i]
            ext = bits_rows(node.bits[i], self.d.n)
            iv = iv_from_region(ext, self.yv)
            if not iv > nu:
                steps.append(_Extension(i, "pruned-iv", len(ext), iv))
                continue
            p_closed, covering = node.universe.close((*node.pattern.conditions, c), node.bits[i])
            if leftmost_parent_check(node.pattern, c, p_closed) and p_closed not in self._visited:
                steps.append(_Extension(i, None, len(ext), iv, p_closed, ext, covering))
            else:
                steps.append(_Extension(i, "pruned-leftmost", len(ext), iv, p_closed))
        return steps

    def prepare(self, node: _Node, steps: list[_Extension]) -> Generator[Request, Reply, None]:
        """Fit the children to visit and the parent regions the memo lacks
        with one contest call, run their Occam tests on the memo's models,
        and re-discretize the children that will recurse with one MDLP pass."""
        visits = [s for s in steps if s.decision is None]
        if not visits:
            return
        keys = [node.bits[s.i].tobytes() for s in visits]
        parents = [self.parent_regions(s.pattern, s.support) for s in visits]
        regions: dict[bytes, np.ndarray | None] = {self.top: None}  # the root fits the default rule
        regions.update(zip(keys, (s.rows for s in visits)))
        regions.update((key, None) for found in parents for key in found if key not in regions)
        yield from self.fit_rules(regions)
        for s, key, found in zip(visits, keys, parents):
            s.rule = self.rule(s.pattern, key, s.support)
            s.ok = occam_test(s.rule.fitted.model, [self._memo[k][0].model for k in found],
                              self._memo[key][1], self.d, self.cfg.metric)
        recurse = [s for s in visits if s.ok or self.exhaustive]
        numeric = self.d.numerical_features()
        free = [(s.rows, [a for a in numeric if a not in s.pattern.attributes()]) for s in recurse]
        for s, found in zip(recurse, _regions_intervals(self.d, free, self.cfg)):
            s.intervals = found
        for s in visits:
            s.rows = None


def drive(jobs: Sequence[Generator[Request, Reply, object]],
          metric: str) -> tuple[list, list[float]]:
    """Run the jobs to their ends in rounds, with one contest call per round.

    A job (a search, ``search_candidates``, or a fit that runs one and then
    selects, ``pipeline._train``) is a generator that pauses at its contest
    call: it yields a ``Request`` and is sent back its ``Reply``. A round
    resumes every running job in order, each up to its next request or its
    end, then fits every region they asked for with one ``best_local_models``
    call. The tables of one drive share one
    schema. A region's fit depends on its rows alone, so a job gets what it
    would get alone.

    Returns each job's return value and its seconds: the wall time of its own
    steps plus its share of each contest call, split by the regions it put
    in. They add up to the wall time of the drive; a caller that reports
    only some jobs' seconds (the folds of ``pipeline.cross_validate_and_fit``,
    not its whole-table fit) reports less than that. A job that raises stops,
    and so do the jobs after it; once the jobs before it have ended, the
    first failure in job order is raised, as when the jobs run one after
    the other."""
    values: list = [None] * len(jobs)
    seconds = [0.0] * len(jobs)
    failure: BaseException | None = None
    replies: dict[int, Reply | None] = dict.fromkeys(range(len(jobs)))
    clock = time.perf_counter()
    while replies:
        asks: dict[int, Request] = {}
        for i, reply in replies.items():
            try:
                asks[i] = jobs[i].send(reply)
            except StopIteration as stop:
                values[i] = stop.value
            except Exception as exc:  # the jobs after it are dropped
                failure = exc
                break
            finally:
                now = time.perf_counter()
                seconds[i] += now - clock
                clock = now
        asked = [one for ask in asks.values() for one in ask]
        fitted = best_local_models(asked, metric) if asked else []
        now = time.perf_counter()
        share, clock = (now - clock) / max(len(asked), 1), now
        replies, at = {}, 0
        for i, ask in asks.items():
            replies[i] = fitted[at : at + len(ask)]
            at += len(ask)
            seconds[i] += share * len(ask)
    if failure is not None:
        raise failure
    return values, seconds


def _render_with(pattern: Pattern, c: Condition) -> str:
    conds = sorted(pattern.conditions + (c,), key=lambda x: x.order)
    return " & ".join(x.render() for x in conds)


def search_candidates(
    d: Dataset,
    init_conditions: Sequence[Condition],
    cfg: RunConfig,
    trace: Trace | None = None,
    exhaustive: bool = False,
) -> Generator[Request, Reply, CandidateSet]:
    """``enumerate_candidates`` as a job for ``drive``, which fits the local
    models it asks for; the table and config are checked when it starts."""
    _validate(d, cfg)
    conds = sorted(init_conditions, key=lambda c: c.order)
    return (yield from _Search(d, cfg, conds, trace, exhaustive).run(conds))


def enumerate_candidates(
    d: Dataset,
    init_conditions: Sequence[Condition],
    cfg: RunConfig,
    trace: Trace | None = None,
    exhaustive: bool = False,
) -> CandidateSet:
    """Run the full candidate enumeration; the default rule is fitted too.

    Reads theta, metric and seed of the run's config. Returns the accepted
    rules (closed, frequent, each strictly beating its evaluated parents), the
    default rule, and per-decision search statistics. ``exhaustive`` also
    explores the subtrees below rules that fail the parent-improvement test
    (the early-stopping heuristic switched off), the reference search of the
    closed-pattern oracle tests. One search, driven alone.
    """
    (found,), _ = drive([search_candidates(d, init_conditions, cfg, trace, exhaustive)],
                        cfg.metric)
    return found
