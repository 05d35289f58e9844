import math
import time
from collections import Counter

import numpy as np
import pytest

from hipar import (
    TOP,
    AttributeSchema,
    DataError,
    Dataset,
    EnumStats,
    Equals,
    Interval,
    LinearModel,
    Pattern,
    RunConfig,
    best_local_model,
    build_problem,
    closure,
    enumerate_candidates,
    evaluate,
    hipar_init,
    holdout_mask,
    leftmost_parent_check,
    occam_test,
    region,
    solve,
    support,
)
from hipar import enumeration
from hipar.patterns import Universe, pattern_bits

from .conftest import make_catwide, make_two_segment
from .oracles import closed_frequent_oracle, mdlp_oracle, reference_search

A = Equals("pt", "apartment")
C = Equals("pt", "cottage")
E = Equals("st", "excellent")
G = Equals("st", "good")


# ------------------------------------------------------- leftmost_parent_check


def test_leftmost_closure_adds_only_later_conditions():
    # closure adds G (after C in canonical order): prefix preserved
    assert leftmost_parent_check(TOP, C, Pattern([C, G]))


def test_leftmost_closure_adds_earlier_condition():
    # closure adds A (before E): E's node was reachable from A already
    assert not leftmost_parent_check(TOP, E, Pattern([A, E]))


def test_leftmost_no_closure_growth():
    assert leftmost_parent_check(Pattern([A]), G, Pattern([A, G]))


# ------------------------------------------------------------------ occam_test


def _flat_dataset(n=10):
    return Dataset(
        [AttributeSchema("x", "numerical"), AttributeSchema("y", "numerical", role="target")],
        {"x": np.zeros(n), "y": np.zeros(n)},
    )


def _const_model(value):
    return LinearModel(float(value), {}, "MEAN")


def test_occam_strict_dominance():
    d = _flat_dataset()
    child = _const_model(1.0)  # on y=0 rows the RMSE equals the intercept
    parents = [_const_model(1.5), _const_model(2.0)]
    assert occam_test(child, parents, np.arange(5), d, "rmse")


def test_occam_tie_rejected():
    d = _flat_dataset()
    assert not occam_test(_const_model(1.0), [_const_model(1.0)], np.arange(5), d, "rmse")


def test_occam_single_default_parent():
    d = _flat_dataset()
    assert occam_test(_const_model(2.9), [_const_model(3.0)], np.arange(5), d, "rmse")


# ------------------------------------------------------------------ hipar_init


def test_init_toy_low_threshold(toy):
    conds = hipar_init(toy, RunConfig(theta=1 / 6, seed=0))
    cats = {c for c in conds if isinstance(c, Equals)}
    assert cats == {
        Equals("property-type", "cottage"),
        Equals("property-type", "apartment"),
        Equals("state", "good"),
        Equals("state", "very good"),
        Equals("state", "excellent"),
    }
    # intervals must match the MDLP oracle on the LV/SV median binarization
    intervals = [c for c in conds if isinstance(c, Interval)]
    labels = (toy.column("price") > 335.0).astype(int)
    for attr in ("rooms", "surface"):
        oracle_cuts = mdlp_oracle(toy.column(attr), labels)
        got = sorted(c.lo for c in intervals if c.attribute == attr if c.lo != -math.inf)
        assert got == oracle_cuts
    assert intervals == []  # neither attribute separates the classes


def test_init_threshold_above_all_supports(toy):
    assert hipar_init(toy, RunConfig(theta=0.9, seed=0)) == []


def test_init_no_categorical_columns():
    rng = np.random.default_rng(0)
    n = 40
    x = np.concatenate([rng.uniform(0, 1, n // 2), rng.uniform(10, 11, n // 2)])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    d = Dataset(
        [AttributeSchema("x", "numerical"), AttributeSchema("y", "numerical", role="target")],
        {"x": x, "y": y},
    )
    conds = hipar_init(d, RunConfig(theta=0.25, seed=0))
    assert conds and all(isinstance(c, Interval) for c in conds)


def test_init_imbalance_guard():
    # one interval frequent, its sibling not: the attribute is dropped entirely
    rng = np.random.default_rng(1)
    n = 40
    x = np.concatenate([rng.uniform(0, 1, n - 4), rng.uniform(10, 11, 4)])
    y = np.concatenate([np.zeros(n - 4), np.ones(4)])
    d = Dataset(
        [AttributeSchema("x", "numerical"), AttributeSchema("y", "numerical", role="target")],
        {"x": x, "y": y},
    )
    conds = hipar_init(d, RunConfig(theta=0.25, seed=0))
    assert conds == []


def _categorical_table(levels, seed=0):
    rng = np.random.default_rng(seed)
    col = np.array(levels, dtype=object)
    return Dataset(
        [AttributeSchema("g", "categorical"), AttributeSchema("y", "numerical", role="target")],
        {"g": col, "y": rng.normal(size=len(col))},
    )


def test_init_levels_exact_for_non_ascii_and_trailing_nul():
    levels = ["é"] * 5 + ["日本"] * 4 + ["Z"] * 3 + ["ß"] * 2 + ["a"] * 4 + ["a\x00"] * 3 + ["😀"]
    cells = np.random.default_rng(1).permutation(np.array(levels, dtype=object))
    d = _categorical_table(cells)
    cfg = RunConfig(theta=3 / len(levels), seed=0)
    # the levels np.unique finds on the object column, frequent at theta
    values, counts = np.unique(cells, return_counts=True)
    want = sorted((Equals("g", v) for v, c in zip(values, counts) if c >= 3), key=lambda c: c.order)
    got = hipar_init(d, cfg)
    assert got == want
    assert [c.value for c in got] == ["Z", "a", "a\x00", "é", "日本"]  # value order, not text
    # "a" and "a\x00" stay two levels, each with its own rows
    for c, count in ((Equals("g", "a"), 4), (Equals("g", "a\x00"), 3)):
        assert len(region(Pattern([c]), d)) == count


def test_init_on_a_subset_equals_init_on_a_fresh_table():
    rng = np.random.default_rng(4)
    levels = np.array(["a", "a\x00", "b", "é", "z"], dtype=object)
    n = 150
    g = levels[rng.integers(0, len(levels), n)]
    x = rng.uniform(0.0, 10.0, n)
    schema = [AttributeSchema("g", "categorical"), AttributeSchema("x", "numerical"),
              AttributeSchema("y", "numerical", role="target")]
    y = np.where(x < 5.0, 1.0 + 2.0 * x, 20.0 - x) + rng.normal(0.0, 0.1, n)
    d = Dataset(schema, {"g": g, "x": x, "y": y})
    rows = np.flatnonzero([v != "z" for v in g])
    sub = d.subset(rows)
    fresh = Dataset(schema, {"g": g[rows], "x": x[rows], "y": y[rows]})
    # the subset keeps its parent's table, "z" included, though no row holds it
    assert sub.column("g").levels == tuple(sorted(levels))
    assert fresh.column("g").levels == tuple(sorted(levels[:4]))
    cfg = RunConfig(theta=0.1, seed=0)
    got = hipar_init(sub, cfg)
    assert got == hipar_init(fresh, cfg)
    assert {c.value for c in got if isinstance(c, Equals)} == set(levels[:4])
    for c in got:
        assert region(Pattern([c]), sub).tolist() == region(Pattern([c]), fresh).tolist()


def test_init_validates_config(toy):
    with pytest.raises(DataError):
        hipar_init(toy, RunConfig(theta=0.0, seed=0))
    with pytest.raises(DataError):
        hipar_init(toy, RunConfig(theta=0.05, seed=0))  # theta*n < 1


# --------------------------------------------------------- enumerate_candidates


def test_enumerate_empty_frontier(toy):
    cands = enumerate_candidates(toy, [], RunConfig(theta=1 / 6, seed=0))
    assert cands.rules == []
    assert cands.default_rule.is_default
    assert cands.stats.visited == 0


def test_toy_node_reached_once_from_leftmost_parent(toy):
    # the cottage & excellent node forms exactly once, from parent cottage
    cfg = RunConfig(theta=2 / 6, seed=0)
    conds = hipar_init(toy, cfg)
    lines: list[str] = []
    enumerate_candidates(toy, conds, cfg, trace=lines.append, exhaustive=True)
    key = 'property-type="cottage" & state="excellent"'
    hits = [ln for ln in lines if ln.split("\t")[0] == key]
    assert len(hits) == 1
    assert hits[0].split("\t")[3] == "pruned-support"  # support 1 < 2


def test_trace_format(toy):
    cfg = RunConfig(theta=2 / 6, seed=0)
    conds = hipar_init(toy, cfg)
    lines: list[str] = []
    enumerate_candidates(toy, conds, cfg, trace=lines.append)
    decisions = {"pruned-support", "pruned-iv", "pruned-leftmost", "rejected-occam", "accepted"}
    assert lines
    for ln in lines:
        pattern, supp, iv, decision = ln.split("\t")
        assert pattern
        int(supp)
        float(iv)
        assert decision in decisions


def test_trace_does_not_change_the_search():
    # traced decisions are rendered lazily; the search itself must not differ
    rng = np.random.default_rng(5)
    n = 400
    seg = rng.choice(np.array(["a", "b", "c"], dtype=object), n)
    kind = rng.choice(np.array(["u", "v"], dtype=object), n)
    x, z = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    y = np.where(seg == "a", 1 + 2 * x, np.where(seg == "b", 10 - 3 * x, 4 + z))
    y = y + np.where(kind == "u", 0.0, 2 * z) + rng.normal(0.0, 0.2, n)
    d = Dataset(
        [AttributeSchema("seg", "categorical"), AttributeSchema("kind", "categorical")]
        + [AttributeSchema(a, "numerical") for a in ("x", "z")]
        + [AttributeSchema("y", "numerical", role="target")],
        {"seg": seg, "kind": kind, "x": x, "z": z, "y": y},
    )
    cfg = RunConfig(theta=0.1, seed=0)
    conds = hipar_init(d, cfg)
    lines: list[str] = []
    traced = enumerate_candidates(d, conds, cfg, trace=lines.append, exhaustive=True)
    plain = enumerate_candidates(d, conds, cfg, exhaustive=True)
    assert {ln.split("\t")[3] for ln in lines} >= {"pruned-support", "pruned-iv", "accepted"}

    def summary(cands):
        return [(r.key, r.support_abs, r.fitted.model, r.fitted.holdout_error)
                for r in [cands.default_rule, *cands.rules]]

    assert summary(traced) == summary(plain)
    assert traced.stats == plain.stats


def test_visited_patterns_match_closed_miner_toy(toy):
    # categorical-only view of the toy table (no numeric columns, so no
    # re-discretization inside the search)
    d = Dataset(
        [
            AttributeSchema("property-type", "categorical"),
            AttributeSchema("state", "categorical"),
            AttributeSchema("price", "numerical", role="target"),
        ],
        {name: toy.column(name) for name in ("property-type", "state", "price")},
    )
    cfg = RunConfig(theta=2 / 6, seed=0)
    cats = hipar_init(d, cfg)
    cands = enumerate_candidates(d, cats, cfg, exhaustive=True)
    got = set(cands.stats.visited_keys)
    want = closed_frequent_oracle(d, cats, theta_abs=2.0)
    assert got == want
    assert len(cands.stats.visited_keys) == len(got)  # no pattern fitted twice


def test_visited_patterns_match_closed_miner_random():
    rng = np.random.default_rng(42)
    for trial in range(5):
        n = int(rng.integers(30, 120))
        n_cols = int(rng.integers(2, 5))
        cols = {
            f"c{j}": rng.choice([f"v{k}" for k in range(int(rng.integers(2, 4)))], n).astype(
                object
            )
            for j in range(n_cols)
        }
        cols["y"] = rng.normal(size=n)
        schema = [AttributeSchema(f"c{j}", "categorical") for j in range(n_cols)]
        schema.append(AttributeSchema("y", "numerical", role="target"))
        d = Dataset(schema, cols)
        theta = float(rng.uniform(0.15, 0.35))
        cfg = RunConfig(theta=theta, seed=trial)
        conds = hipar_init(d, cfg)
        cats = [c for c in conds if isinstance(c, Equals)]
        cands = enumerate_candidates(d, cats, cfg, exhaustive=True)
        want = closed_frequent_oracle(d, cats, theta_abs=theta * n)
        assert set(cands.stats.visited_keys) == want


def test_two_segment_rules_enumerated_and_beat_default(two_segment):
    cfg = RunConfig(theta=0.2, seed=3)
    conds = hipar_init(two_segment, cfg)
    cands = enumerate_candidates(two_segment, conds, cfg)
    keys = {r.key for r in cands.rules}
    assert 'segment="A"' in keys and 'segment="B"' in keys
    # oracle: plain least-squares per segment beats the default model there
    default_model = cands.default_rule.fitted.model
    for value in ("A", "B"):
        rows = region(Pattern([Equals("segment", value)]), two_segment)
        x = two_segment.column("x")[rows]
        y = two_segment.column("y")[rows]
        slope, intercept = np.polyfit(x, y, 1)
        seg_rmse = float(np.sqrt(np.mean((y - slope * x - intercept) ** 2)))
        def_rmse = evaluate(default_model, rows, two_segment, "rmse")
        assert seg_rmse < def_rmse


def test_accepted_rules_strictly_beat_parents(two_segment):
    cfg = RunConfig(theta=0.1, seed=5)
    conds = hipar_init(two_segment, cfg)
    cands = enumerate_candidates(two_segment, conds, cfg)
    test = holdout_mask(two_segment.n, 0.2, 5)
    for rule in cands.rules:
        rows = region(rule.pattern, two_segment)
        _, eval_rows = best_local_model(rows, two_segment, "rmse", test)
        child = evaluate(rule.fitted.model, eval_rows, two_segment, "rmse")
        default = evaluate(
            cands.default_rule.fitted.model, eval_rows, two_segment, "rmse"
        )
        if len(rule.pattern) == 1:
            assert child < default


def test_raising_theta_never_increases_visits():
    d = make_two_segment(n=120, seed=11)
    visited = []
    for theta in (0.1, 0.2, 0.3, 0.5):
        cfg = RunConfig(theta=theta, seed=2)
        conds = hipar_init(d, cfg)
        cands = enumerate_candidates(d, conds, cfg, exhaustive=True)
        visited.append(cands.stats.visited)
    assert all(b <= a for a, b in zip(visited, visited[1:]))


def _rediscretized_table():
    """Three categorical and three numerical features. Within each level of seg
    the target steps at its own x (or z) cut, so the search re-discretizes x, z
    and w below the root."""
    rng = np.random.default_rng(7)
    n = 800
    seg = rng.choice(np.array(["a", "b", "c"], dtype=object), n)
    kind = rng.choice(np.array(["u", "v"], dtype=object), n)
    grp = np.where(seg == "c", "w", rng.choice(np.array(["w", "t"], dtype=object), n)).astype(object)
    x, z = rng.uniform(0.0, 1.0, n), np.round(rng.uniform(0.0, 4.0, n), 1)
    w = rng.integers(0, 6, n).astype(float)
    step = np.where(seg == "a", x < 0.3, np.where(seg == "b", x < 0.6, z < 2.0))
    y = np.where(seg == "a", 1.0, np.where(seg == "b", 6.0, 3.0)) + 4.0 * step
    y = y + np.where(kind == "u", 0.0, z) + np.where(grp == "w", w, -w) + rng.normal(0.0, 0.3, n)
    return Dataset(
        [AttributeSchema(a, "categorical") for a in ("seg", "kind", "grp")]
        + [AttributeSchema(a, "numerical") for a in ("x", "z", "w")]
        + [AttributeSchema("y", "numerical", role="target")],
        {"seg": seg, "kind": kind, "grp": grp, "x": x, "z": z, "w": w, "y": y},
    )


# Every decision and every visited pattern of the search on _rediscretized_table
# (theta 0.04, exhaustive), recorded with one 80/20 split per fit and exact
# order keys (intervals on one attribute in bound order); a rewrite of the
# search's set algebra must reproduce them exactly.
PINNED_STATS = dict(visited=47, pruned_support=39, pruned_iv=21, pruned_leftmost=3,
                    rejected_occam=8, accepted=39)
PINNED_VISITED = [
    'grp="t"',
    'grp="t" & kind="u"',
    'grp="t" & kind="u" & seg="a"',
    'grp="t" & kind="u" & seg="a" & w in [0.5,inf)',
    'grp="t" & kind="u" & seg="a" & w in [0.5,inf) & x in [0.300431,inf)',
    'grp="t" & kind="u" & seg="a" & x in [0.300431,inf)',
    'grp="t" & kind="u" & x in [0.300431,inf)',
    'grp="t" & seg="a"',
    'grp="t" & seg="a" & x in [0.302148,inf)',
    'grp="t" & seg="a" & w in [0.5,inf) & x in [0.302148,inf)',
    'grp="t" & x in [0.278878,inf)',
    'grp="t" & x in [0.278878,inf) & z in (-inf,1.55)',
    'grp="t" & x in [0.278878,inf) & z in [1.55,inf)',
    'grp="w"',
    'grp="w" & kind="v"',
    'grp="w" & kind="v" & seg="a"',
    'grp="w" & kind="v" & seg="b"',
    'grp="w" & kind="v" & seg="b" & x in (-inf,0.610438)',
    'grp="w" & kind="v" & seg="c"',
    'grp="w" & kind="v" & seg="c" & w in [0.5,4.5)',
    'grp="w" & kind="v" & seg="c" & z in [0.15,1.85)',
    'grp="w" & kind="v" & seg="c" & w in (-inf,3.5) & z in [0.15,1.85)',
    'grp="w" & kind="v" & seg="c" & z in [1.85,inf)',
    'grp="w" & kind="v" & seg="c" & w in (-inf,3.5) & z in [1.85,inf)',
    'grp="w" & seg="b"',
    'grp="w" & seg="b" & x in (-inf,0.610438)',
    'grp="w" & seg="b" & w in (-inf,3.5) & x in (-inf,0.610438)',
    'grp="w" & seg="c"',
    'grp="w" & seg="c" & z in (-inf,2.35)',
    'grp="w" & seg="c" & w in [0.5,inf) & z in (-inf,2.35)',
    'grp="w" & x in (-inf,0.554307)',
    'kind="u"',
    'kind="u" & seg="a"',
    'kind="u" & seg="a" & x in [0.305464,inf)',
    'kind="u" & seg="b"',
    'kind="u" & seg="b" & x in (-inf,0.606729)',
    'kind="v"',
    'kind="v" & seg="a"',
    'kind="v" & seg="a" & x in [0.296233,inf)',
    'kind="v" & seg="b"',
    'kind="v" & seg="b" & x in (-inf,0.610438)',
    'kind="v" & x in (-inf,0.52467)',
    'seg="a"',
    'seg="a" & x in [0.305464,inf)',
    'seg="b"',
    'seg="b" & x in (-inf,0.656045)',
    'x in (-inf,0.533594)',
]


def test_search_decisions_pinned_on_rediscretized_table():
    d = _rediscretized_table()
    cfg = RunConfig(theta=0.04, seed=3)
    init = hipar_init(d, cfg)
    cands = enumerate_candidates(d, init, cfg, exhaustive=True)
    assert cands.stats == EnumStats(**PINNED_STATS, visited_keys=PINNED_VISITED)
    # the table does what it is for: 18 of the 19 intervals in visited patterns
    # come from re-discretizing below the root
    intervals = {t for k in PINNED_VISITED for t in k.split(" & ") if " in " in t}
    assert len(intervals - {c.render() for c in init}) == 18


# The whole trace of that search, one line per decision as the search emits
# it, with its fields separated by two spaces: the pattern (extended by the
# condition when the extension was pruned before its closure), the support,
# the interclass variance and the decision. A node decides all its extensions
# before it fits any of them, but walks and traces them in this order.
PINNED_TRACE = """\
grp="t"  260  3950.33  accepted
grp="t" & grp="w"  0  0  pruned-support
grp="t" & kind="u"  133  3166.13  accepted
grp="t" & kind="u" & kind="v"  0  0  pruned-support
grp="t" & kind="u" & seg="a"  71  4161.37  accepted
grp="t" & kind="u" & seg="a" & seg="b"  0  0  pruned-support
grp="t" & kind="u" & seg="a" & seg="c"  0  0  pruned-support
grp="t" & kind="u" & seg="a" & w in (-inf,0.5)  9  273.214  pruned-support
grp="t" & kind="u" & seg="a" & w in [0.5,inf)  62  3855.19  rejected-occam
grp="t" & kind="u" & seg="a" & w in [0.5,inf) & x in (-inf,0.300431)  19  409.377  pruned-support
grp="t" & kind="u" & seg="a" & w in [0.5,inf) & x in [0.300431,inf)  43  3594.45  accepted
grp="t" & kind="u" & seg="a" & x in (-inf,0.300431)  20  405.33  pruned-support
grp="t" & kind="u" & seg="a" & x in [0.300431,inf)  51  3871.91  accepted
grp="t" & kind="u" & seg="a" & w in (-inf,2.5) & x in [0.300431,inf)  27  1363.96  pruned-support
grp="t" & kind="u" & seg="a" & w in [2.5,inf) & x in [0.300431,inf)  24  2501.89  pruned-support
grp="t" & kind="u" & seg="b"  62  94.8319  pruned-iv
grp="t" & kind="u" & seg="c"  0  0  pruned-support
grp="t" & kind="u" & x in (-inf,0.300431)  37  202.664  pruned-iv
grp="t" & kind="u" & x in [0.300431,inf)  96  3054.23  accepted
grp="t" & kind="v"  127  539.624  pruned-iv
grp="t" & seg="a"  134  6070.15  accepted
grp="t" & seg="a" & seg="b"  0  0  pruned-support
grp="t" & seg="a" & seg="c"  0  0  pruned-support
grp="t" & seg="a" & x in (-inf,0.302148)  38  395.096  pruned-iv
grp="t" & seg="a" & x in [0.302148,inf)  96  5855.18  accepted
grp="t" & seg="a" & w in (-inf,0.5) & x in [0.302148,inf)  17  387.595  pruned-support
grp="t" & seg="a" & w in [0.5,inf) & x in [0.302148,inf)  79  5451.42  accepted
grp="t" & seg="b"  126  0.89394  pruned-iv
grp="t" & seg="c"  0  0  pruned-support
grp="t" & x in (-inf,0.278878)  72  26.8062  pruned-iv
grp="t" & x in [0.278878,inf)  188  4347.45  accepted
grp="t" & x in [0.278878,inf) & z in (-inf,1.55)  60  2163.8  accepted
grp="t" & x in [0.278878,inf) & z in [1.55,inf)  128  1835.02  rejected-occam
grp="w"  540  3950.33  accepted
grp="w" & kind="u"  282  186.214  pruned-iv
grp="w" & kind="v"  258  2404.05  accepted
grp="w" & kind="v" & seg="a"  67  0.285429  accepted
grp="w" & kind="v" & seg="a" & seg="b"  0  0  pruned-support
grp="w" & kind="v" & seg="a" & seg="c"  0  0  pruned-support
grp="w" & kind="v" & seg="a" & w in (-inf,1.5)  20  185.327  pruned-support
grp="w" & kind="v" & seg="a" & w in [1.5,inf)  47  70.71  pruned-iv
grp="w" & kind="v" & seg="a" & x in (-inf,0.313854)  24  170.323  pruned-support
grp="w" & kind="v" & seg="a" & x in [0.313854,inf)  43  110.837  pruned-iv
grp="w" & kind="v" & seg="b"  58  2175.19  accepted
grp="w" & kind="v" & seg="b" & seg="c"  0  0  pruned-support
grp="w" & kind="v" & seg="b" & x in (-inf,0.610438)  36  2111.43  accepted
grp="w" & kind="v" & seg="b" & w in (-inf,0.5) & x in (-inf,0.610438)  10  293.869  pruned-support
grp="w" & kind="v" & seg="b" & w in [0.5,inf) & x in (-inf,0.610438)  26  1847.15  pruned-support
grp="w" & kind="v" & seg="b" & x in [0.610438,inf)  22  246.668  pruned-support
grp="w" & kind="v" & seg="c"  133  868.612  accepted
grp="w" & kind="v" & seg="c" & w in (-inf,0.5)  27  0.182329  pruned-support
grp="w" & kind="v" & seg="c" & w in [0.5,4.5)  89  576.788  accepted
grp="w" & kind="v" & seg="c" & w in [4.5,inf)  17  537.585  pruned-support
grp="w" & kind="v" & seg="c" & z in [0.15,1.85)  55  834.096  accepted
grp="w" & kind="v" & seg="c" & w in (-inf,3.5) & z in [0.15,1.85)  36  274.542  accepted
grp="w" & kind="v" & seg="c" & w in [3.5,inf) & z in [0.15,1.85)  19  646.87  pruned-support
grp="w" & kind="v" & seg="c" & z in [1.85,inf)  73  143.449  accepted
grp="w" & kind="v" & seg="c" & w in (-inf,3.5) & z in [1.85,inf)  57  37.2945  rejected-occam
grp="w" & kind="v" & seg="c" & w in [3.5,inf) & z in [1.85,inf)  16  179.942  pruned-support
grp="w" & seg="a"  125  221.5  pruned-iv
grp="w" & seg="b"  126  3573.31  accepted
grp="w" & seg="b" & seg="c"  0  0  pruned-support
grp="w" & seg="b" & x in (-inf,0.610438)  81  3687.68  accepted
grp="w" & seg="b" & w in (-inf,3.5) & x in (-inf,0.610438)  55  1710.53  rejected-occam
grp="w" & seg="b" & w in [3.5,inf) & x in (-inf,0.610438)  26  1961.64  pruned-support
grp="w" & seg="b" & x in [0.610438,inf)  45  225.055  pruned-iv
grp="w" & seg="c"  289  739.953  accepted
grp="w" & seg="c" & z in (-inf,2.35)  154  1114.39  accepted
grp="w" & seg="c" & w in (-inf,0.5) & z in (-inf,2.35)  28  0.842141  pruned-support
grp="w" & seg="c" & w in [0.5,inf) & z in (-inf,2.35)  126  1272.21  accepted
grp="w" & seg="c" & z in [2.35,inf)  135  0.0638736  pruned-iv
grp="w" & x in (-inf,0.554307)  298  2559.93  rejected-occam
grp="w" & x in [0.554307,inf)  242  117.379  pruned-iv
kind="u"  415  834.028  accepted
kind="u" & kind="v"  0  0  pruned-support
kind="u" & seg="a"  129  4118.41  accepted
kind="u" & seg="a" & seg="b"  0  0  pruned-support
kind="u" & seg="a" & seg="c"  0  0  pruned-support
kind="u" & seg="a" & x in (-inf,0.305464)  35  221.983  pruned-iv
kind="u" & seg="a" & x in [0.305464,inf)  94  4074.01  rejected-occam
kind="u" & seg="b"  130  368.03  accepted
kind="u" & seg="b" & seg="c"  0  0  pruned-support
kind="u" & seg="b" & x in (-inf,0.606729)  81  982.187  accepted
kind="u" & seg="b" & x in [0.606729,inf)  49  98.2476  pruned-iv
grp="w" & kind="u" & seg="c"  156  27.939  pruned-leftmost
kind="v"  385  834.028  accepted
kind="v" & seg="a"  130  872.452  accepted
kind="v" & seg="a" & seg="b"  0  0  pruned-support
kind="v" & seg="a" & seg="c"  0  0  pruned-support
kind="v" & seg="a" & x in (-inf,0.296233)  41  32.0544  pruned-iv
kind="v" & seg="a" & x in [0.296233,inf)  89  1491.82  accepted
kind="v" & seg="b"  122  1594.07  rejected-occam
kind="v" & seg="b" & seg="c"  0  0  pruned-support
kind="v" & seg="b" & x in (-inf,0.610438)  72  2195.61  accepted
kind="v" & seg="b" & x in [0.610438,inf)  50  15.2031  pruned-iv
grp="w" & kind="v" & seg="c"  133  868.612  pruned-leftmost
kind="v" & x in (-inf,0.52467)  200  1096.42  accepted
kind="v" & x in [0.52467,inf)  185  0.0471772  pruned-iv
seg="a"  259  5435.76  accepted
seg="a" & seg="b"  0  0  pruned-support
seg="a" & seg="c"  0  0  pruned-support
seg="a" & x in (-inf,0.305464)  77  41.7573  pruned-iv
seg="a" & x in [0.305464,inf)  182  6044.14  accepted
seg="b"  252  2128.49  accepted
seg="b" & seg="c"  0  0  pruned-support
seg="b" & x in (-inf,0.656045)  162  3383.04  accepted
seg="b" & x in [0.656045,inf)  90  37.8193  pruned-iv
grp="w" & seg="c"  289  739.953  pruned-leftmost
x in (-inf,0.533594)  436  650.873  rejected-occam
x in [0.533594,inf)  364  650.873  pruned-iv
"""


def test_search_trace_pinned_on_rediscretized_table():
    d = _rediscretized_table()
    cfg = RunConfig(theta=0.04, seed=3)
    lines = []
    enumerate_candidates(d, hipar_init(d, cfg), cfg, trace=lines.append, exhaustive=True)
    assert ["  ".join(line.split("\t")) for line in lines] == PINNED_TRACE.splitlines()


def _summary(cands):
    return [(r.key, r.support_abs, r.fitted) for r in [cands.default_rule, *cands.rules]]


@pytest.mark.parametrize("table,theta,exhaustive", [
    (lambda: make_catwide(2_000, seed=5), 0.02, False),
    (lambda: make_catwide(2_000, seed=5), 0.03, True),
    (_rediscretized_table, 0.04, False),
    (_rediscretized_table, 0.04, True),
], ids=["catwide", "catwide-exhaustive", "rediscretized", "rediscretized-exhaustive"])
def test_traced_and_untraced_searches_agree(table, theta, exhaustive):
    # a node counts its infrequent extensions at once and traces them lazily,
    # and a node with no frequent extension is only counted and traced: neither may
    # change what the search finds or counts, and every decision is traced once
    d = table()
    cfg = RunConfig(theta=theta, seed=3)
    init = hipar_init(d, cfg)
    lines: list[str] = []
    traced = enumerate_candidates(d, init, cfg, trace=lines.append, exhaustive=exhaustive)
    plain = enumerate_candidates(d, init, cfg, exhaustive=exhaustive)
    assert traced.stats == plain.stats
    assert _summary(traced) == _summary(plain)
    s = traced.stats
    decisions = Counter(line.split("\t")[3] for line in lines)
    assert decisions == Counter({"pruned-support": s.pruned_support, "pruned-iv": s.pruned_iv,
                                 "pruned-leftmost": s.pruned_leftmost,
                                 "rejected-occam": s.rejected_occam, "accepted": s.accepted})
    assert s.visited == s.accepted + s.rejected_occam
    visits = [line.split("\t")[0] for line in lines
              if line.endswith(("\taccepted", "\trejected-occam"))]
    assert visits == s.visited_keys


def _random_search_table(rng) -> Dataset:
    """At most 64 rows, 1-3 categorical and 1-2 numerical features. The target
    shifts with c0="v0" and steps at x0 < 0.5 inside it, slopes in x0 outside,
    and shifts with c1="v1", so rules are accepted, rejected and re-discretized."""
    n = int(rng.integers(24, 65))
    n_cat, n_num = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    cols, schema = {}, []
    for j in range(n_cat):
        codes = rng.integers(0, int(rng.integers(2, 4)), n)
        cols[f"c{j}"] = np.array([f"v{v}" for v in codes], dtype=object)
        schema.append(AttributeSchema(f"c{j}", "categorical"))
    for j in range(n_num):
        cols[f"x{j}"] = rng.uniform(0.0, 1.0, n) if j == 0 else rng.integers(0, 6, n).astype(float)
        schema.append(AttributeSchema(f"x{j}", "numerical"))
    seg, x0 = cols["c0"] == "v0", cols["x0"]
    y = np.where(seg, 3.0 + 4.0 * (x0 < 0.5), 2.0 * x0) + rng.normal(0.0, 0.3, n)
    if n_cat > 1:
        y = y + np.where(cols["c1"] == "v1", 2.0, 0.0)
    cols["y"] = y
    schema.append(AttributeSchema("y", "numerical", role="target"))
    return Dataset(schema, cols)


def test_search_equals_the_reference_search_on_random_tables():
    # the referee of the search's array work: 200 random tables, half of them
    # searched exhaustively, must give the reference's trace line for line
    # (visit order and every decision), its visits and its accepted rules
    rng = np.random.default_rng(2024)
    fired: Counter[str] = Counter()
    for k in range(200):
        d = _random_search_table(rng)
        cfg = RunConfig(theta=max(float(rng.uniform(0.1, 0.3)), 1.0 / d.n),
                        seed=int(rng.integers(0, 100)))
        exhaustive = k % 2 == 1
        lines: list[str] = []
        init = hipar_init(d, cfg)
        got = enumerate_candidates(d, init, cfg, trace=lines.append, exhaustive=exhaustive)
        want = reference_search(d, cfg, exhaustive)
        assert lines == want.trace, k
        assert got.stats.visited_keys == want.visited, k
        assert [(r.pattern, r.fitted) for r in got.rules] == [
            (r.pattern, r.fitted) for r in want.accepted], k
        assert got.default_rule.fitted == want.default_rule.fitted, k
        # each counter counts its decision's trace lines, wherever it is counted
        s = got.stats
        decisions = Counter(line.split("\t")[3] for line in lines)
        assert decisions == Counter({"pruned-support": s.pruned_support, "pruned-iv": s.pruned_iv,
                                     "pruned-leftmost": s.pruned_leftmost,
                                     "rejected-occam": s.rejected_occam,
                                     "accepted": s.accepted}), k
        assert s.visited == s.accepted + s.rejected_occam, k
        chosen =[solve(build_problem([*rules, default], cfg.sigma, cfg.omega, d)).chosen
                  for rules, default in ((got.rules, got.default_rule),
                                         (want.accepted, want.default_rule))]
        assert [r.pattern for r in chosen[0]] == [r.pattern for r in chosen[1]], k
        fired.update(line.split("\t")[3] for line in lines)
        own = {c.render() for c in init}
        fired["rediscretized"] += sum(" in " in t and t not in own
                                      for key in got.stats.visited_keys for t in key.split(" & "))
    # the set exercises every rule of the search
    assert all(fired[what] > 0 for what in (
        "pruned-support", "pruned-iv", "pruned-leftmost", "rejected-occam", "accepted",
        "rediscretized")), fired


def test_a_search_fits_each_region_once(monkeypatch):
    # k="only" holds on every row, so the sub-pattern {k="only"} of a closed
    # child {g, k="only"} has the default rule's region, the whole table
    rng = np.random.default_rng(23)
    n = 120
    g = rng.choice(np.array(["a", "b", "c"], dtype=object), n)
    x = rng.uniform(0.0, 1.0, n)
    y = np.where(g == "a", 3.0, 0.0) + 4.0 * (g == "b") * (x >= 0.5) + rng.normal(0.0, 0.3, n)
    d = Dataset([AttributeSchema("g", "categorical"), AttributeSchema("k", "categorical"),
                 AttributeSchema("x", "numerical"),
                 AttributeSchema("y", "numerical", role="target")],
                {"g": g, "k": np.full(n, "only", dtype=object), "x": x, "y": y})
    fitted: list[bytes] = []  # the rows of every region a contest call fits
    contest = enumeration.best_local_models

    def spy(regions, metric):
        fitted.extend(np.asarray(rows).tobytes() for _, rows, _ in regions)
        return contest(regions, metric)

    monkeypatch.setattr(enumeration, "best_local_models", spy)
    cfg = RunConfig(theta=0.1)
    for exhaustive in (False, True):
        fitted.clear()
        enumerate_candidates(d, hipar_init(d, cfg), cfg, exhaustive=exhaustive)
        assert len(fitted) == len(set(fitted)) > 5
        assert np.arange(n).tobytes() in fitted
    # and on the reference search's random tables
    rng = np.random.default_rng(2024)
    for k in range(200):
        d = _random_search_table(rng)
        cfg = RunConfig(theta=max(float(rng.uniform(0.1, 0.3)), 1.0 / d.n),
                        seed=int(rng.integers(0, 100)))
        fitted.clear()
        enumerate_candidates(d, hipar_init(d, cfg), cfg, exhaustive=k % 2 == 1)
        assert len(fitted) == len(set(fitted)), k


def _universes_and_nodes(monkeypatch, d, cfg):
    """Run a search; return every Universe it builds and, per walked node, its
    pattern and interval conditions, in build and walk order."""
    built, nodes = [], []

    class Recorded(Universe):
        def __init__(self, conditions, d):
            super().__init__(conditions, d)
            built.append(self)

    walk = enumeration._Search.walk

    def recorded_walk(self, node):
        nodes.append((node.pattern, [c for c in node.conds if isinstance(c, Interval)]))
        return (yield from walk(self, node))

    monkeypatch.setattr(enumeration, "Universe", Recorded)
    monkeypatch.setattr(enumeration._Search, "walk", recorded_walk)
    enumerate_candidates(d, hipar_init(d, cfg), cfg, exhaustive=True)
    return built, nodes


def test_categorical_universe_built_once_per_search(monkeypatch):
    rng = np.random.default_rng(4)
    n = 120
    cols = {f"c{j}": rng.choice(np.array(["p", "q", "r"], dtype=object), n) for j in range(3)}
    d = Dataset([AttributeSchema(a, "categorical") for a in cols]
                + [AttributeSchema("y", "numerical", role="target")],
                {**cols, "y": rng.normal(size=n)})
    built, nodes = _universes_and_nodes(monkeypatch, d, RunConfig(theta=0.05))
    assert len(nodes) > 10
    assert len(built) == 1


def test_node_universe_adds_only_the_nodes_intervals(monkeypatch):
    cfg = RunConfig(theta=0.04, seed=3)
    built, nodes = _universes_and_nodes(monkeypatch, _rediscretized_table(), cfg)
    cats, *per_node = built
    assert all(isinstance(c, Equals) for c in cats)
    with_intervals = [(p, ivs) for p, ivs in nodes if ivs]
    assert 1 < len(with_intervals) < len(nodes)
    assert len(per_node) == len(with_intervals)
    for u, (pattern, ivs) in zip(per_node, with_intervals):
        assert u.conditions == sorted([*cats, *ivs], key=lambda c: c.order)
        # a pattern's own intervals come from its ancestors, never from its node
        assert not {c for c in pattern.conditions if isinstance(c, Interval)} & set(u)


def test_a_node_fits_and_discretizes_its_children_in_one_call_each(monkeypatch):
    # per walked node: contest calls, MDLP passes and visited children
    frames, stack = [], []
    walk = enumeration._Search.walk

    def recorded_walk(self, node):
        # the node's frame stays on the stack while it waits for its contest
        # call, which the driver makes, so that call counts for the node too
        frames.append([0, 0, 0])
        stack.append(frames[-1])
        try:
            return (yield from walk(self, node))
        finally:
            stack.pop()

    def counted(slot, fn):
        def wrapper(*args, **kwargs):
            stack[-1][slot] += 1  # an IndexError: a call outside every node
            return fn(*args, **kwargs)
        return wrapper

    def trace(line):
        if line.endswith(("\taccepted", "\trejected-occam")):
            stack[-1][2] += 1

    d = _rediscretized_table()
    cfg = RunConfig(theta=0.04, seed=3)
    init = hipar_init(d, cfg)
    monkeypatch.setattr(enumeration._Search, "walk", recorded_walk)
    monkeypatch.setattr(enumeration, "best_local_models", counted(0, enumeration.best_local_models))
    monkeypatch.setattr(enumeration, "mdlp_cuts_many", counted(1, enumeration.mdlp_cuts_many))
    # the default rule rides along with the root's children: no call outside a node
    enumerate_candidates(d, init, cfg, trace=trace, exhaustive=True)
    assert sum(visited for _, _, visited in frames) == PINNED_STATS["visited"]
    with_children = [(contests, passes) for contests, passes, visited in frames if visited]
    assert 10 < len(with_children) < len(frames)
    assert set(with_children) == {(1, 1)}
    assert {(contests, passes) for contests, passes, visited in frames if not visited} <= {
        (0, 0), (1, 1)}


def _ancestor_interval_table():
    """x steps the target at 0.25 and 0.75, so the root cuts it into three
    intervals, and only the middle one clears the root's IV threshold. Level
    z="u" occurs only inside the middle interval, where it shifts the target."""
    rng = np.random.default_rng(3)
    n = 400
    x = rng.permutation(n) / n
    middle = (0.25 <= x) & (x < 0.75)
    u = middle & (rng.permutation(n) % 2 == 0)
    y = np.where(x < 0.25, 10.0, np.where(x >= 0.75, 8.0, np.where(u, 3.0, 0.0)))
    return Dataset(
        [AttributeSchema("x", "numerical"), AttributeSchema("z", "categorical"),
         AttributeSchema("y", "numerical", role="target")],
        {"x": x, "z": np.where(u, "u", "v").astype(object), "y": y + rng.normal(0.0, 0.3, n)},
    )


def test_ancestor_interval_implied_by_a_later_condition():
    # {x in I, z="u"} is visited under {x in I}. That node has no intervals of
    # its own, so it closes over the categorical universe, which lacks x in I.
    # Dropping x in I leaves z="u" with the rule's own region: not a proper
    # ancestor. A same-region parent would tie the rule and reject it.
    d = _ancestor_interval_table()
    cfg = RunConfig(theta=0.1, seed=0)
    init = hipar_init(d, cfg)
    interval = init[1]
    assert interval.render() == "x in [0.24875,0.74875)"
    u, v = Equals("z", "u"), Equals("z", "v")
    p_closed = Pattern([interval, u])
    assert region(Pattern([u]), d).tolist() == region(p_closed, d).tolist()

    cands = enumerate_candidates(d, init, cfg)
    assert cands.stats.visited_keys == [Pattern([interval]).key, p_closed.key,
                                        Pattern([interval, v]).key]
    assert p_closed.key in {r.key for r in cands.rules}

    search = enumeration._Search(d, cfg, init, None)
    assert interval not in search.universe.conditions
    parents = search.parent_regions(p_closed, len(region(p_closed, d)))
    assert parents == [pattern_bits(Pattern([interval]), d).tobytes()]


def test_rediscretized_intervals_filtered_on_full_dataset_support():
    # within a region, intervals that are frequent locally but rare globally
    # are dropped: the support threshold is theta * n of the full dataset
    rng = np.random.default_rng(23)
    seg = np.array(["A"] * 40 + ["B"] * 160, dtype=object)
    x = np.concatenate([np.linspace(0, 1, 40), rng.uniform(5, 6, 160)])
    y = np.concatenate([np.where(np.linspace(0, 1, 40) < 0.5, 0.0, 10.0),
                        rng.normal(50, 1, 160)])
    d = Dataset(
        [
            AttributeSchema("segment", "categorical"),
            AttributeSchema("x", "numerical"),
            AttributeSchema("y", "numerical", role="target"),
        ],
        {"segment": seg, "x": x, "y": y},
    )
    from hipar.enumeration import _regions_intervals

    rows = np.arange(40)  # segment A only; its x-split intervals hold 20 rows each
    rare, = _regions_intervals(d, [(rows, ["x"])], RunConfig(theta=0.15, seed=0))
    frequent, = _regions_intervals(d, [(rows, ["x"])], RunConfig(theta=0.1, seed=0))
    assert rare == []  # 20 rows < 0.15 * 200, though 20 >= 0.15 * 40 within the region
    assert len(frequent) >= 2  # 20 rows >= 0.1 * 200


def test_enumeration_deterministic(two_segment):
    cfg = RunConfig(theta=0.2, seed=9)
    conds = hipar_init(two_segment, cfg)
    a = enumerate_candidates(two_segment, conds, cfg)
    b = enumerate_candidates(two_segment, conds, cfg)
    assert [r.key for r in a.rules] == [r.key for r in b.rules]
    assert a.stats.visited_keys == b.stats.visited_keys
    assert [r.fitted.holdout_error for r in a.rules] == [r.fitted.holdout_error for r in b.rules]
    # closedness implies distinct regions: no key may appear twice
    assert len(set(a.stats.visited_keys)) == len(a.stats.visited_keys)


def test_rule_memo_keeps_patterns_with_equal_rendering_apart():
    # both bounds render as 1e+06; the memo, keyed by region, must tell the
    # patterns apart
    rng = np.random.default_rng(5)
    x = 1e6 + rng.uniform(0.0, 0.4, 200)
    d = Dataset(
        [AttributeSchema("x", "numerical"), AttributeSchema("y", "numerical", role="target")],
        {"x": x, "y": rng.normal(0.0, 1.0, 200)},
    )
    low = Pattern([Interval("x", -math.inf, 1000000.15)])
    high = Pattern([Interval("x", -math.inf, 1000000.25)])
    assert low.key == high.key and low != high
    from hipar.enumeration import _Search

    search = _Search(d, RunConfig(theta=0.05), [], None)
    keys = [pattern_bits(p, d).tobytes() for p in (low, high)]
    assert keys[0] != keys[1]
    enumeration.drive([search.fit_rules(dict.fromkeys(keys))], "rmse")
    rule_low, rule_high = (search.rule(p, key, len(region(p, d)))
                           for p, key in zip((low, high), keys))
    assert rule_high.fitted is not rule_low.fitted
    for rule, p in ((rule_low, low), (rule_high, high)):
        assert rule.pattern == p
        assert rule.fitted == best_local_model(region(p, d), d, "rmse", search.test)[0]
    assert rule_low.support_abs == len(region(low, d))
    assert rule_high.support_abs == len(region(high, d)) > rule_low.support_abs


def test_a_condition_on_the_target_is_rejected(two_segment):
    # a rule y in (q60,inf) => y = f(X) would predict y from its own value
    d = two_segment
    q30, q60 = np.percentile(d.column("y"), [30, 60])
    on_y = [Interval("y", -math.inf, q30), Interval("y", q30, q60), Interval("y", q60, math.inf)]
    segments = [Equals("segment", "A"), Equals("segment", "B")]
    not_a_feature = "condition on 'y', which is not a feature"
    with pytest.raises(DataError, match=not_a_feature):
        enumerate_candidates(d, [*on_y, *segments], RunConfig(theta=0.1))
    for c in on_y:
        with pytest.raises(DataError, match=not_a_feature):
            region(Pattern([c]), d)
        with pytest.raises(DataError, match=not_a_feature):
            support(Pattern([c, segments[0]]), d)
    with pytest.raises(DataError, match=not_a_feature):
        closure(Pattern([segments[0]]), d, [*on_y, *segments])
    # the features' conditions are unaffected
    assert closure(Pattern([segments[0]]), d, segments) == Pattern([segments[0]])
    assert enumerate_candidates(d, segments, RunConfig(theta=0.1)).rules


def _job(d, test, rounds, log, fails=False):
    """A job for ``drive`` that asks for the fit of every row of ``d``
    ``rounds`` times, noting each resumption in ``log``, then returns the
    rounds or raises."""
    for r in range(rounds):
        log.append((rounds, r))
        ((fitted, scored),) = yield [(d, np.arange(d.n), test)]
        assert fitted == best_local_model(np.arange(d.n), d, "rmse", test)[0]
    if fails:
        raise DataError(f"the job of {rounds} rounds failed")
    return rounds


def test_drive_runs_jobs_in_rounds_of_one_contest_call(monkeypatch, two_segment):
    d, other = two_segment, two_segment.subset(range(0, two_segment.n, 2))
    calls = []
    contest = enumeration.best_local_models

    def counted(regions, metric):
        calls.append([t.n for t, _, _ in regions])
        return contest(regions, metric)

    monkeypatch.setattr(enumeration, "best_local_models", counted)
    log: list = []
    tests = [holdout_mask(t.n, 0.2, 1) for t in (d, other)]
    values, seconds = enumeration.drive(
        [_job(d, tests[0], 3, log), _job(other, tests[1], 0, log),
         _job(other, tests[1], 1, log)], "rmse")
    assert values == [3, 0, 1]
    assert calls == [[d.n, other.n], [d.n], [d.n]]
    assert log == [(3, 0), (1, 0), (3, 1), (3, 2)]
    assert len(seconds) == 3 and min(seconds) >= 0.0
    assert enumeration.drive([], "rmse") == ([], [])


def test_drive_splits_its_wall_time_among_the_jobs(two_segment):
    def sleeper(seconds, rounds):
        test = holdout_mask(two_segment.n, 0.2, 0)
        for _ in range(rounds):
            time.sleep(seconds)
            yield [(two_segment, np.arange(two_segment.n), test)]
        time.sleep(seconds)

    start = time.perf_counter()
    _, seconds = enumeration.drive([sleeper(0.02, 2), sleeper(0.01, 0)], "rmse")
    wall = time.perf_counter() - start
    assert seconds[0] >= 0.06 and seconds[1] >= 0.01
    assert sum(seconds) <= wall and sum(seconds) == pytest.approx(wall, abs=2e-3)


def test_drive_raises_the_first_failure_in_job_order(two_segment):
    # job 2 fails in round 2 and job 1 in round 4: job 1's error is raised, as
    # when the jobs run one after the other, and job 3 is not resumed after
    # job 2 fails
    test = holdout_mask(two_segment.n, 0.2, 0)
    log: list = []
    with pytest.raises(DataError, match="the job of 3 rounds failed"):
        enumeration.drive([_job(two_segment, test, 2, log), _job(two_segment, test, 3, log, True),
                           _job(two_segment, test, 1, log, True),
                           _job(two_segment, test, 4, log)], "rmse")
    assert log == [(2, 0), (3, 0), (1, 0), (4, 0), (2, 1), (3, 1), (3, 2)]
