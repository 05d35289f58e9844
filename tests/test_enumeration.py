import math

import numpy as np
import pytest

from hipar import (
    TOP,
    AttributeSchema,
    DataError,
    Dataset,
    EnumConfig,
    EnumStats,
    Equals,
    FittedRuleModel,
    HybridRule,
    Interval,
    LinearModel,
    Pattern,
    enumerate_candidates,
    evaluate,
    hipar_init,
    leftmost_parent_check,
    occam_test,
    region,
)
from hipar import enumeration
from hipar.patterns import Universe

from .conftest import make_two_segment
from .oracles import closed_frequent_oracle, mdlp_oracle

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


def _const_rule(pattern, value, is_default=False):
    model = LinearModel(float(value), {}, "MEAN")
    fitted = FittedRuleModel(model, value, value, "rmse", np.arange(2))
    return HybridRule(pattern, fitted, 5, 0.5, is_default=is_default)


def test_occam_strict_dominance():
    d = _flat_dataset()
    child = _const_rule(Pattern([A]), 1.0)  # on y=0 rows the RMSE equals the intercept
    parents = [_const_rule(TOP, 1.5, True), _const_rule(Pattern([G]), 2.0)]
    assert occam_test(child, parents, np.arange(5), d, "y", "rmse")


def test_occam_tie_rejected():
    d = _flat_dataset()
    child = _const_rule(Pattern([A]), 1.0)
    assert not occam_test(child, [_const_rule(TOP, 1.0, True)], np.arange(5), d, "y", "rmse")


def test_occam_single_default_parent():
    d = _flat_dataset()
    child = _const_rule(Pattern([A]), 2.9)
    assert occam_test(child, [_const_rule(TOP, 3.0, True)], np.arange(5), d, "y", "rmse")


# ------------------------------------------------------------------ hipar_init


def test_init_toy_low_threshold(toy):
    conds = hipar_init(toy, "price", EnumConfig(theta=1 / 6, seed=0))
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
    assert hipar_init(toy, "price", EnumConfig(theta=0.9, seed=0)) == []


def test_init_no_categorical_columns():
    rng = np.random.default_rng(0)
    n = 40
    x = np.concatenate([rng.uniform(0, 1, n // 2), rng.uniform(10, 11, n // 2)])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    d = Dataset(
        [AttributeSchema("x", "numerical"), AttributeSchema("y", "numerical", role="target")],
        {"x": x, "y": y},
    )
    conds = hipar_init(d, "y", EnumConfig(theta=0.25, seed=0))
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
    conds = hipar_init(d, "y", EnumConfig(theta=0.25, seed=0))
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
    cfg = EnumConfig(theta=3 / len(levels), seed=0)
    # the levels np.unique finds on the object column, frequent at theta
    values, counts = np.unique(cells, return_counts=True)
    want = sorted((Equals("g", v) for v, c in zip(values, counts) if c >= 3), key=lambda c: c.order)
    got = hipar_init(d, "y", cfg)
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
    cfg = EnumConfig(theta=0.1, seed=0)
    got = hipar_init(sub, "y", cfg)
    assert got == hipar_init(fresh, "y", cfg)
    assert {c.value for c in got if isinstance(c, Equals)} == set(levels[:4])
    for c in got:
        assert region(Pattern([c]), sub).tolist() == region(Pattern([c]), fresh).tolist()


def test_init_validates_config(toy):
    with pytest.raises(DataError):
        hipar_init(toy, "price", EnumConfig(theta=0.0, seed=0))
    with pytest.raises(DataError):
        hipar_init(toy, "price", EnumConfig(theta=0.05, seed=0))  # theta*n < 1
    with pytest.raises(DataError):
        hipar_init(toy, "rooms", EnumConfig(theta=0.5, seed=0))  # y must be the target


# --------------------------------------------------------- enumerate_candidates


def test_enumerate_empty_frontier(toy):
    cands = enumerate_candidates(toy, "price", [], EnumConfig(theta=1 / 6, seed=0))
    assert cands.rules == []
    assert cands.default_rule.is_default
    assert cands.stats.visited == 0


def test_toy_node_reached_once_from_leftmost_parent(toy):
    # the cottage & excellent node forms exactly once, from parent cottage
    cfg = EnumConfig(theta=2 / 6, seed=0, exhaustive=True)
    conds = hipar_init(toy, "price", cfg)
    lines: list[str] = []
    enumerate_candidates(toy, "price", conds, cfg, trace=lines.append)
    key = 'property-type="cottage" & state="excellent"'
    hits = [ln for ln in lines if ln.split("\t")[0] == key]
    assert len(hits) == 1
    assert hits[0].split("\t")[3] == "pruned-support"  # support 1 < 2


def test_trace_format(toy):
    cfg = EnumConfig(theta=2 / 6, seed=0)
    conds = hipar_init(toy, "price", cfg)
    lines: list[str] = []
    enumerate_candidates(toy, "price", conds, cfg, trace=lines.append)
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
    cfg = EnumConfig(theta=0.1, seed=0, exhaustive=True)
    conds = hipar_init(d, "y", cfg)
    lines: list[str] = []
    traced = enumerate_candidates(d, "y", conds, cfg, trace=lines.append)
    plain = enumerate_candidates(d, "y", conds, cfg)
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
    cfg = EnumConfig(theta=2 / 6, seed=0, exhaustive=True)
    cats = hipar_init(d, "price", cfg)
    cands = enumerate_candidates(d, "price", cats, cfg)
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
        cfg = EnumConfig(theta=theta, seed=trial, exhaustive=True)
        conds = hipar_init(d, "y", cfg)
        cats = [c for c in conds if isinstance(c, Equals)]
        cands = enumerate_candidates(d, "y", cats, cfg)
        want = closed_frequent_oracle(d, cats, theta_abs=theta * n)
        assert set(cands.stats.visited_keys) == want


def test_two_segment_rules_enumerated_and_beat_default(two_segment):
    cfg = EnumConfig(theta=0.2, seed=3)
    conds = hipar_init(two_segment, "y", cfg)
    cands = enumerate_candidates(two_segment, "y", conds, cfg)
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
        def_rmse = evaluate(default_model, rows, two_segment, "y", "rmse")
        assert seg_rmse < def_rmse


def test_accepted_rules_strictly_beat_parents(two_segment):
    cfg = EnumConfig(theta=0.1, seed=5)
    conds = hipar_init(two_segment, "y", cfg)
    cands = enumerate_candidates(two_segment, "y", conds, cfg)
    for rule in cands.rules:
        eval_rows = rule.fitted.holdout_rows
        child = evaluate(rule.fitted.model, eval_rows, two_segment, "y", "rmse")
        default = evaluate(
            cands.default_rule.fitted.model, eval_rows, two_segment, "y", "rmse"
        )
        if len(rule.pattern) == 1:
            assert child < default


def test_raising_theta_never_increases_visits():
    d = make_two_segment(n=120, seed=11)
    visited = []
    for theta in (0.1, 0.2, 0.3, 0.5):
        cfg = EnumConfig(theta=theta, seed=2, exhaustive=True)
        conds = hipar_init(d, "y", cfg)
        cands = enumerate_candidates(d, "y", conds, cfg)
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
    'grp="t" & kind="u" & seg="a" & w in (0.5,inf)',
    'grp="t" & kind="u" & seg="a" & w in (0.5,inf) & x in (0.300431,inf)',
    'grp="t" & kind="u" & seg="a" & x in (0.300431,inf)',
    'grp="t" & kind="u" & x in (0.300431,inf)',
    'grp="t" & seg="a"',
    'grp="t" & seg="a" & x in (0.302148,inf)',
    'grp="t" & seg="a" & w in (0.5,inf) & x in (0.302148,inf)',
    'grp="t" & x in (0.278878,inf)',
    'grp="t" & x in (0.278878,inf) & z in (-inf,1.55)',
    'grp="t" & x in (0.278878,inf) & z in (1.55,inf)',
    'grp="w"',
    'grp="w" & kind="v"',
    'grp="w" & kind="v" & seg="a"',
    'grp="w" & kind="v" & seg="b"',
    'grp="w" & kind="v" & seg="b" & x in (-inf,0.610438)',
    'grp="w" & kind="v" & seg="c"',
    'grp="w" & kind="v" & seg="c" & w in [0.5,4.5]',
    'grp="w" & kind="v" & seg="c" & z in [0.15,1.85]',
    'grp="w" & kind="v" & seg="c" & w in (-inf,3.5) & z in [0.15,1.85]',
    'grp="w" & kind="v" & seg="c" & z in (1.85,inf)',
    'grp="w" & kind="v" & seg="c" & w in (-inf,3.5) & z in (1.85,inf)',
    'grp="w" & seg="b"',
    'grp="w" & seg="b" & x in (-inf,0.610438)',
    'grp="w" & seg="b" & w in (-inf,3.5) & x in (-inf,0.610438)',
    'grp="w" & seg="c"',
    'grp="w" & seg="c" & z in (-inf,2.35)',
    'grp="w" & seg="c" & w in (0.5,inf) & z in (-inf,2.35)',
    'grp="w" & x in (-inf,0.554307)',
    'kind="u"',
    'kind="u" & seg="a"',
    'kind="u" & seg="a" & x in (0.305464,inf)',
    'kind="u" & seg="b"',
    'kind="u" & seg="b" & x in (-inf,0.606729)',
    'kind="v"',
    'kind="v" & seg="a"',
    'kind="v" & seg="a" & x in (0.296233,inf)',
    'kind="v" & seg="b"',
    'kind="v" & seg="b" & x in (-inf,0.610438)',
    'kind="v" & x in (-inf,0.52467)',
    'seg="a"',
    'seg="a" & x in (0.305464,inf)',
    'seg="b"',
    'seg="b" & x in (-inf,0.656045)',
    'x in (-inf,0.533594)',
]


def test_search_decisions_pinned_on_rediscretized_table():
    d = _rediscretized_table()
    cfg = EnumConfig(theta=0.04, seed=3, exhaustive=True)
    init = hipar_init(d, "y", cfg)
    cands = enumerate_candidates(d, "y", init, cfg)
    assert cands.stats == EnumStats(**PINNED_STATS, visited_keys=PINNED_VISITED)
    # the table does what it is for: 18 of the 19 intervals in visited patterns
    # come from re-discretizing below the root
    intervals = {t for k in PINNED_VISITED for t in k.split(" & ") if " in " in t}
    assert len(intervals - {c.render() for c in init}) == 18


def _universes_and_nodes(monkeypatch, d, cfg):
    """Run a search; return every Universe it builds and, per walked node, its
    pattern and interval conditions, in build and walk order."""
    built, nodes = [], []

    class Recorded(Universe):
        def __init__(self, conditions, d):
            super().__init__(conditions, d)
            built.append(self)

    walk = enumeration._Search.walk

    def recorded_walk(self, pattern, inside, conds):
        nodes.append((pattern, [c for c in conds if isinstance(c, Interval)]))
        walk(self, pattern, inside, conds)

    monkeypatch.setattr(enumeration, "Universe", Recorded)
    monkeypatch.setattr(enumeration._Search, "walk", recorded_walk)
    enumerate_candidates(d, "y", hipar_init(d, "y", cfg), cfg)
    return built, nodes


def test_categorical_universe_built_once_per_search(monkeypatch):
    rng = np.random.default_rng(4)
    n = 120
    cols = {f"c{j}": rng.choice(np.array(["p", "q", "r"], dtype=object), n) for j in range(3)}
    d = Dataset([AttributeSchema(a, "categorical") for a in cols]
                + [AttributeSchema("y", "numerical", role="target")],
                {**cols, "y": rng.normal(size=n)})
    built, nodes = _universes_and_nodes(monkeypatch, d, EnumConfig(theta=0.05, exhaustive=True))
    assert len(nodes) > 10
    assert len(built) == 1


def test_node_universe_adds_only_the_nodes_intervals(monkeypatch):
    cfg = EnumConfig(theta=0.04, seed=3, exhaustive=True)
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
    cfg = EnumConfig(theta=0.1, seed=0)
    init = hipar_init(d, "y", cfg)
    interval = init[1]
    assert interval.render() == "x in [0.24875,0.74875]"
    u, v = Equals("z", "u"), Equals("z", "v")
    p_closed = Pattern([interval, u])
    assert region(Pattern([u]), d).tolist() == region(p_closed, d).tolist()

    cands = enumerate_candidates(d, "y", init, cfg)
    assert cands.stats.visited_keys == [Pattern([interval]).key, p_closed.key,
                                        Pattern([interval, v]).key]
    assert p_closed.key in {r.key for r in cands.rules}

    search = enumeration._Search(d, "y", cfg, init, None)
    assert interval not in search.universe.conditions
    parents = search.parent_rules(p_closed, len(region(p_closed, d)), search.universe)
    assert [r.pattern for r in parents] == [Pattern([interval])]


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
    from hipar.enumeration import _interval_conditions

    rows = np.arange(40)  # segment A only; its x-split intervals hold 20 rows each
    rare = _interval_conditions(d, "y", rows, ["x"], EnumConfig(theta=0.15, seed=0))
    frequent = _interval_conditions(d, "y", rows, ["x"], EnumConfig(theta=0.1, seed=0))
    assert rare == []  # 20 rows < 0.15 * 200, though 20 >= 0.15 * 40 within the region
    assert len(frequent) >= 2  # 20 rows >= 0.1 * 200


def test_enumeration_deterministic(two_segment):
    cfg = EnumConfig(theta=0.2, seed=9)
    conds = hipar_init(two_segment, "y", cfg)
    a = enumerate_candidates(two_segment, "y", conds, cfg)
    b = enumerate_candidates(two_segment, "y", conds, cfg)
    assert [r.key for r in a.rules] == [r.key for r in b.rules]
    assert a.stats.visited_keys == b.stats.visited_keys
    assert [r.fitted.holdout_error for r in a.rules] == [r.fitted.holdout_error for r in b.rules]
    # closedness implies distinct regions: no key may appear twice
    assert len(set(a.stats.visited_keys)) == len(a.stats.visited_keys)


def test_rule_memo_keeps_patterns_with_equal_rendering_apart():
    # both bounds render as 1e+06; the memo must tell the patterns apart
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

    search = _Search(d, "y", EnumConfig(theta=0.05), [], None)
    rule_low = search.rule_for(low)
    rule_high = search.rule_for(high)
    assert rule_high is not rule_low
    assert rule_high.pattern == high
    assert rule_low.support_abs == len(region(low, d))
    assert rule_high.support_abs == len(region(high, d)) > rule_low.support_abs
