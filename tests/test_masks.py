"""Condition masks: the mask-based kernels against brute-force per-row
definitions, and the per-dataset mask memo (isolated and read-only)."""

import math

import numpy as np
import pytest

from hipar import (
    AttributeSchema,
    Dataset,
    Equals,
    FittedRuleModel,
    HybridRule,
    Interval,
    LinearModel,
    Pattern,
    build_problem,
    closure,
    condition_tids,
    region,
    support,
)
from hipar.patterns import condition_mask

LEVELS = ("a", "b", "c")


def _mixed(rng, n):
    """Two categorical and two numerical features (with ties) plus a target."""
    return Dataset(
        [
            AttributeSchema("g", "categorical"),
            AttributeSchema("h", "categorical"),
            AttributeSchema("u", "numerical"),
            AttributeSchema("v", "numerical"),
            AttributeSchema("y", "numerical", role="target"),
        ],
        {
            "g": rng.choice(LEVELS, n).astype(object),
            "h": rng.choice(LEVELS[:2], n).astype(object),
            "u": np.round(rng.uniform(0.0, 10.0, n), 1),
            "v": rng.integers(0, 5, n).astype(float),
            "y": rng.normal(0.0, 1.0, n),
        },
    )


def _conditions(rng):
    """Equalities on three levels per attribute (h never takes "c"), and
    intervals with unbounded sides."""
    out = [Equals(a, v) for a in ("g", "h") for v in LEVELS]
    for attr, top in (("u", 10.0), ("v", 5.0)):
        a, b = sorted(rng.uniform(0.0, top, 2))
        out += [Interval(attr, -math.inf, a), Interval(attr, a, b), Interval(attr, b, math.inf)]
    return out


def _holds(c, row):
    if isinstance(c, Equals):
        return row[c.attribute] == c.value
    return c.lo <= row[c.attribute] < c.hi


def _brute_region(p, d):
    rows = [d.row(i) for i in range(d.n)]
    return [i for i, row in enumerate(rows) if all(_holds(c, row) for c in p.conditions)]


def _brute_closure(p, d, universe):
    rows = [d.row(i) for i in _brute_region(p, d)]
    taken = {c.attribute: c for c in p.conditions}
    for c in sorted(universe, key=lambda c: (c.attribute, c.render())):
        if c.attribute not in taken and all(_holds(c, row) for row in rows):
            taken[c.attribute] = c
    return Pattern(taken.values())


def _random_pattern(rng, conds):
    by_attr = {}
    for i in rng.permutation(len(conds))[: int(rng.integers(0, 4))]:
        by_attr.setdefault(conds[i].attribute, conds[i])
    return Pattern(by_attr.values())


def _check_region_and_closure(rng, d, conds, patterns):
    for _ in range(patterns):
        p = _random_pattern(rng, conds)
        want = _brute_region(p, d)
        assert region(p, d).tolist() == want
        assert support(p, d) == (len(want), len(want) / d.n)
        if want:
            assert closure(p, d, conds) == _brute_closure(p, d, conds)


@pytest.mark.parametrize("n", [13, 37, 101, 203])
def test_region_and_closure_match_per_row_evaluation(n):
    rng = np.random.default_rng(n)
    d = _mixed(rng, n)
    conds = _conditions(rng)
    for c in conds:
        assert condition_tids(c, d).tolist() == _brute_region(Pattern([c]), d)
    _check_region_and_closure(rng, d, conds, patterns=40)


def _rule(pattern, d):
    fitted = FittedRuleModel(LinearModel(0.0, {}, "MEAN"), 1.0, 1.0, "rmse", np.arange(1))
    s = len(region(pattern, d))
    return HybridRule(pattern, fitted, s, s / d.n)


@pytest.mark.parametrize("n", [29, 203])
def test_overlap_matches_set_jaccard_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    d = _mixed(rng, n)
    conds = _conditions(rng)
    # two empty regions, so one pair has an empty union
    patterns = [Pattern([Equals("g", "unseen")]), Pattern([Interval("u", 20.0, 30.0)])]
    patterns += [_random_pattern(rng, conds) for _ in range(34)]
    pool = [_rule(p, d) for p in patterns]
    sp = build_problem(pool, sigma=1.0, omega=1.0, d=d)

    sets = [set(_brute_region(p, d)) for p in patterns]
    want = np.eye(len(pool))
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            union = len(sets[i] | sets[j])
            want[i, j] = want[j, i] = len(sets[i] & sets[j]) / union if union else 0.0
    assert want[0, 1] == 0.0 and not sets[0] and not sets[1]
    assert np.array_equal(sp.overlap, want)


def test_mask_memo_isolated_between_datasets():
    # datasets are built and dropped in turn, so a new one may reuse a freed
    # one's memory address; each must still see only its own masks
    rng = np.random.default_rng(17)
    conds = _conditions(rng)
    for _ in range(60):
        d = _mixed(rng, int(rng.integers(9, 120)))
        _check_region_and_closure(rng, d, conds, patterns=3)
        del d


def test_condition_mask_is_read_only():
    rng = np.random.default_rng(3)
    d = _mixed(rng, 21)
    c = Equals("g", "a")
    mask = condition_mask(c, d)
    assert condition_mask(c, d) is mask  # computed once per dataset
    with pytest.raises(ValueError):
        mask[0] = not mask[0]
    with pytest.raises(ValueError):
        mask |= True


def test_mutating_region_result_leaves_memo_intact():
    rng = np.random.default_rng(4)
    d = _mixed(rng, 21)
    for c in (Equals("g", "a"), Interval("u", 2.0, 7.0)):
        want = _brute_region(Pattern([c]), d)
        rows = region(Pattern([c]), d)
        rows[:] = 0
        tids = condition_tids(c, d)
        tids[:] = 0
        assert region(Pattern([c]), d).tolist() == want
        assert condition_tids(c, d).tolist() == want
