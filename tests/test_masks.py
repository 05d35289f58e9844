"""Condition masks and packed condition bits: the mask and bit kernels against
brute-force per-row definitions, and the per-dataset memos (isolated and
read-only)."""

import math

import numpy as np
import pytest

from hipar import (
    TOP,
    AttributeSchema,
    DataError,
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
from hipar.patterns import Universe, bits_rows, condition_bits, pattern_bits

from .conftest import observation

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
    rows = [observation(d, i) for i in range(d.n)]
    return [i for i, row in enumerate(rows) if all(_holds(c, row) for c in p.conditions)]


def _brute_closure(p, d, universe):
    rows = [observation(d, i) for i in _brute_region(p, d)]
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


# n = 1..17 meets every n % 8 and a partly filled last word: padding bits never count
@pytest.mark.parametrize("n", [*range(1, 18), 203])
def test_bit_kernel_matches_per_row_counts_and_closures(n):
    rng = np.random.default_rng(1000 + n)
    d = _mixed(rng, n)
    rows = [observation(d, i) for i in range(n)]
    conds = _conditions(rng)
    universe = Universe(conds, d)
    assert universe.conditions == sorted(conds, key=lambda c: c.order)
    for _ in range(12):
        p = _random_pattern(rng, conds)
        want = _brute_region(p, d)
        inside = pattern_bits(p, d)
        assert bits_rows(inside, n).tolist() == want
        # every extension's rows and support, from one AND over the universe matrix
        ext_bits, supports = universe.extensions(universe.rows(conds), inside)
        for c, bits, count in zip(conds, ext_bits, supports.tolist()):
            ext = [i for i in want if _holds(c, rows[i])]
            assert bits_rows(bits, n).tolist() == ext
            assert count == len(ext)
        if want:
            expected = _brute_closure(p, d, conds)
            assert closure(p, d, universe) == expected
            assert closure(p, d, conds) == expected


def test_closure_of_top_and_of_a_one_row_region():
    rng = np.random.default_rng(9)
    d = _mixed(rng, 40)
    conds = _conditions(rng)
    assert closure(TOP, d, conds) == _brute_closure(TOP, d, conds)
    # a level held by one row: its closure takes every condition on that row
    g = np.array(d.column("g").tolist(), dtype=object)
    g[17] = "solo"
    one = Dataset(d.schema, {a.name: (g if a.name == "g" else d.column(a.name)) for a in d.schema})
    universe = [*conds, Equals("g", "solo")]
    got = closure(Pattern([Equals("g", "solo")]), one, universe)
    assert got == _brute_closure(Pattern([Equals("g", "solo")]), one, universe)
    row = observation(one, 17)
    assert len(got) == 4 and all(_holds(c, row) for c in got.conditions)


def test_closure_nested_intervals_first_in_canonical_order_wins():
    rng = np.random.default_rng(5)
    d = _mixed(rng, 64)
    # u lies in [0, 10], so both cover every region; "(" sorts before "["
    wide, inner = Interval("u", -math.inf, 20.0), Interval("u", -1.0, 11.0)
    p = Pattern([Interval("v", 0.0, 1.0), Equals("g", "a")])
    assert _brute_region(p, d)
    for universe in ([inner, wide], [wide, inner]):
        got = closure(p, d, universe)
        assert got == _brute_closure(p, d, universe)
        assert got == Pattern([*p.conditions, wide])


def test_closure_of_empty_region_raises_unchanged():
    rng = np.random.default_rng(6)
    d = _mixed(rng, 30)
    conds = _conditions(rng)
    p = Pattern([Equals("g", "unseen")])
    for universe in (conds, Universe(conds, d)):
        with pytest.raises(DataError, match="closure of pattern with empty region"):
            closure(p, d, universe)


def test_universe_of_another_dataset_is_rebuilt():
    rng = np.random.default_rng(8)
    d1, d2 = _mixed(rng, 50), _mixed(rng, 50)
    conds = _conditions(rng)
    universe = Universe(conds, d1)
    for _ in range(10):
        p = _random_pattern(rng, conds)
        if _brute_region(p, d2):
            assert closure(p, d2, universe) == _brute_closure(p, d2, conds)


def test_condition_bits_are_read_only_packed_masks():
    rng = np.random.default_rng(3)
    d = _mixed(rng, 77)
    for c in (Equals("g", "a"), Interval("u", 2.0, 7.0)):
        bits = condition_bits(c, d)
        assert condition_bits(c, d) is bits  # computed once per dataset
        assert bits.dtype == np.uint64 and len(bits) == 2  # 77 rows in two words
        raw = bits.view(np.uint8)
        holds = [_holds(c, observation(d, i)) for i in range(d.n)]
        assert np.array_equal(raw[:10], np.packbits(holds))
        assert not raw[10:].any()  # padding bits are zero
        with pytest.raises(ValueError):
            bits[0] = 0
        with pytest.raises(ValueError):
            bits |= 1
    top = pattern_bits(TOP, d)
    assert bits_rows(top, d.n).tolist() == list(range(d.n))
    assert int(np.bitwise_count(top).sum()) == d.n


def _rule(pattern, d):
    fitted = FittedRuleModel(LinearModel(0.0, {}, "MEAN"), 1.0, 1.0)
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


def test_coded_column_is_read_only():
    rng = np.random.default_rng(3)
    d = _mixed(rng, 21)
    g = d.column("g")
    assert d.column("g") is g  # coded once per dataset
    assert g.levels == LEVELS and g.tolist() == [observation(d, i)["g"] for i in range(d.n)]
    with pytest.raises(ValueError):
        g.codes[0] = 1 - g.codes[0]
    with pytest.raises(ValueError):
        g.codes += 1
    assert d.subset(range(0, 21, 2)).column("g").codes.flags.writeable is False


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
