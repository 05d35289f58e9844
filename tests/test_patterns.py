import math
from fractions import Fraction

import numpy as np
import pytest

from hipar import (
    TOP,
    AttributeSchema,
    DataError,
    Dataset,
    Equals,
    Interval,
    Pattern,
    closure,
    condition_tids,
    interclass_variance,
    region,
    support,
)
from hipar.patterns import bits_rows, condition_bits

from .conftest import observation

COTTAGE = Equals("property-type", "cottage")
APARTMENT = Equals("property-type", "apartment")
GOOD = Equals("state", "good")
VGOOD = Equals("state", "very good")
EXCELLENT = Equals("state", "excellent")
CATS = [COTTAGE, APARTMENT, GOOD, VGOOD, EXCELLENT]


def test_matches_equality(toy):
    assert COTTAGE.mask(observation(toy, 0)["property-type"])
    assert not COTTAGE.mask(observation(toy, 3)["property-type"])
    assert list(condition_tids(COTTAGE, toy)) == [0, 1, 2]


def test_matches_interval_bounds(toy):
    small = Interval("surface", -math.inf, 60.0)
    assert not small.mask(observation(toy, 0)["surface"])  # surface 120
    assert small.mask(observation(toy, 1)["surface"])  # surface 55
    half = Interval("surface", 50.0, 60.0)
    assert half.mask(50.0)  # closed low end
    assert not half.mask(60.0)  # open high end
    assert list(condition_tids(half, toy)) == [1, 2, 4]  # surfaces 55, 50, 52


def test_matches_kind_mismatch(toy):
    with pytest.raises(DataError):
        condition_tids(Equals("surface", "50"), toy)
    with pytest.raises(DataError):
        condition_tids(Interval("state", 0.0, 1.0), toy)
    with pytest.raises(DataError):
        region(Pattern([COTTAGE, Interval("state", 0.0, 1.0)]), toy)


def test_empty_pattern_matches_everything(toy):
    for i in range(toy.n):
        assert TOP.mask(observation(toy, i))
    assert list(region(TOP, toy)) == list(range(toy.n))


def test_scalar_mask_equals_column_mask():
    # one observation's value and a whole column go through the same mask
    col = np.array([-math.inf, -1.0, 0.0, np.nextafter(2.0, 0.0), 2.0, 3.0, math.inf])
    for c in [Interval("x", 0.0, 2.0), Interval("x", -math.inf, 2.0),
              Interval("x", 0.0, math.inf), Interval("x", -math.inf, math.inf)]:
        assert [bool(c.mask(float(v))) for v in col] == c.mask(col).tolist()
    cats = np.array(["a", "b", "never-seen"], dtype=object)
    c = Equals("g", "a")
    assert [bool(c.mask(v)) for v in cats] == c.mask(cats).tolist() == [True, False, False]


def _g_table(cells):
    return Dataset(
        [AttributeSchema("g", "categorical"), AttributeSchema("y", "numerical", role="target")],
        {"g": cells, "y": np.zeros(len(cells))},
    )


def test_equality_with_nul_is_exact_on_every_input():
    # numpy would compare against a fixed-width string, which drops trailing NULs
    cats = ["a", "a\x00", "a\x00\x00", "b"]
    d = _g_table(np.array(cats, dtype=object))
    assert d.column("g").levels == tuple(cats)  # four levels
    # a fixed-width input has already lost its NULs: its levels are "a" and "b"
    fixed = _g_table(np.array(["a", "b"]))
    for value in cats:
        want = [v == value for v in cats]
        c = Equals("g", value)
        assert [bool(c.mask(v)) for v in cats] == want
        assert c.mask(d.column("g")).tolist() == want
        assert bits_rows(condition_bits(c, d), d.n).tolist() == np.flatnonzero(want).tolist()
        assert c.mask(fixed.column("g")).tolist() == [value == "a", value == "b"]
        # a subset keeps its parent's table, with levels no cell of it holds
        assert c.mask(d.subset([0, 3]).column("g")).tolist() == [value == "a", value == "b"]
    assert Equals("g", "a\x00") == Equals("g", "a\x00") != Equals("g", "a")


def test_pattern_mask_is_and_of_conditions(toy):
    p = Pattern([COTTAGE, Interval("surface", -math.inf, 60.0)])
    columns = {a.name: toy.column(a.name) for a in toy.schema}
    assert list(np.nonzero(p.mask(columns))[0]) == list(region(p, toy)) == [1, 2]
    assert [bool(p.mask(observation(toy, i))) for i in range(toy.n)] == p.mask(columns).tolist()


def test_pattern_rejects_two_conditions_on_one_attribute():
    with pytest.raises(DataError):
        Pattern([GOOD, VGOOD])


def test_canonical_key_order_independent():
    a = Pattern([COTTAGE, Interval("surface", -math.inf, 60.0)])
    b = Pattern([Interval("surface", -math.inf, 60.0), COTTAGE])
    assert a.key == b.key == 'property-type="cottage" & surface in (-inf,60)'


def _exact_key(c):
    """Attribute, then equalities before intervals, then the value or the bounds."""
    return (c.attribute, 0, c.value) if isinstance(c, Equals) else (c.attribute, 1, c.lo, c.hi)


def test_order_key_is_exact_and_never_ties():
    rng = np.random.default_rng(8)
    # bounds near 1e6 collide at %.6g; a few small ones render apart
    bounds = [-math.inf, math.inf, 0.5, 2.0, *(1e6 + rng.uniform(0.0, 1.0, 6))]
    conds = [Equals(a, v) for a in ("u", "w") for v in ("a", "b", "a b", "a\x00")]
    for _ in range(60):
        lo, hi = sorted(rng.choice(bounds, 2, replace=False))
        conds.append(Interval(str(rng.choice(["u", "v"])), float(lo), float(hi)))
    for a in conds:
        for b in conds:
            assert (a.order < b.order) == (_exact_key(a) < _exact_key(b))
            assert (a.order == b.order) == (a == b)
    assert any(a != b and a.render() == b.render() for a in conds for b in conds)
    # text would put 'u="a b"' and 'u="a\x00"' before 'u="a"'; the values do not
    assert sorted((c for c in conds if c.attribute == "u" and isinstance(c, Equals)),
                  key=lambda c: c.order) == [Equals("u", v) for v in ("a", "a\x00", "a b", "b")]
    # a pattern sorts by the tuple of its conditions' keys
    on = {a: [c for c in conds if c.attribute == a][:6] for a in ("u", "v", "w")}
    patterns = [Pattern([]), *(Pattern([c]) for c in on["u"] + on["v"]),
                *(Pattern([v, w]) for v in on["v"] for w in on["w"])]
    for p in patterns:
        for q in patterns:
            assert (p.order < q.order) == (tuple(map(_exact_key, p.conditions))
                                           < tuple(map(_exact_key, q.conditions)))


def test_support_small_cottage_example(toy):
    p = Pattern([COTTAGE, Interval("surface", -math.inf, 60.0)])
    assert support(p, toy) == (2, 2 / 6)


def test_support_top_and_apartment(toy):
    assert support(TOP, toy) == (6, 1.0)
    assert support(Pattern([APARTMENT]), toy) == (3, 0.5)


def test_support_anti_monotone(toy):
    base = Pattern([COTTAGE])
    s_base, _ = support(base, toy)
    for c in [GOOD, VGOOD, EXCELLENT, Interval("rooms", 3.0, 4.0)]:
        s_ext, _ = support(base.extend(c), toy)
        assert s_ext <= s_base


def test_closure_adds_implied_condition(toy):
    got = closure(Pattern([GOOD]), toy, CATS)
    assert got == Pattern([GOOD, APARTMENT])


def test_closure_idempotent_and_region_preserving(toy):
    p = Pattern([GOOD])
    cl1 = closure(p, toy, CATS)
    cl2 = closure(cl1, toy, CATS)
    assert cl1 == cl2
    assert np.array_equal(region(p, toy), region(cl1, toy))
    assert set(p.conditions) <= set(cl1.conditions)  # extensive


def test_closure_empty_region_rejected(toy):
    with pytest.raises(DataError):
        closure(Pattern([COTTAGE, GOOD]), toy, CATS)


def test_interclass_variance_toy_value(toy):
    # bignum oracle: exact rational evaluation of the defining formula
    prices = [Fraction(v) for v in (510, 410, 350, 320, 140, 125)]
    mu = sum(prices) / 6
    inside = [prices[4], prices[5]]
    outside = [p for p in prices if p not in inside]
    mu_in = sum(inside) / 2
    mu_out = sum(outside) / 4
    exact = 2 * (mu - mu_in) ** 2 + 4 * (mu - mu_out) ** 2
    got = interclass_variance(Pattern([GOOD]), toy)
    assert abs(got - float(exact)) < 1e-9
    assert abs(got - 93633.33) < 0.01


def test_interclass_variance_boundaries(toy):
    assert interclass_variance(TOP, toy) == 0.0
    assert interclass_variance(Pattern([Equals("state", "unseen")]), toy) == 0.0


def test_interclass_variance_balanced_means_zero():
    from hipar import AttributeSchema, Dataset

    d = Dataset(
        [AttributeSchema("g", "categorical"), AttributeSchema("y", "numerical", role="target")],
        {"g": np.array(["a", "b", "a", "b"], dtype=object), "y": np.array([1.0, 1.0, 3.0, 3.0])},
    )
    assert interclass_variance(Pattern([Equals("g", "a")]), d) == pytest.approx(0.0)


def test_interclass_variance_nonnegative_random(toy):
    rng = np.random.default_rng(3)
    for _ in range(50):
        value = rng.choice(["cottage", "apartment"])
        p = Pattern([Equals("property-type", str(value))])
        assert interclass_variance(p, toy) >= 0.0


def test_condition_tids_sorted(toy):
    t = condition_tids(COTTAGE, toy)
    assert list(t) == [0, 1, 2]
