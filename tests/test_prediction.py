import numpy as np
import pytest

from hipar import (
    TOP,
    AttributeSchema,
    DataError,
    Dataset,
    Equals,
    FittedRuleModel,
    Interval,
    HybridRule,
    LinearModel,
    Pattern,
    Predictor,
    SelectedRuleSet,
    covering_rules,
    predict,
    predict_batch,
)

SCHEMA = [
    AttributeSchema("g", "categorical"),
    AttributeSchema("x", "numerical"),
    AttributeSchema("y", "numerical", role="target"),
]


def _rule(pattern, model, is_default=False):
    fitted = FittedRuleModel(model, 0.5, 0.5, "rmse", np.arange(1))
    return HybridRule(pattern, fitted, 4, 0.4, is_default=is_default)


def _predictor(rules, ebar, default_value=100.0, default_chosen=False, schema=SCHEMA):
    default = _rule(TOP, LinearModel(default_value, {}, "MEAN"), is_default=True)
    chosen = list(rules) + ([default] if default_chosen else [])
    errors = dict(ebar)
    errors.setdefault("TRUE", 0.9)
    return Predictor(
        rules=SelectedRuleSet(chosen=chosen, objective_value=0.0, solver="exact", proof=True),
        default_rule=default,
        normalized_errors=errors,
        schema=schema,
        metric="rmse",
    )


def test_covering_none():
    pred = _predictor([_rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))],
                      {'g="a"': 0.5})
    assert covering_rules(pred, {"g": "b", "x": 0.0}) == []


def test_covering_match_and_order():
    r1 = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    r2 = _rule(Pattern([Equals("g", "a"), Equals("g2", "zz")]), LinearModel(2.0, {}, "MEAN"))
    schema = SCHEMA + [AttributeSchema("g2", "categorical")]
    pred = _predictor([r2, r1], {r1.key: 0.5, r2.key: 0.5}, schema=schema)
    got = covering_rules(pred, {"g": "a", "g2": "zz", "x": 1.0})
    assert [r.key for r in got] == sorted([r1.key, r2.key])


def test_covering_unknown_category_open_world():
    pred = _predictor([_rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))],
                      {'g="a"': 0.5})
    assert covering_rules(pred, {"g": "never-seen", "x": 0.0}) == []


def test_covering_missing_feature_rejected():
    pred = _predictor([_rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))],
                      {'g="a"': 0.5})
    with pytest.raises(DataError):
        covering_rules(pred, {"g": "a"})


def test_predict_single_rule_weight_one():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(3.0, {"x": 2.0}, "OLS"))
    pred = _predictor([rule], {rule.key: 0.3})
    assert predict(pred, {"g": "a", "x": 2.0}) == pytest.approx(7.0)


def test_predict_two_rules_weighted_vote():
    # ebar 0.2 / 0.4 with votes 10 / 16: weights 2/3 and 1/3, answer exactly 12
    r1 = _rule(Pattern([Equals("g", "a")]), LinearModel(10.0, {}, "MEAN"))
    r2 = _rule(Pattern([Interval("x", 0.0, 1.0)]), LinearModel(16.0, {}, "MEAN"))
    pred = _predictor([r1, r2], {r1.key: 0.2, r2.key: 0.4})
    assert predict(pred, {"g": "a", "x": 0.5}) == 12.0


def test_predict_fallback_to_default():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    pred = _predictor([rule], {rule.key: 0.5}, default_value=42.0)
    assert predict(pred, {"g": "zzz", "x": 0.0}) == 42.0


def test_predict_non_finite_feature_rejected():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    pred = _predictor([rule], {rule.key: 0.5})
    with pytest.raises(DataError):
        predict(pred, {"g": "a", "x": float("nan")})


def test_weights_sum_to_one_random():
    # all rules vote the same value v; totality of the weights means output == v
    rng = np.random.default_rng(21)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        rules = []
        ebar = {}
        for i in range(k):
            r = _rule(Pattern([Equals(f"g{i}", "a")]), LinearModel(1.0, {}, "MEAN"))
            rules.append(r)
            ebar[r.key] = float(rng.uniform(0.01, 1.0))
        schema = [AttributeSchema(f"g{i}", "categorical") for i in range(k)]
        schema.append(AttributeSchema("y", "numerical", role="target"))
        default = _rule(TOP, LinearModel(0.0, {}, "MEAN"), is_default=True)
        ebar["TRUE"] = 0.5
        pred = Predictor(
            rules=SelectedRuleSet(rules, 0.0, "exact", True),
            default_rule=default,
            normalized_errors=ebar,
            schema=schema,
            metric="rmse",
        )
        obs = {f"g{i}": "a" for i in range(k)}
        assert abs(predict(pred, obs) - 1.0) < 1e-12


def test_prediction_invariant_to_rule_order():
    r1 = _rule(Pattern([Equals("g", "a")]), LinearModel(5.0, {}, "MEAN"))
    r2 = _rule(Pattern([Interval("x", 0.0, 1.0)]), LinearModel(9.0, {}, "MEAN"))
    ebar = {r1.key: 0.3, r2.key: 0.6}
    p_ab = _predictor([r1, r2], ebar)
    p_ba = _predictor([r2, r1], ebar)
    obs = {"g": "a", "x": 0.5}
    assert predict(p_ab, obs) == predict(p_ba, obs)


def test_chosen_default_excluded_from_vote():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(10.0, {}, "MEAN"))
    covered = {"g": "a", "x": 0.0}
    # the default rule answers only for uncovered points, even when chosen
    pred = _predictor([rule], {rule.key: 0.2}, default_value=0.0, default_chosen=True)
    assert predict(pred, covered) == 10.0
    assert covering_rules(pred, covered) == [rule]
    assert predict(pred, {"g": "b", "x": 0.0}) == 0.0


def test_rule_on_non_feature_rejected_at_construction():
    on_g2 = _rule(Pattern([Equals("g2", "a")]), LinearModel(1.0, {}, "MEAN"))
    with pytest.raises(DataError, match="g2"):
        _predictor([on_g2], {on_g2.key: 0.5})
    on_target = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {"y": 2.0}, "OLS"))
    with pytest.raises(DataError, match="'y'"):
        _predictor([on_target], {on_target.key: 0.5})
    on_category = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {"g": 2.0}, "OLS"))
    with pytest.raises(DataError, match="'g'"):
        _predictor([on_category], {on_category.key: 0.5})
    interval_on_category = _rule(Pattern([Interval("g", 0.0, 1.0)]), LinearModel(1.0, {}, "MEAN"))
    with pytest.raises(DataError, match="'g'"):
        _predictor([interval_on_category], {interval_on_category.key: 0.5})
    # the default rule is checked too
    with pytest.raises(DataError, match="'z'"):
        Predictor(
            rules=SelectedRuleSet([], 0.0, "exact", True),
            default_rule=_rule(TOP, LinearModel(0.0, {"z": 1.0}, "OLS"), is_default=True),
            normalized_errors={"TRUE": 1.0},
            schema=SCHEMA,
            metric="rmse",
        )


def test_predict_batch_error_carries_row_index(two_segment):
    # predictor whose schema demands a feature the dataset lacks
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    pred = _predictor([rule], {rule.key: 0.5})  # schema wants "g" and "x"
    with pytest.raises(DataError, match="row 3"):
        predict_batch(pred, two_segment, [3])


def test_predict_batch_matches_pointwise(two_segment):
    from hipar import RunConfig, run_hipar

    rs, pred = run_hipar(two_segment, RunConfig(target="y", theta=0.2, seed=3))
    rows = np.arange(two_segment.n)
    batch = predict_batch(pred, two_segment, rows)
    single = [predict(pred, two_segment.row(int(i))) for i in rows]
    assert np.array_equal(batch, np.array(single))
    # permuting rows permutes outputs identically
    perm = rows[::-1]
    assert np.array_equal(predict_batch(pred, two_segment, perm), batch[::-1])
    assert len(predict_batch(pred, two_segment, np.empty(0, dtype=int))) == 0
    assert np.all(np.isfinite(batch))
