import json
import math

import numpy as np
import pytest

from hipar import (
    DataError,
    RunConfig,
    count_elements,
    cross_validate,
    deserialize_rules,
    error_reduction,
    predict,
    predict_batch,
    render_model,
    run_hipar,
    serialize_rules,
)
from hipar.regression import LinearModel

from .conftest import make_two_segment


def test_error_reduction_values():
    assert error_reduction(10.0, 5.0) == pytest.approx(50.0)
    assert error_reduction(10.0, 10.0) == pytest.approx(0.0)
    assert error_reduction(10.0, 12.0) == pytest.approx(-20.0)
    with pytest.raises(DataError):
        error_reduction(0.0, 1.0)


def test_count_elements_micro_cases():
    from hipar import (
        TOP,
        Equals,
        FittedRuleModel,
        HybridRule,
        Pattern,
        SelectedRuleSet,
    )

    def rule(pattern, n_coefs, is_default=False):
        model = LinearModel(1.0, {f"x{i}": 1.0 for i in range(n_coefs)}, "OLS")
        fitted = FittedRuleModel(model, 0.1, 0.1, "rmse", np.arange(1))
        return HybridRule(pattern, fitted, 2, 0.2, is_default=is_default)

    two_conds = Pattern([Equals("a", "u"), Equals("b", "v")])
    rs = SelectedRuleSet([rule(two_conds, 3)], 0.0, "exact", True)
    assert count_elements(rs) == 5  # 2 conditions + 3 coefficients
    rs = SelectedRuleSet([rule(TOP, 4, is_default=True)], 0.0, "exact", True)
    assert count_elements(rs) == 4  # default counts only its coefficients
    rs = SelectedRuleSet([rule(Pattern([Equals("a", "u")]), 0)], 0.0, "exact", True)
    assert count_elements(rs) == 1  # MEAN-model rule: its one condition


def test_count_elements(two_segment):
    rs, _ = run_hipar(two_segment, RunConfig(target="y", theta=0.2, seed=3))
    want = sum(
        len(r.pattern.conditions) + len(r.fitted.model.coefficients) for r in rs.chosen
    )
    assert count_elements(rs) == want
    assert count_elements(rs) >= len(rs.chosen)  # each chosen rule has >= 1 condition here


def test_run_hipar_standard_contract(toy):
    rs, pred = run_hipar(toy, RunConfig(target="price", theta=1 / 3, seed=0))
    assert len(rs.chosen) >= 1
    assert pred.default_rule.is_default
    # every row receives a finite prediction
    assert np.all(np.isfinite(predict_batch(pred, toy, np.arange(toy.n))))


def test_variant_f_selects_all_candidates(two_segment):
    from hipar import enumerate_candidates, hipar_init

    cfg = RunConfig(target="y", theta=0.2, seed=3)
    rs_std, _ = run_hipar(two_segment, cfg)
    rs_f, _ = run_hipar(two_segment, RunConfig(target="y", theta=0.2, seed=3, variant="f"))
    # omega = 0 selects every candidate (default rule included)
    enum_cfg = cfg.enum_config()
    cands = enumerate_candidates(
        two_segment, "y", hipar_init(two_segment, "y", enum_cfg), enum_cfg
    )
    assert len(rs_f.chosen) == len(cands.rules) + 1
    assert any(r.is_default for r in rs_f.chosen)
    assert len(rs_f.chosen) >= len(rs_std.chosen)
    assert count_elements(rs_f) >= count_elements(rs_std)


def test_variant_sd_top_q(two_segment):
    cfg = RunConfig(target="y", theta=0.2, seed=3, variant="sd", sd_q=2)
    rs, _ = run_hipar(two_segment, cfg)
    assert len(rs.chosen) == 2
    assert rs.solver == "top-q"
    with pytest.raises(DataError):
        run_hipar(two_segment, RunConfig(target="y", theta=0.2, seed=3, variant="sd"))


@pytest.mark.parametrize("variant", ["standard", "f"])
def test_sd_q_with_another_variant_is_rejected(two_segment, variant):
    cfg = RunConfig(target="y", theta=0.2, seed=3, variant=variant, sd_q=1)
    with pytest.raises(DataError, match="sd_q"):
        run_hipar(two_segment, cfg)


def test_two_segment_selects_both_segments(two_segment):
    rs, _ = run_hipar(two_segment, RunConfig(target="y", theta=0.2, seed=3))
    keys = {r.key for r in rs.chosen}
    assert 'segment="A"' in keys and 'segment="B"' in keys


@pytest.mark.parametrize("folds", [2.5, 3.0, True])
def test_cross_validate_rejects_a_fold_count_that_is_not_an_int(two_segment, folds):
    with pytest.raises(DataError, match="fold count"):
        cross_validate(two_segment, RunConfig(target="y", theta=0.2, folds=folds))


def test_cross_validate_report(two_segment):
    cfg = RunConfig(target="y", theta=0.2, seed=3, folds=5)
    report = cross_validate(two_segment, cfg)
    assert len(report.folds) == 5
    for f in report.folds:
        assert not f.skipped
        assert f.reduction == pytest.approx(
            error_reduction(f.baseline_error, f.model_error)
        )
        assert f.rules >= 1 and f.elements >= 0 and f.seconds >= 0.0
    assert report.mean_reduction >= 50.0
    assert report.metric == "rmse"


def test_cross_validate_skips_zero_baseline_folds():
    # constant target: the baseline is exact on every test fold, so no
    # reduction can be anchored and every fold is skipped with a note
    from hipar import AttributeSchema, Dataset

    x = np.linspace(0, 1, 30)
    d = Dataset(
        [AttributeSchema("x", "numerical"), AttributeSchema("y", "numerical", role="target")],
        {"x": x, "y": np.full(30, 7.0)},
    )
    report = cross_validate(d, RunConfig(target="y", theta=0.2, seed=0, folds=3))
    assert all(f.skipped for f in report.folds)
    assert all(f.note for f in report.folds)
    assert math.isnan(report.mean_reduction)


def test_cross_validate_deterministic(two_segment):
    cfg = RunConfig(target="y", theta=0.2, seed=3, folds=4)
    a = cross_validate(two_segment, cfg).to_dict()
    b = cross_validate(two_segment, cfg).to_dict()
    for fold in a["folds"] + b["folds"]:
        fold.pop("seconds")  # wall-clock is the one non-deterministic field
    assert a == b


def test_render_model_grammar():
    m = LinearModel(46.30591, {"rooms": 3.005712, "surface": -0.25}, "LASSO")
    assert render_model(m, "price") == "price = 46.3059 + 3.00571*rooms - 0.25*surface"
    assert render_model(LinearModel(7.0, {}, "MEAN"), "y") == "y = 7"


def test_serialize_round_trip(tmp_path, two_segment):
    cfg = RunConfig(target="y", theta=0.2, seed=3)
    _, pred = run_hipar(two_segment, cfg)
    path = tmp_path / "rules.json"
    serialize_rules(pred, str(path))
    back = deserialize_rules(str(path))
    for i in range(0, two_segment.n, 7):
        obs = two_segment.row(i)
        assert abs(predict(back, obs) - predict(pred, obs)) <= 1e-12


def test_round_trip_keeps_weights_of_rules_with_equal_rendering(tmp_path):
    # both bounds render as 1e+06; each rule must keep its own ebar
    from hipar import (
        TOP,
        AttributeSchema,
        Dataset,
        FittedRuleModel,
        HybridRule,
        Interval,
        Pattern,
        Predictor,
        SelectedRuleSet,
    )

    def rule(pattern, intercept, is_default=False):
        fitted = FittedRuleModel(LinearModel(intercept, {}, "MEAN"), 0.5, 0.5, "rmse",
                                 np.arange(1))
        return HybridRule(pattern, fitted, 4, 0.4, is_default=is_default)

    low = rule(Pattern([Interval("x", -math.inf, 1000000.15)]), 1.0)
    high = rule(Pattern([Interval("x", -math.inf, 1000000.25)]), 5.0)
    assert low.key == high.key and low.pattern != high.pattern
    schema = [AttributeSchema("x", "numerical"), AttributeSchema("y", "numerical", role="target")]
    pred = Predictor(
        rules=SelectedRuleSet([low, high], 0.0, "exact", True),
        default_rule=rule(TOP, 0.0, is_default=True),
        normalized_errors={low.pattern: 0.2, high.pattern: 0.6, TOP: 0.2},
        schema=schema,
        metric="rmse",
    )
    path = tmp_path / "rules.json"
    serialize_rules(pred, str(path))
    back = deserialize_rules(str(path))
    assert back.normalized_errors == pred.normalized_errors
    d = Dataset(schema, {"x": 1e6 + np.linspace(0.0, 0.4, 9), "y": np.zeros(9)})
    before = predict_batch(pred, d, np.arange(d.n))
    assert len(set(before.tolist())) == 3  # both rules, the higher only, the default
    assert predict_batch(back, d, np.arange(d.n)).tolist() == before.tolist()


def test_serialize_byte_identical(tmp_path, two_segment):
    cfg = RunConfig(target="y", theta=0.2, seed=3)
    _, pred1 = run_hipar(two_segment, cfg)
    _, pred2 = run_hipar(two_segment, cfg)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    serialize_rules(pred1, str(p1))
    serialize_rules(pred2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_rule_file_structure_and_golden_text(tmp_path, toy):
    cfg = RunConfig(target="price", theta=1 / 3, seed=0)
    _, pred = run_hipar(toy, cfg)
    path = tmp_path / "rules.json"
    serialize_rules(pred, str(path))
    doc = json.loads(path.read_text())
    assert doc["format"] == "hipar-rules-v1"
    assert doc["target"] == "price"
    defaults = [r for r in doc["rules"] if r["is_default"]]
    assert len(defaults) == 1
    # pattern grammar: categorical equality and the three interval shapes
    import re

    cond_re = re.compile(
        r'^[\w-]+="[^"]*"$'
        r"|^[\w-]+ in \(-inf,-?[\d.eE+-]+\)$"
        r"|^[\w-]+ in \[-?[\d.eE+-]+,-?[\d.eE+-]+\]$"
        r"|^[\w-]+ in \(-?[\d.eE+-]+,inf\)$"
    )
    for rule in doc["rules"]:
        if rule["pattern"] == "TRUE":
            continue
        for part in rule["pattern"].split(" & "):
            assert cond_re.match(part), part
    assert "text" in doc and "default rule" in doc["text"]
    for line in doc["text"].splitlines():
        assert line == "" or line.startswith(("rule ", "default rule", "  "))


def test_interval_rendering_shapes(tmp_path):
    import math as m

    from hipar import Interval

    assert Interval("a", -m.inf, 5.0).render() == "a in (-inf,5)"
    assert Interval("a", 5.0, m.inf).render() == "a in (5,inf)"
    assert Interval("a", 2.0, 7.5).render() == "a in [2,7.5]"


def test_default_only_rule_file(tmp_path):
    # a dataset with no usable conditions: the file carries exactly one rule,
    # flagged default
    from hipar import AttributeSchema, Dataset

    rng = np.random.default_rng(2)
    d = Dataset(
        [
            AttributeSchema("g", "categorical"),
            AttributeSchema("y", "numerical", role="target"),
        ],
        {
            "g": np.array([f"u{i}" for i in range(20)], dtype=object),  # all unique
            "y": rng.normal(size=20),
        },
    )
    cfg = RunConfig(target="y", theta=0.2, seed=0)
    rs, pred = run_hipar(d, cfg)
    assert [r.is_default for r in rs.chosen] == [True]
    path = tmp_path / "rules.json"
    serialize_rules(pred, str(path))
    doc = json.loads(path.read_text())
    assert len(doc["rules"]) == 1 and doc["rules"][0]["is_default"]


def test_deserialize_rejects_junk(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{\"something\": 1}")
    with pytest.raises(DataError):
        deserialize_rules(str(path))
    path2 = tmp_path / "not.json"
    path2.write_text("not json at all")
    with pytest.raises(DataError):
        deserialize_rules(str(path2))


def test_raising_theta_never_increases_chosen_candidates():
    d = make_two_segment(n=150, seed=13)
    from hipar import EnumConfig, enumerate_candidates, hipar_init

    counts = []
    for theta in (0.05, 0.1, 0.25, 0.5):
        cfg = EnumConfig(theta=theta, seed=1)
        cands = enumerate_candidates(d, "y", hipar_init(d, "y", cfg), cfg)
        counts.append(len(cands.rules))
    assert all(b <= a for a, b in zip(counts, counts[1:]))
