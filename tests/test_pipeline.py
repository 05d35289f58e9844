import json
import math
import re
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from hipar import (
    AttributeSchema,
    DataError,
    Dataset,
    Predictor,
    RunConfig,
    count_elements,
    cross_validate,
    cross_validate_and_fit,
    deserialize_rules,
    error_reduction,
    predict,
    predict_batch,
    render_model,
    run_hipar,
    serialize_rules,
)
from hipar.data import k_folds
from hipar.enumeration import enumerate_candidates, hipar_init
from hipar.regression import LinearModel, evaluate, fit_ols, fit_ols_tables, metric_value

from .conftest import make_lockstep_table, make_two_segment, observation


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

    def rule(pattern, n_coefs):
        model = LinearModel(1.0, {f"x{i}": 1.0 for i in range(n_coefs)}, "OLS")
        fitted = FittedRuleModel(model, 0.1, 0.1)
        return HybridRule(pattern, fitted, 2, 0.2)

    two_conds = Pattern([Equals("a", "u"), Equals("b", "v")])
    rs = SelectedRuleSet([rule(two_conds, 3)], 0.0, "exact", True)
    assert count_elements(rs) == 5  # 2 conditions + 3 coefficients
    rs = SelectedRuleSet([rule(TOP, 4)], 0.0, "exact", True)
    assert count_elements(rs) == 4  # default counts only its coefficients
    rs = SelectedRuleSet([rule(Pattern([Equals("a", "u")]), 0)], 0.0, "exact", True)
    assert count_elements(rs) == 1  # MEAN-model rule: its one condition


def test_count_elements(two_segment):
    rs, _ = run_hipar(two_segment, RunConfig(theta=0.2, seed=3))
    want = sum(
        len(r.pattern.conditions) + len(r.fitted.model.coefficients) for r in rs.chosen
    )
    assert count_elements(rs) == want
    assert count_elements(rs) >= len(rs.chosen)  # each chosen rule has >= 1 condition here


def test_run_hipar_standard_contract(toy):
    rs, pred = run_hipar(toy, RunConfig(theta=1 / 3, seed=0))
    assert len(rs.chosen) >= 1
    assert pred.default_rule.is_default
    # every row receives a finite prediction
    assert np.all(np.isfinite(predict_batch(pred, toy, np.arange(toy.n))))


def test_variant_f_selects_all_candidates(two_segment):
    from hipar import enumerate_candidates, hipar_init

    cfg = RunConfig(theta=0.2, seed=3)
    rs_std, _ = run_hipar(two_segment, cfg)
    rs_f, _ = run_hipar(two_segment, RunConfig(theta=0.2, seed=3, omega=0.0))
    # omega = 0 selects every candidate (default rule included)
    cands = enumerate_candidates(two_segment, hipar_init(two_segment, cfg), cfg)
    assert len(rs_f.chosen) == len(cands.rules) + 1
    assert any(r.is_default for r in rs_f.chosen)
    assert len(rs_f.chosen) >= len(rs_std.chosen)
    assert count_elements(rs_f) >= count_elements(rs_std)


def test_omega_zero_keeps_every_candidate_by_local_search():
    # three crossed categorical segmentings give more candidates than the
    # exact solver takes, and omega = 0 still keeps every one of them
    from hipar import Dataset, enumerate_candidates, hipar_init
    from hipar.selection import EXACT_LIMIT

    rng = np.random.default_rng(0)
    n, columns, y = 400, {}, rng.normal(0.0, 0.5, 400)
    for j in range(3):
        codes = rng.integers(0, 4, n)
        columns[f"g{j}"] = np.array([f"{'abc'[j]}{i}" for i in range(4)], dtype=object)[codes]
        y = y + (j + 1) * codes
    columns["y"] = y
    schema = [*(AttributeSchema(name, "categorical") for name in columns if name != "y"),
              AttributeSchema("y", "numerical", role="target")]
    d = Dataset(schema, columns)
    cfg = RunConfig(theta=0.05, seed=0)
    cands = enumerate_candidates(d, hipar_init(d, cfg), cfg)
    assert len(cands.rules) + 1 > EXACT_LIMIT
    rs, _ = run_hipar(d, RunConfig(theta=0.05, seed=0, omega=0.0))
    assert rs.solver == "local-search"
    assert [r.pattern for r in rs.chosen] == [r.pattern for r in [*cands.rules, cands.default_rule]]


def test_variant_sd_top_q(two_segment):
    cfg = RunConfig(theta=0.2, seed=3, sd_q=2)
    rs, _ = run_hipar(two_segment, cfg)
    assert len(rs.chosen) == 2
    assert rs.solver == "top-q"
    with pytest.raises(DataError, match="out of range"):
        run_hipar(two_segment, RunConfig(theta=0.2, seed=3, sd_q=1000))


@pytest.mark.parametrize("settings, message", [
    ({"theta": 0.0}, "theta must lie in"),
    ({"theta": 1.5}, "theta must lie in"),
    ({"metric": "mae"}, "unknown error metric"),
    ({"sd_q": 0}, "sd_q must be an integer >= 1"),
    ({"sd_q": 2.5}, "sd_q must be an integer >= 1"),
    ({"sigma": math.nan}, "sigma and omega must be finite and >= 0"),
    ({"omega": -1.0}, "sigma and omega must be finite and >= 0"),
    ({"theta": "0.5"}, "theta must lie in"),
    ({"theta": None}, "theta must lie in"),
    ({"theta": True}, "theta must lie in"),
    ({"sigma": "1"}, "sigma and omega must be finite and >= 0"),
    ({"sigma": True}, "sigma and omega must be finite and >= 0"),
    ({"omega": None}, "sigma and omega must be finite and >= 0"),
    ({"metric": 1}, "unknown error metric"),
], ids=["theta-0", "theta-1.5", "metric", "q-0", "q-2.5", "sigma-nan", "omega-negative",
        "theta-str", "theta-none", "theta-bool", "sigma-str", "sigma-bool", "omega-none",
        "metric-int"])
def test_a_bad_setting_fails_when_the_config_is_made(settings, message):
    with pytest.raises(DataError, match=message):
        RunConfig(**settings)


@pytest.mark.parametrize("settings, message", [
    ({"seed": -1}, "seed must be a nonnegative integer, got -1"),
    ({"seed": 1.0}, "seed must be a nonnegative integer"),
    ({"seed": True}, "seed must be a nonnegative integer"),
    ({"folds": 1}, "fold count must be an integer >= 2, got 1"),
    ({"folds": 0}, "fold count must be an integer >= 2"),
    ({"folds": 2.5}, "fold count must be an integer >= 2"),
], ids=["seed-negative", "seed-float", "seed-bool", "folds-1", "folds-0", "folds-2.5"])
def test_a_bad_seed_or_fold_count_fails_when_the_config_is_made(settings, message):
    with pytest.raises(DataError, match=message):
        RunConfig(**settings)
    assert RunConfig(seed=np.int64(3), folds=np.int64(2)).folds == 2


def test_config_stores_the_metric_lower_cased():
    assert RunConfig(metric="RMSE").metric == "rmse"
    assert RunConfig(metric="MEAE") == RunConfig(metric="meae")


def test_two_segment_selects_both_segments(two_segment):
    rs, _ = run_hipar(two_segment, RunConfig(theta=0.2, seed=3))
    keys = {r.key for r in rs.chosen}
    assert 'segment="A"' in keys and 'segment="B"' in keys


@pytest.mark.parametrize("folds", [2.5, 3.0, True])
def test_cross_validate_rejects_a_fold_count_that_is_not_an_int(two_segment, folds):
    with pytest.raises(DataError, match="fold count"):
        cross_validate(two_segment, RunConfig(theta=0.2, folds=folds))


def test_cross_validate_report(two_segment):
    cfg = RunConfig(theta=0.2, seed=3, folds=5)
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
    report = cross_validate(d, RunConfig(theta=0.2, seed=0, folds=3))
    assert all(f.skipped for f in report.folds)
    assert all(f.note for f in report.folds)
    # no reduction is defined: None, which report.json writes as null
    assert report.mean_reduction is None and report.median_reduction is None
    assert all(f.reduction is None for f in report.folds)


def test_cross_validate_deterministic(two_segment):
    cfg = RunConfig(theta=0.2, seed=3, folds=4)
    a = cross_validate(two_segment, cfg).to_dict()
    b = cross_validate(two_segment, cfg).to_dict()
    for fold in a["folds"] + b["folds"]:
        fold.pop("seconds")  # wall-clock is the one non-deterministic field
    assert a == b


def _fold_by_fold(d, cfg):
    """The reference of ``cross_validate``: each fold trained alone, by
    ``run_hipar`` on a table built from its training rows, and scored the
    same way. Returns each fold's FoldResult fields but ``seconds``, and the
    depth of its search (the most conditions of a visited pattern, 0 when it
    visits nothing); the first failing fold raises."""
    plan = k_folds(d, cfg.folds, cfg.seed)
    folds, depths = [], []
    for fold in range(plan.k):
        rows, test_rows = plan.train_rows(fold), plan.fold_rows(fold)
        train = Dataset(d.schema, {a.name: d.column(a.name)[rows] for a in d.schema})
        baseline = fit_ols(np.arange(train.n), train)
        selected, predictor = run_hipar(train, cfg)
        baseline_error = evaluate(baseline, test_rows, d, cfg.metric)
        residuals = d.column(d.target)[test_rows] - predict_batch(predictor, d, test_rows)
        model_error = metric_value(residuals, cfg.metric)
        skipped = baseline_error == 0.0
        folds.append({
            "fold": fold, "baseline_error": baseline_error, "model_error": model_error,
            "reduction": None if skipped else error_reduction(baseline_error, model_error),
            "rules": len(selected.chosen), "elements": count_elements(selected),
            "skipped": skipped,
            "note": "baseline error is zero on the test rows" if skipped else "",
        })
        visited = enumerate_candidates(train, hipar_init(train, cfg), cfg).stats.visited_keys
        depths.append(max((key.count(" & ") + 1 for key in visited), default=0))
    return folds, depths


def _sparse_levels_table():
    """30 rows of four levels of 7 or 8 rows, and a constant x: at theta 0.3
    and 3 folds a level is frequent in some folds' 20 training rows only, and
    fold 1 of seed 12 has no frequent condition at all."""
    rng = np.random.default_rng(12)
    c = rng.permutation(np.repeat(np.array(["a", "b", "c", "d"], dtype=object), [7, 7, 8, 8]))
    y = np.select([c == "a", c == "b", c == "c"], [0.0, 3.0, -2.0], 5.0) + rng.normal(0, 0.3, 30)
    return Dataset([AttributeSchema("c", "categorical"), AttributeSchema("x", "numerical"),
                    AttributeSchema("y", "numerical", role="target")],
                   {"c": c, "x": np.full(30, 1.0), "y": y})


def test_lockstep_folds_equal_the_folds_trained_one_by_one():
    # the folds train together, one contest call per round for all of them;
    # each must get exactly what it gets trained alone on its own table
    rng = np.random.default_rng(41)
    cases = [(_sparse_levels_table(), RunConfig(theta=0.3, folds=3, seed=12))]
    for k in range(8):
        cfg = RunConfig(theta=float(rng.uniform(0.08, 0.25)), folds=int(rng.integers(2, 6)),
                        seed=int(rng.integers(0, 100)), metric=("rmse", "meae")[k % 2],
                        sd_q=1 if k % 4 == 1 else None, omega=0.0 if k % 4 == 2 else 1.0)
        cases.append((make_lockstep_table(rng, int(rng.integers(60, 160))), cfg))
    depths = set()
    for d, cfg in cases:
        want, fold_depths = _fold_by_fold(d, cfg)
        report = cross_validate(d, cfg)
        got = [asdict(f) for f in report.folds]
        for f in got:
            assert f.pop("seconds") >= 0.0
        assert got == want, cfg
        scored = [f["reduction"] for f in want if not f["skipped"]]
        assert report.mean_reduction == (float(np.mean(scored)) if scored else None)
        depths.update(fold_depths)
    # folds that walk nothing, and searches of different depths, train together
    assert {0, 1, 2, 3} <= depths, depths


def test_the_first_failing_fold_in_fold_order_raises():
    # sd_q = 14 exceeds the candidate pools of folds 0 (13) and 2 (8); fold 2's
    # search is shallower and fails first in time, but fold 0's error is raised,
    # as when the folds train one after the other
    d = make_lockstep_table(np.random.default_rng(1), 120)
    cfg = RunConfig(theta=0.1, folds=4, seed=1, sd_q=14)
    plan = k_folds(d, cfg.folds, cfg.seed)
    messages = []
    for fold in range(plan.k):
        try:
            run_hipar(d.subset(plan.train_rows(fold)), cfg)
        except DataError as exc:
            messages.append(str(exc))
    assert len(set(messages)) == 2
    with pytest.raises(DataError) as raised:
        cross_validate(d, cfg)
    assert str(raised.value) == messages[0]


@pytest.mark.parametrize("metric", ["rmse", "meae"])
@pytest.mark.parametrize("table", ["two-segment", "mixed"])
def test_the_drive_with_the_whole_table_fit_equals_the_folds_and_run_hipar(table, metric):
    # the whole-table fit is the drive's last job: it gets what run_hipar gets
    # alone, and the folds get what each gets trained alone
    if table == "two-segment":
        d, cfg = make_two_segment(), RunConfig(theta=0.2, seed=3, folds=5, metric=metric)
    else:
        d = make_lockstep_table(np.random.default_rng(5), 150)
        cfg = RunConfig(theta=0.12, seed=4, folds=4, metric=metric)
    report, selected, predictor = cross_validate_and_fit(d, cfg)
    assert (selected, predictor) == run_hipar(d, cfg)
    got = [asdict(f) for f in report.folds]
    for f in got:
        f.pop("seconds")
    assert got == _fold_by_fold(d, cfg)[0]
    alone = cross_validate(d, cfg).to_dict()
    for f in alone["folds"]:
        f.pop("seconds")
    assert {**report.to_dict(), "folds": got} == alone


def test_the_batched_baselines_equal_fit_ols_on_each_table():
    # folds of unequal size (23 rows in 4 folds), and a table whose x is
    # constant, so that its OLS drops the column and the batch mixes widths
    d = make_lockstep_table(np.random.default_rng(3), 23)
    plan = k_folds(d, 4, 0)
    tables = [d.subset(plan.train_rows(fold)) for fold in range(plan.k)]
    x = d.column("x")
    tables.append(d.subset(np.flatnonzero(x == x[0])))
    tables.append(d.subset(np.arange(7)))
    assert len({t.n for t in tables}) > 2
    got = fit_ols_tables(tables)
    assert got == [fit_ols(np.arange(t.n), t) for t in tables]
    assert got[-2].method == "MEAN" and got[0].method == "OLS"
    assert fit_ols_tables([]) == []
    with pytest.raises(DataError, match="at least 1 row"):
        fit_ols_tables([tables[0], d.subset([])])
    other = Dataset([AttributeSchema("x", "numerical"), AttributeSchema("y", "numerical",
                                                                        role="target")],
                    {"x": x, "y": d.column("y")})
    with pytest.raises(DataError, match="one schema"):
        fit_ols_tables([tables[0], other])


def test_fold_seconds_leave_the_whole_table_fit_out():
    d = make_lockstep_table(np.random.default_rng(6), 150)
    cfg = RunConfig(theta=0.1, seed=2, folds=4)
    start = time.perf_counter()
    report, _, _ = cross_validate_and_fit(d, cfg)
    wall = time.perf_counter() - start
    seconds = [f.seconds for f in report.folds]
    assert len(seconds) == cfg.folds and all(s > 0.0 for s in seconds)
    assert sum(seconds) <= wall


def test_a_failing_fold_is_raised_ahead_of_the_whole_table_fit():
    # the candidate pools of the 3 folds hold 11, 13 and 16 rules, the whole
    # table's 10: at sd_q = 14 folds 0 and 1 and the whole table fail, and
    # fold 0's error is raised; at sd_q = 11 only the whole table fails
    d = make_lockstep_table(np.random.default_rng(7), 120)
    plan = k_folds(d, 3, 1)
    for sd_q, want in ((14, "[1, 11]"), (11, "[1, 10]")):
        cfg = RunConfig(theta=0.1, folds=3, seed=1, sd_q=sd_q)
        with pytest.raises(DataError, match=re.escape(want)):
            run_hipar(d.subset(plan.train_rows(0)) if sd_q == 14 else d, cfg)
        with pytest.raises(DataError, match=re.escape(f"= {sd_q} out of range {want}")):
            cross_validate_and_fit(d, cfg)
    cross_validate(d, cfg)  # no whole-table fit: every fold fits


def test_render_model_grammar():
    m = LinearModel(46.30591, {"rooms": 3.005712, "surface": -0.25}, "LASSO")
    assert render_model(m, "price") == "price = 46.3059 + 3.00571*rooms - 0.25*surface"
    assert render_model(LinearModel(7.0, {}, "MEAN"), "y") == "y = 7"


def test_serialize_round_trip(tmp_path, two_segment):
    cfg = RunConfig(theta=0.2, seed=3)
    _, pred = run_hipar(two_segment, cfg)
    path = tmp_path / "rules.json"
    serialize_rules(pred, str(path))
    back = deserialize_rules(str(path))
    assert back == pred
    rows = np.arange(two_segment.n)
    assert predict_batch(back, two_segment, rows).tolist() == \
        predict_batch(pred, two_segment, rows).tolist()
    for i in range(0, two_segment.n, 7):
        obs = observation(two_segment, i)
        assert predict(back, obs) == predict(pred, obs)


def test_a_predictor_stores_its_metric_lower_cased(tmp_path, two_segment):
    _, pred = run_hipar(two_segment, RunConfig(theta=0.2, seed=3))
    upper = replace(pred, metric="RMSE")
    assert upper.metric == "rmse" and upper == pred
    path = tmp_path / "rules.json"
    serialize_rules(upper, str(path))
    assert deserialize_rules(str(path)) == upper
    with pytest.raises(DataError, match="unknown error metric 'foo'"):
        replace(pred, metric="foo")


@pytest.mark.parametrize("field, value, message", [
    ("support_abs", 0, "rules[0].support_abs must be an integer >= 1, got 0"),
    ("train_error", math.nan, "rules[0].train_error must be a finite number >= 0, got nan"),
])
def test_a_predictor_the_loader_would_refuse_is_never_written(tmp_path, two_segment, field,
                                                              value, message):
    _, pred = run_hipar(two_segment, RunConfig(theta=0.2, seed=3))
    first = pred.rules.chosen[0]
    if field == "support_abs":
        bad = replace(first, support_abs=value)
    else:
        bad = replace(first, fitted=replace(first.fitted, train_error=value))
    rules = replace(pred.rules, chosen=[bad, *pred.rules.chosen[1:]])
    path = tmp_path / "rules.json"
    with pytest.raises(DataError, match=re.escape(message)):
        serialize_rules(replace(pred, rules=rules), str(path))
    assert not path.exists()


def test_a_numpy_float_in_a_predictor_is_written_as_a_float(tmp_path, two_segment):
    _, pred = run_hipar(two_segment, RunConfig(theta=0.2, seed=3))
    first = pred.rules.chosen[0]
    model = replace(first.fitted.model, intercept=np.float64(first.fitted.model.intercept))
    numpy_rule = replace(first, fitted=replace(first.fitted, model=model))
    rules = replace(pred.rules, chosen=[numpy_rule, *pred.rules.chosen[1:]])
    plain, numpy_path = tmp_path / "plain.json", tmp_path / "numpy.json"
    serialize_rules(pred, str(plain))
    serialize_rules(replace(pred, rules=rules), str(numpy_path))
    assert numpy_path.read_bytes() == plain.read_bytes()


@pytest.fixture
def rule_doc(tmp_path, two_segment):
    """A fitted rule file's JSON document; ``load(doc)`` writes a document
    and reads it back."""
    _, pred = run_hipar(two_segment, RunConfig(theta=0.2, seed=3))
    path = tmp_path / "rules.json"
    serialize_rules(pred, str(path))
    doc = json.loads(path.read_text())
    assert len(doc["rules"]) > 1

    def load(edited):
        path.write_text(json.dumps(edited))
        return deserialize_rules(str(path))

    return doc, load


def _edited(doc, rule_index, key, value):
    out = json.loads(json.dumps(doc))
    out["rules"][rule_index][key] = value
    return out


def test_loader_rejects_a_support_count_below_one(rule_doc):
    doc, load = rule_doc
    for value in (0, -3):
        message = f"rules[0].support_abs must be an integer >= 1, got {value!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            load(_edited(doc, 0, "support_abs", value))


def test_loader_rejects_a_support_share_outside_the_unit_interval(rule_doc):
    doc, load = rule_doc
    load(_edited(doc, 0, "support_rel", 1.0))
    for value in (0.0, -0.1, 1.5, math.nan, math.inf):
        message = f"rules[0].support_rel must be a number in (0, 1], got {value!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            load(_edited(doc, 0, "support_rel", value))


@pytest.mark.parametrize("key", ["train_error", "holdout_error"])
def test_loader_rejects_an_error_that_is_not_finite_and_non_negative(rule_doc, key):
    doc, load = rule_doc
    load(_edited(doc, 0, key, 0.0))
    for value in (-1.0, math.nan, math.inf):
        message = f"rules[0].{key} must be a finite number >= 0, got {value!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            load(_edited(doc, 0, key, value))


def test_loader_rejects_a_normalized_error_that_is_not_finite_and_positive(rule_doc):
    # the default rule's entry too, though it never weighs a vote
    doc, load = rule_doc
    default = next(i for i, r in enumerate(doc["rules"]) if r["is_default"])
    voter = next(i for i, r in enumerate(doc["rules"]) if r["chosen"] and not r["is_default"])
    for i in (default, voter):
        for value in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DataError, match="must be finite and > 0"):
                load(_edited(doc, i, "normalized_error", value))


def test_a_predictor_check_failing_on_load_names_the_file(rule_doc, tmp_path):
    doc, load = rule_doc
    with pytest.raises(DataError) as info:
        load(_edited(doc, 0, "normalized_error", 0.0))
    assert str(info.value).startswith(f"{tmp_path / 'rules.json'}: ")


def test_loader_rejects_an_unknown_condition_op(rule_doc, tmp_path):
    # any op but "eq" used to load as an interval: "lt" below 5 as x in (-inf,5)
    doc, load = rule_doc
    i = next(i for i, r in enumerate(doc["rules"]) if r["conditions"])
    edited = _edited(doc, i, "conditions",
                     [{"attribute": "x", "op": "lt", "lo": None, "hi": 5}])
    message = f"rules[{i}].conditions[0].op must be one of eq, in, got 'lt'"
    with pytest.raises(DataError, match=re.escape(message)) as info:
        load(edited)
    assert str(info.value).startswith(str(tmp_path / "rules.json"))


def test_loader_rejects_a_non_finite_objective_value(rule_doc):
    doc, load = rule_doc
    for value in (math.nan, math.inf, -math.inf):
        edited = json.loads(json.dumps(doc))
        edited["selection"]["objective_value"] = value
        message = f"selection.objective_value must be a finite number, got {value!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            load(edited)


def test_loader_rejects_swapped_default_flags(rule_doc):
    # a rule is the default rule exactly when its pattern is TRUE; a file that
    # says otherwise would make another rule the fallback, and it never votes
    doc, load = rule_doc
    default = next(i for i, r in enumerate(doc["rules"]) if r["is_default"])
    other = next(i for i, r in enumerate(doc["rules"]) if not r["is_default"])
    swapped = _edited(_edited(doc, default, "is_default", False), other, "is_default", True)
    for edited in (swapped, _edited(doc, default, "is_default", False)):
        with pytest.raises(DataError, match="pattern is TRUE"):
            load(edited)


def _model_edited(doc, key, value):
    out = json.loads(json.dumps(doc))
    out["rules"][0]["model"][key] = value
    return out


def test_loader_rejects_an_unknown_model_method(rule_doc):
    # serialize_rules used to write any method back as it was read
    doc, load = rule_doc
    for method in ("OLS", "LASSO", "OMP", "MEAN"):
        load(_model_edited(doc, "method", method))
    for value in ("FOO", "lasso", None, 1):
        with pytest.raises(DataError, match="method must be one of OLS, LASSO, OMP, MEAN"):
            load(_model_edited(doc, "method", value))


def test_loader_rejects_a_hyper_that_is_not_null_or_a_finite_real_at_least_zero(rule_doc):
    doc, load = rule_doc
    for value in (None, 0, 3, 0.25):
        load(_model_edited(doc, "hyper", value))
    for value in ("abc", "1", True, -0.5, math.nan, math.inf, [1.0]):
        message = f"rules[0].model.hyper must be a finite number >= 0 or null, got {value!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            load(_model_edited(doc, "hyper", value))


def test_loader_rejects_a_standardization_of_bad_numbers(rule_doc):
    doc, load = rule_doc
    name, (mean, std) = next(iter(doc["rules"][0]["model"]["standardization"].items()))
    where = f"rules[0].model.standardization[{name!r}]"
    for entry, message in (
        ([mean, -1.0], f"{where} must be a [mean, std] list with std > 0, got [{mean!r}, -1.0]"),
        ([mean, 0.0], f"{where} must be a [mean, std] list with std > 0, got [{mean!r}, 0.0]"),
        ([mean, math.inf], f"{where}[1] must be a finite number, got inf"),
        ([math.nan, std], f"{where}[0] must be a finite number, got nan"),
        ([mean, math.nan], f"{where}[1] must be a finite number, got nan"),
        ("12", f"{where} must be a [mean, std] list with std > 0, got '12'"),
        ({"0": mean, "1": std},
         f"{where} must be a [mean, std] list with std > 0, got {{'0': {mean!r}, '1': {std!r}}}"),
    ):
        with pytest.raises(DataError, match=re.escape(message)):
            load(_model_edited(doc, "standardization", {name: entry}))


# (path in the first rule, value, message): a number written as a string or a
# bool. float() used to read each, and saving the loaded predictor wrote 0.5,
# 1.0, 2.0, 1.5 and [0.0, 1.0] where the file held "0.5", true, "2", "1.5"
# and ["0", "1"].
_NOT_NUMBERS = [
    (("train_error",), "0.5", "train_error must be a finite number >= 0, got '0.5'"),
    (("model", "intercept"), True, "intercept must be a finite number, got True"),
    (("normalized_error",), "2", "normalized_error must be a number, got '2'"),
    (("model", "coefficients", "x"), "1.5", "coefficients['x'] must be a finite number, got '1.5'"),
    (("model", "standardization", "x"), ["0", "1"],
     "standardization['x'][0] must be a finite number, got '0'"),
    (("conditions",), [{"attribute": "x", "op": "in", "lo": "0.5", "hi": None}],
     "lo must be a finite number or null, got '0.5'"),
    (("conditions",), [{"attribute": "x", "op": "in", "lo": None, "hi": False}],
     "hi must be a finite number or null, got False"),
    (("model", "intercept"), 10**400, f"intercept must be a finite number, got {10**400!r}"),
]


def _set(doc, path, value):
    """A copy of the rule file with the first rule's field at ``path`` set to value."""
    out = json.loads(json.dumps(doc))
    obj = out["rules"][0]
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return out


@pytest.mark.parametrize("path, value, message", _NOT_NUMBERS,
                         ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
def test_loader_rejects_a_number_that_is_not_a_json_number(rule_doc, path, value, message):
    doc, load = rule_doc
    assert "x" in doc["rules"][0]["model"]["coefficients"]
    # the message names the field's place in the first rule, as rules[0].model.intercept
    with pytest.raises(DataError, match=r"rules\[0\]\.\S*" + re.escape(message)):
        load(_set(doc, path, value))


def test_loader_rejects_a_file_of_numbers_written_as_strings_and_bools(rule_doc):
    doc, load = rule_doc
    for path, value, _ in _NOT_NUMBERS[:5]:
        doc = _set(doc, path, value)
    message = "rules[0].model.intercept must be a finite number, got True"
    with pytest.raises(DataError, match=re.escape(message)):
        load(doc)


def test_loader_rejects_a_standardization_of_a_name_that_is_not_a_numerical_feature(rule_doc):
    doc, load = rule_doc
    load(_model_edited(doc, "standardization", {}))
    entry = [0.5, 0.25]
    for name in ("segment", "y", "nowhere"):
        with pytest.raises(DataError, match=f"standardization on '{name}', not a numerical"):
            load(_model_edited(doc, "standardization", {name: entry}))


def test_loader_rejects_an_unknown_solver(rule_doc):
    doc, load = rule_doc
    for solver in ("exact", "local-search", "top-q"):
        edited = json.loads(json.dumps(doc))
        edited["selection"]["solver"] = solver
        load(edited)
    for value in ("greedy", "", None):
        edited = json.loads(json.dumps(doc))
        edited["selection"]["solver"] = value
        with pytest.raises(DataError, match="solver must be one of exact, local-search, top-q"):
            load(edited)


@pytest.mark.parametrize("name", [["segment"], {"segment": 1}, 5], ids=["list", "dict", "int"])
def test_loader_rejects_a_schema_name_that_is_not_a_string(rule_doc, name):
    # a list or a dict raised an unhashable TypeError; an integer loaded, and
    # predicting then asked the input for a column named 5
    doc, load = rule_doc
    edited = json.loads(json.dumps(doc))
    edited["schema"][0]["name"] = name
    message = f"schema[0].name must be a string, got {name!r}"
    with pytest.raises(DataError, match=re.escape(message)):
        load(edited)


def test_loader_rejects_a_target_that_is_not_the_schemas(rule_doc):
    # a wrong target used to load, and the next save wrote the schema's
    doc, load = rule_doc
    assert doc["target"] == "y"
    for target in ("segment", "x", "Y", ""):
        message = f"target must be 'y' as in the schema, got {target!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            load(dict(doc, target=target))


def test_loader_rejects_a_pattern_that_is_not_the_rendering_of_its_conditions(rule_doc):
    # a wrong pattern text used to load, and the next save wrote the rendering
    doc, load = rule_doc
    for i, rule in enumerate(doc["rules"]):
        for pattern in ("nonsense", "TRUE" if rule["conditions"] else "x in [0,1)",
                        f" {rule['pattern']}"):
            message = f"rules[{i}].pattern must be {rule['pattern']!r}, got {pattern!r}"
            with pytest.raises(DataError, match=re.escape(message)):
                load(_edited(doc, i, "pattern", pattern))


# the 18 values each field of a rule file is set to by the mutation test below
_JUNK = [None, True, False, 0, -1, 1, 2.5, -0.0, 1e308, 10**400, "", "x", "0.5", [], [1], {},
         {"a": 1}, math.nan]


def _places(node, path=()):
    """The key path of every node under a parsed JSON node: inner ones and leaves."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield (*path, key)
        yield from _places(child, (*path, key))


def test_every_single_field_mutation_of_a_rule_file_is_rejected_or_resaves_stably(tmp_path,
                                                                                   two_segment):
    # the loader's contract: a file is a DataError, or it loads to a Predictor
    # that saves to bytes which load and save again unchanged; any other
    # exception (a crash) fails. Every node, leaf or not, is set to each junk
    # value and deleted, one at a time.
    _, pred = run_hipar(two_segment, RunConfig(theta=0.2, seed=3))
    mutated, saved = tmp_path / "mutated.json", tmp_path / "saved.json"
    serialize_rules(pred, str(saved))
    doc = json.loads(saved.read_text())
    assert len(doc["rules"]) == 3
    outcomes = {"rejected": 0, "resaved": 0}
    for place in _places(doc):
        for value in [*_JUNK, "<deleted>"]:
            edited = json.loads(json.dumps(doc))
            parent = edited
            for key in place[:-1]:
                parent = parent[key]
            if value == "<deleted>":
                del parent[place[-1]]
            else:
                parent[place[-1]] = value
            mutated.write_text(json.dumps(edited))
            try:
                try:
                    loaded = deserialize_rules(str(mutated))
                except DataError:
                    outcomes["rejected"] += 1
                    continue
                serialize_rules(loaded, str(saved))
                once = saved.read_bytes()
                serialize_rules(deserialize_rules(str(saved)), str(saved))
            except Exception as exc:
                pytest.fail(f"{place} = {value!r}: {type(exc).__name__}: {exc}")
            assert saved.read_bytes() == once, (place, value)
            outcomes["resaved"] += 1
    assert outcomes["rejected"] > 0 and outcomes["resaved"] > 0, outcomes
    assert sum(outcomes.values()) == 19 * len(list(_places(doc)))


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

    def rule(pattern, intercept):
        fitted = FittedRuleModel(LinearModel(intercept, {}, "MEAN"), 0.5, 0.5)
        return HybridRule(pattern, fitted, 4, 0.4)

    low = rule(Pattern([Interval("x", -math.inf, 1000000.15)]), 1.0)
    high = rule(Pattern([Interval("x", -math.inf, 1000000.25)]), 5.0)
    assert low.key == high.key and low.pattern != high.pattern
    schema = [AttributeSchema("x", "numerical"), AttributeSchema("y", "numerical", role="target")]
    pred = Predictor(
        rules=SelectedRuleSet([low, high], 0.0, "exact", True),
        default_rule=rule(TOP, 0.0),
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
    cfg = RunConfig(theta=0.2, seed=3)
    _, pred1 = run_hipar(two_segment, cfg)
    _, pred2 = run_hipar(two_segment, cfg)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    serialize_rules(pred1, str(p1))
    serialize_rules(pred2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_rule_file_structure_and_golden_text(tmp_path, toy):
    cfg = RunConfig(theta=1 / 3, seed=0)
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
        r"|^[\w-]+ in \[-?[\d.eE+-]+,-?[\d.eE+-]+\)$"
        r"|^[\w-]+ in \[-?[\d.eE+-]+,inf\)$"
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
    assert Interval("a", 5.0, m.inf).render() == "a in [5,inf)"
    assert Interval("a", 2.0, 7.5).render() == "a in [2,7.5)"


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
    cfg = RunConfig(theta=0.2, seed=0)
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


def _edited_rule_file(tmp_path, two_segment, edit):
    _, pred = run_hipar(two_segment, RunConfig(theta=0.2, seed=3))
    path = tmp_path / "rules.json"
    serialize_rules(pred, str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def _no_target(doc):
    for s in doc["schema"]:
        s["role"] = "feature"


@pytest.mark.parametrize("edit, message", [
    (_no_target, "exactly one target"),
    (lambda doc: doc["schema"].append(doc["schema"][0]), "duplicate attribute names"),
    (lambda doc: doc["schema"][0].update(role="label"),
     re.escape("schema[0].role must be one of feature, target, got 'label'")),
], ids=["no-target", "duplicate-name", "unknown-role"])
def test_deserialize_checks_the_schema_as_a_dataset_does(tmp_path, two_segment, edit, message):
    # such a schema used to load, and serialize_rules then failed on it with
    # a bare StopIteration (no target) or kept both attributes (a duplicate)
    with pytest.raises(DataError, match=message):
        deserialize_rules(_edited_rule_file(tmp_path, two_segment, edit))


@pytest.mark.parametrize("value", [2.7, 2.0, True, "2"])
def test_deserialize_rejects_a_support_that_is_not_an_integer(tmp_path, two_segment, value):
    # int() would truncate 2.7 to 2
    def edit(doc):
        doc["rules"][0]["support_abs"] = value

    message = f"rules[0].support_abs must be an integer >= 1, got {value!r}"
    with pytest.raises(DataError, match=re.escape(message)):
        deserialize_rules(_edited_rule_file(tmp_path, two_segment, edit))
    assert deserialize_rules(_edited_rule_file(tmp_path, two_segment, lambda doc: None))


def test_predictor_checks_its_schema(two_segment):
    _, pred = run_hipar(two_segment, RunConfig(theta=0.2, seed=3))
    no_target = [AttributeSchema(a.name, a.kind) for a in pred.schema]
    with pytest.raises(DataError, match="exactly one target"):
        Predictor(pred.rules, pred.default_rule, pred.normalized_errors, no_target, pred.metric)
    with pytest.raises(DataError, match="duplicate attribute names"):
        Predictor(pred.rules, pred.default_rule, pred.normalized_errors,
                  [*pred.schema, pred.schema[0]], pred.metric)


def test_raising_theta_never_increases_chosen_candidates():
    d = make_two_segment(n=150, seed=13)
    from hipar import enumerate_candidates, hipar_init

    counts = []
    for theta in (0.05, 0.1, 0.25, 0.5):
        cfg = RunConfig(theta=theta, seed=1)
        cands = enumerate_candidates(d, hipar_init(d, cfg), cfg)
        counts.append(len(cands.rules))
    assert all(b <= a for a, b in zip(counts, counts[1:]))
