import re

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
    predict_columns,
)
from hipar.data import CodedColumn, code

from .conftest import observation

SCHEMA = [
    AttributeSchema("g", "categorical"),
    AttributeSchema("x", "numerical"),
    AttributeSchema("y", "numerical", role="target"),
]


def _rule(pattern, model):
    fitted = FittedRuleModel(model, 0.5, 0.5)
    return HybridRule(pattern, fitted, 4, 0.4)


def _predictor(rules, ebar, default_value=100.0, default_chosen=False, schema=SCHEMA):
    default = _rule(TOP, LinearModel(default_value, {}, "MEAN"))
    chosen = list(rules) + ([default] if default_chosen else [])
    errors = dict(ebar)
    errors.setdefault(TOP, 0.9)
    return Predictor(
        rules=SelectedRuleSet(chosen=chosen, objective_value=0.0, solver="exact", proof=True),
        default_rule=default,
        normalized_errors=errors,
        schema=schema,
        metric="rmse",
    )


def _tested_levels(pred):
    return {c.value for r, _ in pred.voters for c in r.pattern.conditions if isinstance(c, Equals)}


def test_covering_none():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    pred = _predictor([rule], {rule.pattern: 0.5})
    assert covering_rules(pred, {"g": "b", "x": 0.0}) == []


def test_covering_match_and_order():
    r1 = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    r2 = _rule(Pattern([Equals("g", "a"), Equals("g2", "zz")]), LinearModel(2.0, {}, "MEAN"))
    schema = SCHEMA + [AttributeSchema("g2", "categorical")]
    pred = _predictor([r2, r1], {r1.pattern: 0.5, r2.pattern: 0.5}, schema=schema)
    got = covering_rules(pred, {"g": "a", "g2": "zz", "x": 1.0})
    assert [r.pattern for r in got] == [r1.pattern, r2.pattern]  # pattern order


def test_voters_whose_texts_collide_are_ordered_by_their_bounds():
    # both render 'x in (-inf,1e+06)'; the bounds, not the text, order the vote
    low, high = (Pattern([Interval("x", -np.inf, 1e6 + b)]) for b in (0.1, 0.2))
    assert low.key == high.key
    rules = [_rule(p, LinearModel(v, {}, "MEAN")) for p, v in ((high, 2.0), (low, 1.0))]
    for chosen in (rules, rules[::-1]):
        pred = _predictor(chosen, {r.pattern: 0.5 for r in rules})
        assert [r.pattern for r, _ in pred.voters] == [low, high]
        assert [r.pattern for r in covering_rules(pred, {"g": "a", "x": 0.0})] == [low, high]


def test_covering_unknown_category_open_world():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    pred = _predictor([rule], {rule.pattern: 0.5})
    assert covering_rules(pred, {"g": "never-seen", "x": 0.0}) == []


def test_covering_missing_feature_rejected():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    pred = _predictor([rule], {rule.pattern: 0.5})
    with pytest.raises(DataError):
        covering_rules(pred, {"g": "a"})


def test_predict_single_rule_weight_one():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(3.0, {"x": 2.0}, "OLS"))
    pred = _predictor([rule], {rule.pattern: 0.3})
    assert predict(pred, {"g": "a", "x": 2.0}) == pytest.approx(7.0)


def test_predict_two_rules_weighted_vote():
    # ebar 0.2 / 0.4 with votes 10 / 16: weights 2/3 and 1/3, answer exactly 12
    r1 = _rule(Pattern([Equals("g", "a")]), LinearModel(10.0, {}, "MEAN"))
    r2 = _rule(Pattern([Interval("x", 0.0, 1.0)]), LinearModel(16.0, {}, "MEAN"))
    pred = _predictor([r1, r2], {r1.pattern: 0.2, r2.pattern: 0.4})
    assert predict(pred, {"g": "a", "x": 0.5}) == 12.0


def test_predict_fallback_to_default():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    pred = _predictor([rule], {rule.pattern: 0.5}, default_value=42.0)
    assert predict(pred, {"g": "zzz", "x": 0.0}) == 42.0


def test_predict_non_finite_feature_rejected():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    pred = _predictor([rule], {rule.pattern: 0.5})
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
            ebar[r.pattern] = float(rng.uniform(0.01, 1.0))
        schema = [AttributeSchema(f"g{i}", "categorical") for i in range(k)]
        schema.append(AttributeSchema("y", "numerical", role="target"))
        default = _rule(TOP, LinearModel(0.0, {}, "MEAN"))
        ebar[TOP] = 0.5
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
    ebar = {r1.pattern: 0.3, r2.pattern: 0.6}
    p_ab = _predictor([r1, r2], ebar)
    p_ba = _predictor([r2, r1], ebar)
    obs = {"g": "a", "x": 0.5}
    assert predict(p_ab, obs) == predict(p_ba, obs)


def test_chosen_default_excluded_from_vote():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(10.0, {}, "MEAN"))
    covered = {"g": "a", "x": 0.0}
    # the default rule answers only for uncovered points, even when chosen
    pred = _predictor([rule], {rule.pattern: 0.2}, default_value=0.0, default_chosen=True)
    assert predict(pred, covered) == 10.0
    assert covering_rules(pred, covered) == [rule]
    assert predict(pred, {"g": "b", "x": 0.0}) == 0.0


def test_rule_on_non_feature_rejected_at_construction():
    on_g2 = _rule(Pattern([Equals("g2", "a")]), LinearModel(1.0, {}, "MEAN"))
    with pytest.raises(DataError, match="g2"):
        _predictor([on_g2], {on_g2.pattern: 0.5})
    on_target = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {"y": 2.0}, "OLS"))
    with pytest.raises(DataError, match="'y'"):
        _predictor([on_target], {on_target.pattern: 0.5})
    on_category = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {"g": 2.0}, "OLS"))
    with pytest.raises(DataError, match="'g'"):
        _predictor([on_category], {on_category.pattern: 0.5})
    interval_on_category = _rule(Pattern([Interval("g", 0.0, 1.0)]), LinearModel(1.0, {}, "MEAN"))
    with pytest.raises(DataError, match="'g'"):
        _predictor([interval_on_category], {interval_on_category.pattern: 0.5})
    # the default rule is checked too
    with pytest.raises(DataError, match="'z'"):
        Predictor(
            rules=SelectedRuleSet([], 0.0, "exact", True),
            default_rule=_rule(TOP, LinearModel(0.0, {"z": 1.0}, "OLS")),
            normalized_errors={TOP: 1.0},
            schema=SCHEMA,
            metric="rmse",
        )


def test_default_rule_must_be_the_true_rule():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    with pytest.raises(DataError, match="not TRUE"):
        Predictor(
            rules=SelectedRuleSet([], 0.0, "exact", True),
            default_rule=rule,
            normalized_errors={rule.pattern: 1.0},
            schema=SCHEMA,
            metric="rmse",
        )


def test_normalized_errors_name_exactly_the_chosen_and_default_rules():
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    other = Pattern([Equals("g", "b")])
    _predictor([rule], {rule.pattern: 0.5})
    for ebar in ({}, {rule.pattern: 0.5, other: 0.5}):  # one missing, one extra
        with pytest.raises(DataError, match="exactly the chosen and default rules"):
            _predictor([rule], ebar)
    with pytest.raises(DataError, match="exactly the chosen and default rules"):
        Predictor(  # no entry for the default rule
            rules=SelectedRuleSet([rule], 0.0, "exact", True),
            default_rule=_rule(TOP, LinearModel(0.0, {}, "MEAN")),
            normalized_errors={rule.pattern: 0.5},
            schema=SCHEMA,
            metric="rmse",
        )


def test_predict_batch_rejects_a_dataset_without_a_feature(two_segment):
    # the predictor's schema wants "g" and "x"; the dataset holds "segment" and "x"
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    pred = _predictor([rule], {rule.pattern: 0.5})
    with pytest.raises(DataError, match="'g'"):
        predict_batch(pred, two_segment, [3])


def test_predict_batch_matches_pointwise(two_segment):
    from hipar import RunConfig, run_hipar

    rs, pred = run_hipar(two_segment, RunConfig(theta=0.2, seed=3))
    rows = np.arange(two_segment.n)
    batch = predict_batch(pred, two_segment, rows)
    single = [predict(pred, observation(two_segment, int(i))) for i in rows]
    assert np.array_equal(batch, np.array(single))
    # permuting rows permutes outputs identically
    perm = rows[::-1]
    assert np.array_equal(predict_batch(pred, two_segment, perm), batch[::-1])
    assert len(predict_batch(pred, two_segment, np.empty(0, dtype=int))) == 0
    assert np.all(np.isfinite(batch))


def test_vote_adds_left_to_right_in_voter_order():
    # a compensated sum (Python 3.12's sum()) would give (1e16 + 1 - 1e16) / 3 = 1/3
    schema = [AttributeSchema(f"x{i}", "numerical") for i in (1, 2, 3)]
    schema.append(AttributeSchema("y", "numerical", role="target"))
    rules = [
        _rule(Pattern([Interval(f"x{i}", -np.inf, np.inf)]), LinearModel(v, {}, "MEAN"))
        for i, v in ((1, 1e16), (2, 1.0), (3, -1e16))
    ]
    pred = _predictor(rules, {r.pattern: 1.0 for r in rules}, schema=schema)
    assert [r.fitted.model.intercept for r, _ in pred.voters] == [1e16, 1.0, -1e16]
    d = Dataset(schema, {a.name: np.zeros(1) for a in schema})
    assert predict(pred, observation(d, 0)) == 0.0
    assert predict_batch(pred, d, [0]).tolist() == [0.0]


LEVELS = ("a", "b", "c", "d")  # rules test a..c only: "d" is a category no rule has seen


def _random_case(rng, n):
    """A mixed dataset and a predictor of 3..6 overlapping voters with linear
    models; a narrow default-free cover leaves rows to the default model."""
    schema = [
        AttributeSchema("g", "categorical"),
        AttributeSchema("h", "categorical"),
        AttributeSchema("u", "numerical"),
        AttributeSchema("v", "numerical"),
        AttributeSchema("y", "numerical", role="target"),
    ]
    d = Dataset(schema, {
        "g": rng.choice(LEVELS, n).astype(object),
        "h": rng.choice(LEVELS, n).astype(object),
        "u": np.round(rng.uniform(0.0, 10.0, n), 1),
        "v": rng.normal(0.0, 3.0, n),
        "y": rng.normal(0.0, 1.0, n),
    })
    conds = [Equals(a, v) for a in ("g", "h") for v in LEVELS[:3]]
    conds += [Interval("u", -np.inf, 4.0), Interval("u", 2.5, 7.5), Interval("v", 0.0, np.inf)]
    rules = {}
    while len(rules) < int(rng.integers(3, 7)):
        by_attr = {}
        for i in rng.permutation(len(conds))[: int(rng.integers(1, 3))]:
            by_attr.setdefault(conds[i].attribute, conds[i])
        coefs = {a: float(rng.normal(0.0, 2.0)) for a in ("u", "v") if rng.random() < 0.6}
        model = LinearModel(float(rng.normal(0.0, 10.0)), coefs, "OLS" if coefs else "MEAN")
        rule = _rule(Pattern(by_attr.values()), model)
        rules[rule.pattern] = rule
    ebar = {k: float(rng.uniform(0.05, 2.0)) for k in rules}
    default = _rule(TOP, LinearModel(float(rng.normal()), {"u": 0.3, "v": -1.7}, "OLS"))
    ebar[TOP] = 1.0
    pred = Predictor(rules=SelectedRuleSet(list(rules.values()), 0.0, "exact", True),
                     default_rule=default, normalized_errors=ebar, schema=schema, metric="rmse")
    return d, pred


@pytest.mark.parametrize("seed", range(8))
def test_predict_batch_equals_row_wise_predict_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    d, pred = _random_case(rng, int(rng.integers(20, 300)))
    assert len(pred.voters) >= 3
    for rows in (np.arange(d.n), rng.permutation(d.n), rng.choice(d.n, d.n // 3),
                 np.empty(0, dtype=int)):
        batch = predict_batch(pred, d, rows)
        single = [predict(pred, observation(d, int(i))) for i in rows]
        assert batch.tolist() == single  # == on floats: equal bits, as none is NaN
    covers = [len(covering_rules(pred, observation(d, i))) for i in range(d.n)]
    assert 0 in covers and max(covers) >= 2
    assert "d" in d.column("g").tolist()


def test_predict_batch_rejects_a_feature_of_another_kind(tmp_path):
    from hipar import RunConfig, load_csv, run_hipar, write_csv

    from .conftest import make_two_segment

    # levels "1" and "2" look numeric: load_csv infers "g" as numerical unless
    # the override names it
    d0 = make_two_segment(noise_frac=0.01)
    cells = np.where(d0.column("segment") == "A", "1", "2").astype(object)
    path = str(tmp_path / "levels.csv")
    write_csv(Dataset(SCHEMA, {"g": cells, "x": d0.column("x"), "y": d0.column("y")}), path)
    d = load_csv(path, target="y", categorical_overrides=["g"])
    _, pred = run_hipar(d, RunConfig(theta=0.2))
    assert _tested_levels(pred) == {"1", "2"}
    inferred = load_csv(path, target="y")
    assert inferred.attribute("g").kind == "numerical"
    # converting the column would answer every row with the default rule
    with pytest.raises(DataError, match="^feature 'g' is categorical in the rules "
                                        "but numerical in the dataset$"):
        predict_batch(pred, inferred, range(inferred.n))
    text_x = np.array([repr(v) for v in d0.column("x").tolist()], dtype=object)
    as_text = Dataset([SCHEMA[0], AttributeSchema("x", "categorical"), SCHEMA[2]],
                      {"g": cells, "x": text_x, "y": d0.column("y")})
    with pytest.raises(DataError, match="^feature 'x' is numerical in the rules "
                                        "but categorical in the dataset$"):
        predict_batch(pred, as_text, [0])
    # single-row predict rejects a row of that table: its cell is the float 1.0
    with pytest.raises(DataError, match="^categorical feature 'g' is not a string: 1.0$"):
        predict(pred, observation(inferred, 0))
    rows = np.random.default_rng(0).permutation(d.n)
    single = [predict(pred, observation(d, int(i))) for i in rows]
    assert predict_batch(pred, d, rows).tolist() == single


@pytest.mark.parametrize("value", [1.0, 1, None, b"a", ("a",), ["a"]])
def test_predict_rejects_a_non_string_category(value):
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    pred = _predictor([rule], {rule.pattern: 0.5})
    with pytest.raises(DataError, match="^categorical feature 'g' is not a string"):
        predict(pred, {"g": value, "x": 0.0})
    with pytest.raises(DataError, match="'g'"):
        covering_rules(pred, {"g": value, "x": 0.0})


def test_predict_paths_agree_on_exact_levels(tmp_path):
    # the scoring file holds a level no rule tests ("zzz", "e"), levels that
    # differ only by a trailing NUL, and non-ASCII ones; no row holds "none",
    # which a rule tests
    from hipar import deserialize_rules, load_csv, serialize_rules
    from hipar.cli import main
    from hipar.data import read_columns

    tested = ["a", "a\x00", "é", "日本", "none"]
    rules = [_rule(Pattern([Equals("g", v)]), LinearModel(float(i), {"x": 1.0 + i}, "OLS"))
             for i, v in enumerate(tested)]
    rules.append(_rule(Pattern([Equals("g", "a"), Interval("x", 0.0, np.inf)]),
                       LinearModel(-7.0, {}, "MEAN")))
    rules_path = tmp_path / "rules.json"
    serialize_rules(_predictor(rules, {r.pattern: 0.3 + 0.1 * i for i, r in enumerate(rules)}),
                    str(rules_path))
    pred = deserialize_rules(str(rules_path))
    cells = ["a", "a\x00", "a\x00\x00", "é", "e", "日本", "zzz", "a", "a\x00"]
    xs = [0.5, 0.5, 0.5, -1.25, 2.0, 3.5, 0.5, -0.5, -2.0]
    scoring = tmp_path / "score.csv"
    scoring.write_text("g,x,y\n" + "".join(f"{g},{x!r},0\n" for g, x in zip(cells, xs)),
                       encoding="utf-8")
    want = [predict(pred, {"g": g, "x": x}) for g, x in zip(cells, xs)]
    assert len(set(want[:3])) == 3  # "a", "a\x00" and "a\x00\x00" are three levels
    assert want[2] == want[6] == 100.0  # the default answers for unseen levels
    out = tmp_path / "out.txt"
    assert main(["predict", "--rules", str(rules_path), "--input", str(scoring),
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "".join(f"{v!r}\n" for v in want)
    kinds = {a.name: a.kind for a in pred.features}
    assert predict_columns(pred, *read_columns(str(scoring), kinds)).tolist() == want
    d = load_csv(str(scoring), target="y", categorical_overrides=["g"])
    assert "none" not in d.column("g").levels
    assert predict_batch(pred, d, range(d.n)).tolist() == want
    assert [predict(pred, observation(d, i)) for i in range(d.n)] == want


@pytest.fixture(scope="module")
def digit_levels():
    """Rules fit on levels "1"/"2" of g: y = 1 + 2x on "1", 10 - 3x on "2"."""
    from hipar import RunConfig, run_hipar

    rng = np.random.default_rng(0)
    n = 400
    g = np.where(rng.random(n) < 0.5, "1", "2").astype(object)
    x = rng.uniform(0.0, 1.0, n)
    y = np.where(g == "1", 1 + 2 * x, 10 - 3 * x) + rng.normal(0.0, 0.1, n)
    _, pred = run_hipar(Dataset(SCHEMA, {"g": g, "x": x, "y": y}), RunConfig(theta=0.2))
    assert _tested_levels(pred) == {"1", "2"}
    return pred


def test_predict_columns_accepts_good_columns(digit_levels):
    cols = {"g": np.array(["1", "3", "2"], dtype=object), "x": np.array([0.5, 0.5, 0.5])}
    want = [predict(digit_levels, {"g": g, "x": 0.5}) for g in cols["g"]]
    assert predict_columns(digit_levels, cols, 3).tolist() == want
    # plain lists of cells give the same bits
    assert predict_columns(digit_levels, {"g": ["1", "3", "2"], "x": [0.5] * 3}, 3).tolist() == want


def test_predict_columns_rejects_a_non_string_category(digit_levels):
    # 1.0 equals no level: it used to take the default rule silently
    cols = {"g": np.array(["1", 1.0, "2"], dtype=object), "x": np.array([0.5, 0.5, 0.5])}
    with pytest.raises(DataError, match="^categorical feature 'g' is not a string: 1.0$"):
        predict_columns(digit_levels, cols, 3)
    with pytest.raises(DataError, match="^categorical feature 'g' is not a string: None$"):
        predict_columns(digit_levels, {"g": ["1", None], "x": [0.5, 0.5]}, 2)


@pytest.mark.parametrize("x", [[0.5, np.nan], [0.5, np.inf], ["0.5", "a"], [1, 2]])
def test_predict_columns_rejects_a_numerical_column_of_other_than_finite_floats(digit_levels, x):
    # a NaN used to give a NaN prediction
    with pytest.raises(DataError, match="^feature 'x' is not a column of 2 finite floats$"):
        predict_columns(digit_levels, {"g": np.array(["1", "2"], dtype=object), "x": x}, 2)


def test_predict_columns_rejects_a_missing_column(digit_levels):
    # a missing column used to raise KeyError
    with pytest.raises(DataError, match="^columns are missing feature 'x'$"):
        predict_columns(digit_levels, {"g": np.array(["1", "2"], dtype=object)}, 2)


def test_predict_columns_rejects_a_column_of_another_length(digit_levels):
    # a short column used to raise IndexError
    g, x = np.array(["1", "2", "1"], dtype=object), np.array([0.5, 0.5, 0.5])
    with pytest.raises(DataError, match="^feature 'g' holds 2 cells, expected 3$"):
        predict_columns(digit_levels, {"g": g[:2], "x": x}, 3)
    for bad in (x[:2], 0.5, x.reshape(3, 1)):
        with pytest.raises(DataError, match="^feature 'x' is not a column of 3 finite floats$"):
            predict_columns(digit_levels, {"g": g, "x": bad}, 3)


def test_predict_columns_scores_a_coded_column_as_read(digit_levels):
    # the level table holds values no voter tests ("0", " 1", "3") and one no
    # cell holds ("9"), as a subset's column keeps its parent's table
    cells = ["1", "0", " 1", "2", "3", "1", "2", "2"]
    x = np.linspace(-1.0, 2.0, len(cells))
    col = code([*cells, "9"])[:len(cells)]
    assert col.levels == (" 1", "0", "1", "2", "3", "9") and col.tolist() == cells
    want = [predict(digit_levels, {"g": g, "x": v}) for g, v in zip(cells, x.tolist())]
    got = predict_columns(digit_levels, {"g": col, "x": x}, len(cells))
    assert got.tolist() == want  # == on floats: equal bits, as none is NaN
    assert got.tolist() == predict_columns(digit_levels, {"g": cells, "x": x}, len(cells)).tolist()


@pytest.mark.parametrize("levels, bad", [
    (("1", 2.0), 2.0),
    (("1", None), None),
    (("1", b"1"), b"1"),
], ids=["float", "None", "bytes"])
def test_predict_columns_rejects_a_coded_column_with_a_non_string_level(digit_levels, levels, bad):
    # predict rejects the cell, and no such column can be made to score
    with pytest.raises(DataError, match=f"^categorical feature 'g' is not a string: {bad!r}$"):
        predict(digit_levels, {"g": bad, "x": 0.5})
    with pytest.raises(DataError, match=f"^level {bad!r} is not a string$"):
        CodedColumn(levels, np.array([0, 1]))


@pytest.mark.parametrize("name", ["g", "h"])
@pytest.mark.parametrize("value", [1, None, b"a", ["a"]], ids=["int", "None", "bytes", "list"])
def test_predict_columns_rejects_a_non_string_cell_as_predict_does(name, value):
    # no voter tests h: its cells used to go unread, so predict_columns
    # answered where predict raised; an unhashable cell raised TypeError
    rule = _rule(Pattern([Equals("g", "a")]), LinearModel(1.0, {}, "MEAN"))
    schema = SCHEMA + [AttributeSchema("h", "categorical")]
    pred = _predictor([rule], {rule.pattern: 0.5}, schema=schema)
    message = f"^categorical feature '{name}' is not a string: {re.escape(repr(value))}$"
    with pytest.raises(DataError, match=message):
        predict(pred, {"g": "a", "h": "a", "x": 0.0} | {name: value})
    with pytest.raises(DataError, match=message):
        predict_columns(pred, {"g": ["a", "b"], "h": ["a", "b"], "x": np.zeros(2)}
                        | {name: ["a", value]}, 2)


def test_predict_batch_on_a_loaded_file_equals_hipar_predict(tmp_path, digit_levels):
    # labels of mixed widths, padded cells, a label longer after the first row
    # and a level no voter tests: the CLI reads the file with read_columns
    from hipar import load_csv, serialize_rules
    from hipar.cli import main

    rules = tmp_path / "rules.json"
    serialize_rules(digit_levels, str(rules))
    cells = ["1", " 2", "22", "2 ", "1", "\xa01", "é", "2"]
    scoring = tmp_path / "score.csv"
    scoring.write_text("g,x,y\n" + "".join(f"{g},{0.125 * i!r},0\n" for i, g in enumerate(cells)),
                       encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["predict", "--rules", str(rules), "--input", str(scoring), "--out", str(out)]) == 0
    d = load_csv(str(scoring), target="y", categorical_overrides=["g"])
    batch = predict_batch(digit_levels, d, range(d.n)).tolist()
    assert out.read_text(encoding="utf-8") == "".join(f"{v!r}\n" for v in batch)
    assert batch == [predict(digit_levels, {"g": g.strip(), "x": 0.125 * i})
                     for i, g in enumerate(cells)]


CATS = ("c0", "c1", "c2")
CELLS = ("a", "b", "c", "d")  # cells; no rule tests "d"
TESTED = ("a", "b", "c", "zz")  # rule values; no cell holds "zz"


def _run_case(rng):
    """A predictor over three categorical and two numerical features whose
    voters form several equality groups, with interval-only and mixed voters
    and a voter on a level no cell holds, beside random ones."""
    schema = [*(AttributeSchema(a, "categorical") for a in CATS),
              AttributeSchema("u", "numerical"), AttributeSchema("v", "numerical"),
              AttributeSchema("y", "numerical", role="target")]
    intervals = [Interval("u", -np.inf, 4.0), Interval("u", 2.5, 7.5), Interval("v", 0.0, np.inf)]
    patterns = {
        Pattern([Interval("u", 2.5, 7.5)]),
        Pattern([Equals("c0", "zz")]),
        Pattern([Equals("c0", "a"), Interval("v", 0.0, np.inf)]),
        Pattern([Equals("c0", "b"), Equals("c2", "a")]),
    }
    while len(patterns) < 12:
        conds = {a: Equals(a, str(rng.choice(TESTED))) for a in CATS if rng.random() < 0.5}
        for c in intervals:
            if rng.random() < 0.2:
                conds.setdefault(c.attribute, c)
        if conds:
            patterns.add(Pattern(conds.values()))
    rules = []
    for p in sorted(patterns, key=lambda p: p.order):  # draws independent of the hash seed
        coefs = {a: float(rng.normal(0.0, 2.0)) for a in ("u", "v") if rng.random() < 0.6}
        model = LinearModel(float(rng.normal(0.0, 10.0)), coefs, "OLS" if coefs else "MEAN")
        rules.append(_rule(p, model))
    ebar = {r.pattern: float(rng.uniform(0.05, 2.0)) for r in rules}
    default = _rule(TOP, LinearModel(float(rng.normal()), {"u": 0.3, "v": -1.7}, "OLS"))
    ebar[TOP] = 1.0
    pred = Predictor(rules=SelectedRuleSet(rules, 0.0, "exact", True), default_rule=default,
                     normalized_errors=ebar, schema=schema, metric="rmse")
    shapes = {attrs for attrs, _ in pred.groups}
    assert () in shapes and len(shapes) >= 3
    return pred


def _vote_forms(cells):
    """``str`` cells as given to ``predict_columns`` and to ``reference_vote``:
    a list, an object array, a ``CodedColumn`` on the cells' own levels, and
    one on a larger table ("zz" and levels no cell holds, which moves every
    code)."""
    as_array, coded = np.array(cells, dtype=object), code(cells)
    on_more = code([*cells, " a", "0", "zz"])[:len(cells)]
    assert on_more.tolist() == list(cells)
    return [(cells, as_array), (as_array, as_array), (coded, coded), (on_more, on_more)]


@pytest.mark.parametrize("seed", range(6))
def test_predict_columns_equals_the_mask_vote_and_predict_bit_for_bit(seed):
    from .oracles import reference_vote

    rng = np.random.default_rng(seed)
    pred = _run_case(rng)
    for n in (0, 1, int(rng.integers(50, 400))):
        cells = {a: [str(v) for v in rng.choice(CELLS, n)] for a in CATS}
        nums = {"u": np.round(rng.uniform(0.0, 10.0, n), 1), "v": rng.normal(0.0, 3.0, n)}
        want = [predict(pred, {a: cells[a][i] for a in CATS}
                        | {a: float(nums[a][i]) for a in nums}) for i in range(n)]
        forms = {a: _vote_forms(cells[a]) for a in CATS}
        for form in range(4):
            got = predict_columns(pred, {a: forms[a][form][0] for a in CATS} | nums, n)
            ref = reference_vote(pred, {a: forms[a][form][1] for a in CATS} | nums, n)
            assert got.tolist() == ref.tolist() == want  # ==: equal bits, as none is NaN
        if n > 50:
            covers = [len(covering_rules(pred, {a: cells[a][i] for a in CATS}
                                         | {a: float(nums[a][i]) for a in nums}))
                      for i in range(n)]
            assert 0 in covers and max(covers) >= 3


@pytest.mark.parametrize("size, k, past", [(300, 2, 2**16), (2**16 + 1, 4, 2**63)],
                         ids=["past-2^16", "past-2^63"])
def test_predict_columns_on_level_tables_whose_product_passes(size, k, past):
    # a voter group's cells are codes in mixed radix over its columns' level
    # tables: 300^2 needs 32 bits, and (2^16 + 1)^4 must be re-ranked first
    from .oracles import reference_vote

    rng = np.random.default_rng(size)
    levels = tuple(f"{i:06d}" for i in range(size))
    assert len(levels) ** k > past
    names = [f"c{j}" for j in range(k)]
    schema = [*(AttributeSchema(a, "categorical") for a in names),
              AttributeSchema("u", "numerical"), AttributeSchema("y", "numerical", role="target")]
    n = 400
    held = [0, 1, 2, *rng.choice(np.arange(4, size - 1), 5), size - 1]  # the far end too
    cols = {a: CodedColumn(levels, rng.choice(held, n)) for a in names}
    u = rng.uniform(0.0, 10.0, n)
    # the cells of rows; the same with a level no row holds (3) first; random
    # combinations of levels rows hold; a value outside the table
    row_cells = [tuple(cols[a].levels[int(cols[a].codes[i])] for a in names) for i in range(40)]
    keys = {*row_cells[:8], *((levels[3], *cells[1:]) for cells in row_cells[8:])}
    keys |= {tuple(levels[int(c)] for c in rng.choice(held, k)) for _ in range(8)}
    keys.add((levels[0],) * (k - 1) + ("zzz",))
    patterns = {Pattern(Equals(a, v) for a, v in zip(names, key)) for key in keys}
    patterns |= {Pattern([Equals(names[0], levels[1]), Equals(names[1], levels[size - 1])]),
                 Pattern([Equals(names[1], levels[2]), Interval("u", 2.0, 8.0)])}
    rules = [_rule(p, LinearModel(float(i), {"u": 0.5 + i}, "OLS"))
             for i, p in enumerate(sorted(patterns, key=lambda p: p.order))]
    ebar = {r.pattern: 0.1 + 0.05 * i for i, r in enumerate(rules)} | {TOP: 1.0}
    default = _rule(TOP, LinearModel(-3.0, {"u": 2.0}, "OLS"))
    pred = Predictor(rules=SelectedRuleSet(rules, 0.0, "exact", True), default_rule=default,
                     normalized_errors=ebar, schema=schema, metric="rmse")
    columns = cols | {"u": u}
    got = predict_columns(pred, columns, n).tolist()
    cells = {a: cols[a].tolist() for a in names}
    want = [predict(pred, {a: cells[a][i] for a in names} | {"u": float(u[i])}) for i in range(n)]
    assert got == reference_vote(pred, columns, n).tolist() == want
    assert len(set(got)) > 8  # the voters on rows' cells, and the default
