"""Properties of a whole fit: results must not depend on irrelevant properties
of the input (column order, feature offset and scale), and a rule file must
predict what the fitted predictor predicts."""

import numpy as np
import pytest

import hipar.enumeration as enumeration
from hipar import (
    AttributeSchema,
    Dataset,
    Interval,
    RunConfig,
    best_local_model,
    deserialize_rules,
    holdout_mask,
    predict_batch,
    run_hipar,
    serialize_rules,
)
from hipar.enumeration import enumerate_candidates, hipar_init
from hipar.patterns import region


def _mixed(seed: int, n: int = 1500) -> Dataset:
    """Two categorical and three numerical features: the slope on x2 follows
    g, h shifts the target, and x3 has a slope only where x1 < 4, so the
    search cuts numerical features into intervals."""
    rng = np.random.default_rng(seed)
    g = rng.choice(np.array(["a", "b", "c"], dtype=object), n)
    h = rng.choice(np.array(["p", "q"], dtype=object), n)
    x1 = rng.uniform(0.0, 10.0, n)
    x2 = rng.normal(0.0, 1.0, n)
    x3 = rng.uniform(-5.0, 5.0, n)
    y = (np.select([g == "a", g == "b"], [2.0, -1.0], 0.5) * x2 + np.where(h == "p", 3.0, -3.0)
         + np.where(x1 < 4.0, 0.8 * x3, 0.0) + rng.normal(0.0, 0.3, n))
    cols = {"g": g, "x1": x1, "h": h, "x2": x2, "x3": x3, "y": y}
    schema = [AttributeSchema(name, "categorical" if col.dtype == object else "numerical",
                              role="target" if name == "y" else "feature")
              for name, col in cols.items()]
    return Dataset(schema, cols)


def _affine(d: Dataset) -> Dataset:
    """The table with every numerical feature x replaced by 1e3 x + 1e6."""
    cols = {a.name: 1e3 * d.column(a.name) + 1e6
            if a.kind == "numerical" and a.role == "feature" else d.column(a.name)
            for a in d.schema}
    return Dataset(d.schema, cols)


def _structure(d: Dataset, rules) -> list:
    """Each rule's region, method, hyperparameter and coefficient names; the
    region stands for the pattern, whose interval bounds move with the
    features."""
    out = []
    for r in rules:
        m = r.fitted.model
        out.append((region(r.pattern, d).tolist(), sorted(r.pattern.attributes()), m.method,
                    m.hyper, sorted(m.coefficients)))
    return sorted(out)


def _chosen(d: Dataset, seed: int) -> list:
    selected, pred = run_hipar(d, RunConfig(theta=0.1, seed=seed))
    return _structure(d, [*selected.chosen, pred.default_rule])


@pytest.mark.parametrize("seed", [0, 1])
def test_fit_invariant_to_column_order(seed):
    d = _mixed(seed)
    reversed_d = Dataset(d.schema[::-1], {a.name: d.column(a.name) for a in d.schema})
    chosen = _chosen(d, seed)
    assert any(len(attributes) > 1 for _, attributes, *_ in chosen)
    assert _chosen(reversed_d, seed) == chosen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_candidates_invariant_to_feature_offset_and_scale_under_the_same_splits(seed):
    # Every contest splits its region by the fit's one test set, drawn from the
    # seed and the row count alone, so the candidates' regions, winners,
    # hyperparameters and coefficient names are unchanged by x -> 1e3 x + 1e6.
    got = []
    for d in (_mixed(seed), _affine(_mixed(seed))):
        cfg = RunConfig(theta=0.1, seed=seed)
        candidates = enumerate_candidates(d, hipar_init(d, cfg), cfg)
        got.append(_structure(d, [*candidates.rules, candidates.default_rule]))
    assert any(isinstance(c, Interval) for r in candidates.rules
               for c in r.pattern.conditions)
    assert got[0] == got[1]


def test_every_contest_holds_out_its_region_rows_in_the_fits_one_test_set(monkeypatch):
    d = _mixed(0)
    masks, contests = [], []

    def draw(*args):
        masks.append(holdout_mask(*args))
        return masks[-1]

    def contest(rows, d, metric, test, *rest):
        fitted, scored = best_local_model(rows, d, metric, test, *rest)
        contests.append((rows, test, scored))
        return fitted, scored

    monkeypatch.setattr(enumeration, "holdout_mask", draw)
    monkeypatch.setattr(enumeration, "best_local_model", contest)
    cfg = RunConfig(theta=0.1, seed=0)
    candidates = enumerate_candidates(d, hipar_init(d, cfg), cfg)
    assert len(masks) == 1  # one draw per fit
    assert masks[0].tolist() == holdout_mask(d.n, 0.2, 0).tolist()
    # the default rule, every visited pattern and the parents no search visited
    assert len(contests) >= candidates.stats.visited + 1
    for rows, test, scored in contests:
        assert test is masks[0]
        inside = rows[test[rows]]
        split = len(rows) >= 5 and 0 < len(inside) < len(rows)
        assert scored.tolist() == (inside if split else rows).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_invariant_to_feature_offset_and_scale(seed):
    # the split and the canonical order read no rendered bound, so moving the
    # features leaves the chosen rules' regions and models' structure as they were
    d = _mixed(seed)
    assert _chosen(_affine(d), seed) == _chosen(d, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rule_file_round_trip_predicts_bit_identically_near_1e6(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = 600
    g = rng.choice(np.array(["a", "b", "c"], dtype=object), n)
    x = 1e6 + rng.uniform(0.0, 10.0, n)
    slope = np.select([g == "a", g == "b"], [2.0, -3.0], 0.5)
    y = slope * (x - 1e6) + np.select([g == "a", g == "b"], [1.0, 40.0], -5.0)
    y = y + rng.normal(0.0, 0.1, n)
    d = Dataset([AttributeSchema("g", "categorical"), AttributeSchema("x", "numerical"),
                 AttributeSchema("y", "numerical", role="target")], {"g": g, "x": x, "y": y})
    selected, pred = run_hipar(d, RunConfig(theta=0.2, seed=seed))
    assert any("x" in r.fitted.model.coefficients for r in selected.chosen)
    path = str(tmp_path / "rules.json")
    serialize_rules(pred, path)
    rows = np.arange(n)
    assert predict_batch(deserialize_rules(path), d, rows).tolist() == \
        predict_batch(pred, d, rows).tolist()


@pytest.mark.parametrize("metric", ["rmse", "meae"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_saved_predictor_loads_back_equal(tmp_path, seed, metric):
    # a rule file holds the whole Predictor: interval bounds, models, errors
    # and weights all read back exactly, and a re-save writes the same bytes
    d = _mixed(seed)
    selected, pred = run_hipar(d, RunConfig(theta=0.1, seed=seed, metric=metric))
    assert any(isinstance(c, Interval) for r in selected.chosen for c in r.pattern.conditions)
    path, again = tmp_path / "rules.json", tmp_path / "again.json"
    serialize_rules(pred, str(path))
    back = deserialize_rules(str(path))
    assert back == pred
    serialize_rules(back, str(again))
    assert again.read_bytes() == path.read_bytes()
