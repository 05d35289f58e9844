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
    deserialize_rules,
    holdout_mask,
    predict_batch,
    run_hipar,
    serialize_rules,
)
from hipar.enumeration import enumerate_candidates, hipar_init
from hipar.patterns import region
from hipar.regression import best_local_models


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

    def contest(regions, metric, *rest):
        # the search's driver names each region's table and test set
        fitted = best_local_models(regions, metric, *rest)
        contests.extend((rows, table, test, scored) for (table, rows, test), (_, scored)
                        in zip(regions, fitted))
        return fitted

    monkeypatch.setattr(enumeration, "holdout_mask", draw)
    monkeypatch.setattr(enumeration, "best_local_models", contest)
    cfg = RunConfig(theta=0.1, seed=0)
    candidates = enumerate_candidates(d, hipar_init(d, cfg), cfg)
    assert len(masks) == 1  # one draw per fit
    assert masks[0].tolist() == holdout_mask(d.n, 0.2, 0).tolist()
    # the default rule, every visited pattern and the parents no search visited
    assert len(contests) >= candidates.stats.visited + 1
    for rows, table, test, scored in contests:
        assert table is d
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


def _offsets(k: int, scale: float) -> np.ndarray:
    return scale * np.array([(-1) ** i * (1 + 0.25 * i) for i in range(k)])


def _shaped(kind: str, seed: int, n: int) -> Dataset:
    """A table shaped like the benchmark's: "mixed" has 3 categorical features
    (3, 4, 5 levels) whose levels shift the target and set the slopes on two
    integer features, and 4 continuous noise features; "catwide" has 8
    categorical features (4, then 7 x 8 levels), of which the first two shift
    the target, and the two integer features."""
    rng = np.random.default_rng(seed)
    levels = (3, 4, 5) if kind == "mixed" else (4, 8, 8, 8, 8, 8, 8, 8)
    codes = [rng.integers(0, k, n) for k in levels]
    z = rng.integers(0, 20, (2, n)).astype(float)
    cols = {f"c{j}": np.array([f"v{i}" for i in range(k)], dtype=object)[c]
            for j, (k, c) in enumerate(zip(levels, codes))}
    if kind == "mixed":
        y = (sum(_offsets(k, 3.0 * 2**j)[c] for j, (k, c) in enumerate(zip(levels, codes)))
             + np.linspace(-0.4, 0.4, levels[0])[codes[0]] * z[0]
             + np.linspace(0.3, -0.3, levels[1])[codes[1]] * z[1])
        cols.update({f"x{i}": np.round(rng.uniform(0.0, 10.0, n), 3) for i in range(4)})
    else:
        y = _offsets(levels[0], 4.0)[codes[0]] + _offsets(levels[1], 3.0)[codes[1]]
    cols.update({"n0": z[0], "n1": z[1], "y": np.round(y + rng.normal(0.0, 1.0, n), 4)})
    schema = [AttributeSchema(name, "categorical" if col.dtype == object else "numerical",
                              role="target" if name == "y" else "feature")
              for name, col in cols.items()]
    return Dataset(schema, cols)


def _candidates(d: Dataset, theta: float, rename=None) -> dict:
    """Each candidate's conditions (levels read back through ``rename``),
    mapped to its method, hyperparameter and coefficients."""
    cfg = RunConfig(theta=theta, seed=3)
    found = enumerate_candidates(d, hipar_init(d, cfg), cfg)
    out = {}
    for r in [*found.rules, found.default_rule]:
        key = frozenset((c.attribute, rename[c.attribute][c.value]) if hasattr(c, "value")
                        else (c.attribute, c.lo, c.hi) for c in r.pattern.conditions)
        m = r.fitted.model
        out[key] = (m.method, m.hyper, m.intercept, m.coefficients)
    return out


@pytest.mark.parametrize("kind, n, theta", [("mixed", 2500, 0.04), ("catwide", 2000, 0.02)])
def test_candidates_invariant_to_level_names_that_reverse_their_order(kind, n, theta):
    # renaming the levels reverses the canonical order of every categorical
    # condition, and with it the order the search walks and batches them in
    d = _shaped(kind, 7, n)
    cats = d.categorical_features()
    renamed_cols, back = {}, {}
    for a in d.schema:
        col = d.column(a.name)
        if a.name in cats:
            levels = list(col.levels)
            new = {v: f"w{len(levels) - 1 - i}" for i, v in enumerate(levels)}
            renamed_cols[a.name] = np.array([new[v] for v in col.tolist()], dtype=object)
            back[a.name] = {w: v for v, w in new.items()}
        else:
            renamed_cols[a.name] = col
    same = {a: {v: v for v in back[a].values()} for a in cats}
    want = _candidates(d, theta, same)
    got = _candidates(Dataset(d.schema, renamed_cols), theta, back)
    assert len(want) > 10 and any(len(k) > 1 for k in want)
    assert got.keys() == want.keys()
    for key, (method, hyper, intercept, coefs) in got.items():
        w_method, w_hyper, w_intercept, w_coefs = want[key]
        assert (method, hyper, coefs.keys()) == (w_method, w_hyper, w_coefs.keys())
        assert intercept == pytest.approx(w_intercept, rel=1e-8, abs=1e-8)
        for name, value in coefs.items():
            assert value == pytest.approx(w_coefs[name], rel=1e-8, abs=1e-8)
