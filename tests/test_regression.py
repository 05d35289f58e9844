import numpy as np
import pytest

from hipar import (
    AttributeSchema,
    DataError,
    Dataset,
    LinearModel,
    best_local_model,
    evaluate,
    fit_lasso,
    fit_ols,
    fit_omp,
    holdout_split,
)

from .oracles import best_pair_oracle


def _dataset(columns: dict, target="y"):
    schema = [
        AttributeSchema(name, "numerical", role="target" if name == target else "feature")
        for name in columns
    ]
    return Dataset(schema, {k: np.asarray(v, dtype=float) for k, v in columns.items()})


def kkt_violation(model: LinearModel, d, rows, y, lam):
    """Worst violation of the LASSO stationarity conditions in standardized
    coordinates: |g_j| <= lam for inactive j, g_j = lam*sign(beta_j) for active."""
    idx = np.sort(np.asarray(list(rows), dtype=int))
    n = len(idx)
    resid = d.column(y)[idx] - model.predict_rows(d, idx)
    worst = 0.0
    for name, (mean, std) in model.standardization.items():
        xs = (d.column(name)[idx] - mean) / std
        g = float(xs @ resid) / n
        beta = model.coefficients.get(name, 0.0)
        if beta == 0.0:
            worst = max(worst, abs(g) - lam)
        else:
            worst = max(worst, abs(g - lam * np.sign(beta)))
    return worst


# ---------------------------------------------------------------- fit_ols


def test_ols_exact_linear():
    x = np.arange(5.0)
    d = _dataset({"x": x, "y": 2.0 * x})
    m = fit_ols(range(5), d, "y")
    assert m.intercept == pytest.approx(0.0, abs=1e-9)
    assert m.coefficients["x"] == pytest.approx(2.0, abs=1e-9)


def test_ols_constant_target():
    d = _dataset({"x": [1, 2, 3], "y": [7, 7, 7]})
    m = fit_ols(range(3), d, "y")
    assert m.intercept == pytest.approx(7.0)
    assert m.coefficients == {}


def test_ols_interpolation_regime():
    # 3 rows, 5 features: consistent underdetermined system, zero residuals
    rng = np.random.default_rng(1)
    cols = {f"x{j}": rng.normal(size=3) for j in range(5)}
    beta = rng.normal(size=5)
    cols["y"] = sum(beta[j] * cols[f"x{j}"] for j in range(5))
    d = _dataset(cols)
    m = fit_ols(range(3), d, "y")
    assert evaluate(m, range(3), d, "y", "rmse") == pytest.approx(0.0, abs=1e-8)


def test_ols_zero_variance_feature_dropped():
    d = _dataset({"x": [1, 2, 3, 4], "c": [5, 5, 5, 5], "y": [2, 4, 6, 8]})
    m = fit_ols(range(4), d, "y")
    assert "c" not in m.coefficients
    assert m.coefficients["x"] == pytest.approx(2.0)


def test_standardization_round_trip():
    # predicting through original coordinates must equal the standardized path
    rng = np.random.default_rng(4)
    cols = {f"x{j}": rng.normal(10 * j, 3 + j, 40) for j in range(3)}
    cols["y"] = cols["x0"] - 2 * cols["x1"] + rng.normal(0, 0.1, 40)
    d = _dataset(cols)
    m = fit_ols(range(40), d, "y")
    rows = np.arange(40)
    direct = m.predict_rows(d, rows)
    y_bar = float(np.mean(d.column("y")))
    via_std = np.full(40, y_bar)
    for name, (mean, std) in m.standardization.items():
        beta_std = m.coefficients.get(name, 0.0) * std
        via_std += beta_std * (d.column(name)[rows] - mean) / std
    assert np.allclose(direct, via_std, atol=1e-9)


# ---------------------------------------------------------------- fit_lasso


def test_lasso_kill_point():
    rng = np.random.default_rng(0)
    n = 60
    cols = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
    cols["y"] = 2 * cols["a"] + rng.normal(0, 0.1, n)
    d = _dataset(cols)
    fit_rows = np.arange(50)
    y = d.column("y")[fit_rows]
    yc = y - y.mean()
    lam_max = 0.0
    for name in ("a", "b"):
        col = d.column(name)[fit_rows]
        xs = (col - col.mean()) / col.std()
        lam_max = max(lam_max, abs(float(xs @ yc)) / len(fit_rows))
    m = fit_lasso(fit_rows, d, "y", [lam_max * 1.0001], range(50, 60))
    assert m.coefficients == {}


def test_lasso_small_lambda_approaches_ols():
    rng = np.random.default_rng(2)
    n = 80
    cols = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
    cols["y"] = 3 * cols["a"] - cols["b"] + rng.normal(0, 0.05, n)
    d = _dataset(cols)
    ols = fit_ols(range(60), d, "y")
    lasso = fit_lasso(range(60), d, "y", [1e-7], range(60, 80))
    for name in ("a", "b"):
        assert lasso.coefficients[name] == pytest.approx(ols.coefficients[name], abs=1e-4)


def test_lasso_planted_sparse_signal():
    rng = np.random.default_rng(2)
    n = 125
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    y = 3 * a + rng.normal(0, 0.01, n)
    d = _dataset({"a": a, "b": b, "y": y})
    m = fit_lasso(range(100), d, "y", [0.001, 0.01, 0.1, 1.0], range(100, 125))
    assert m.coefficients["a"] == pytest.approx(3.0, abs=0.05)
    assert m.coefficients.get("b", 0.0) == 0.0
    assert kkt_violation(m, d, range(100), "y", m.hyper) < 1e-5


def test_lasso_kkt_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(30, 80))
        p = int(rng.integers(2, 6))
        cols = {f"x{j}": rng.normal(size=n) for j in range(p)}
        beta = rng.normal(size=p) * (rng.random(p) < 0.6)
        cols["y"] = sum(beta[j] * cols[f"x{j}"] for j in range(p)) + rng.normal(0, 0.3, n)
        d = _dataset(cols)
        lam = float(rng.choice([0.001, 0.01, 0.1, 1.0]))
        rows = np.arange(n - 5)
        m = fit_lasso(rows, d, "y", [lam], np.arange(n - 5, n))
        assert kkt_violation(m, d, rows, "y", lam) < 1e-5


def test_lasso_empty_fit_rows_rejected():
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0)})
    with pytest.raises(DataError):
        fit_lasso([], d, "y", [0.1], [0, 1])


def test_lasso_disjointness_required():
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0)})
    with pytest.raises(DataError):
        fit_lasso(range(8), d, "y", [0.1], range(7, 10))


# ---------------------------------------------------------------- fit_omp


def test_omp_single_feature():
    x = np.arange(10.0)
    d = _dataset({"x": x, "y": 2.0 * x})
    m = fit_omp(range(8), d, "y", 3, range(8, 10))
    assert m.coefficients == {"x": pytest.approx(2.0)}


def test_omp_exact_two_sparse_recovery():
    rng = np.random.default_rng(6)
    n, p = 40, 5
    X = rng.normal(size=(n, p))
    planted = (1, 3)
    y = 2.5 * X[:, 1] - 1.5 * X[:, 3]
    cols = {f"x{j}": X[:, j] for j in range(p)}
    cols["y"] = y
    d = _dataset(cols)
    m = fit_omp(range(30), d, "y", 4, range(30, 40))
    assert set(m.coefficients) == {"x1", "x3"}
    assert best_pair_oracle(X[:30], y[:30]) == planted
    assert m.coefficients["x1"] == pytest.approx(2.5, abs=1e-6)
    assert m.coefficients["x3"] == pytest.approx(-1.5, abs=1e-6)


def test_omp_zero_terms_is_mean():
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0) + 5})
    m = fit_omp(range(8), d, "y", 0, range(8, 10))
    assert m.method == "MEAN"
    assert m.coefficients == {}


@pytest.mark.parametrize("max_terms", [0, 2])
def test_omp_empty_fit_rows_rejected(max_terms):
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0)})
    with pytest.raises(DataError):
        fit_omp([], d, "y", max_terms, [0, 1])


def test_omp_training_error_non_increasing_in_k():
    rng = np.random.default_rng(9)
    n, p = 50, 4
    cols = {f"x{j}": rng.normal(size=n) for j in range(p)}
    cols["y"] = sum((j + 1) * cols[f"x{j}"] for j in range(p)) + rng.normal(0, 0.2, n)
    d = _dataset(cols)
    from hipar.regression import OMP, _fit

    rows = np.arange(40)
    errors = [evaluate(m, rows, d, "y", "rmse") for m in _fit(rows, d, "y", OMP, range(1, p + 1))]
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))


_DEGENERATE_FITS = {
    # fit rows 0..7, holdout rows 8..9
    "constant features": ({"x1": [2.0] * 8 + [1.0, 3.0], "x2": [5.0] * 8 + [0.0, 9.0],
                           "y": [1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0, 6.0, 2.0, 9.0]}, range(8)),
    "constant target": ({"x1": np.arange(10.0), "x2": np.arange(10.0) ** 2,
                         "y": [3.0] * 8 + [1.0, 5.0]}, range(8)),
    "single row": ({"x1": np.arange(10.0), "x2": np.arange(10.0) ** 2,
                    "y": np.arange(10.0) * 2.0}, [4]),
}


@pytest.mark.parametrize("case", sorted(_DEGENERATE_FITS))
@pytest.mark.parametrize("fitter, hyper", [
    (lambda rows, d: fit_ols(rows, d, "y"), None),
    (lambda rows, d: fit_lasso(rows, d, "y", [0.001, 0.01, 0.1, 1.0], range(8, 10)), 1.0),
    (lambda rows, d: fit_omp(rows, d, "y", 2, range(8, 10)), 1),
    (lambda rows, d: fit_omp(rows, d, "y", 3, range(8, 10)), 1),
], ids=["ols", "lasso", "omp2", "omp3"])
def test_degenerate_fit_falls_back_to_mean(case, fitter, hyper):
    cols, rows = _DEGENERATE_FITS[case]
    d = _dataset(cols)
    m = fitter(rows, d)
    assert m.method == "MEAN"
    assert m.coefficients == {}
    assert m.intercept == pytest.approx(float(np.mean(d.column("y")[list(rows)])))
    assert m.hyper == hyper


# ---------------------------------------------------------------- evaluate


def test_evaluate_perfect_model():
    d = _dataset({"x": [1, 2, 3], "y": [2, 4, 6]})
    m = LinearModel(0.0, {"x": 2.0}, "OLS")
    assert evaluate(m, range(3), d, "y", "rmse") == 0.0
    assert evaluate(m, range(3), d, "y", "meae") == 0.0


def test_evaluate_symmetric_residuals():
    d = _dataset({"x": [0, 0], "y": [-1, 1]})
    m = LinearModel(0.0, {}, "MEAN")
    assert evaluate(m, range(2), d, "y", "rmse") == pytest.approx(1.0)
    assert evaluate(m, range(2), d, "y", "meae") == pytest.approx(1.0)


def test_evaluate_median_robustness():
    d = _dataset({"x": [0, 0, 0, 0], "y": [0, 0, 0, 10]})
    m = LinearModel(0.0, {}, "MEAN")
    assert evaluate(m, range(4), d, "y", "rmse") == pytest.approx(5.0)
    assert evaluate(m, range(4), d, "y", "meae") == pytest.approx(0.0)


def test_evaluate_empty_rows():
    d = _dataset({"x": [1], "y": [1]})
    with pytest.raises(DataError):
        evaluate(LinearModel(0.0, {}, "MEAN"), [], d, "y", "rmse")


# ---------------------------------------------------------------- best_local_model


def test_contest_tie_breaks_to_lasso(monkeypatch):
    # force an exact tie: both contest errors identical -> LASSO must win
    import hipar.regression as reg

    monkeypatch.setattr(reg, "evaluate", lambda *a, **k: 1.0)
    x = np.arange(20.0)
    d = _dataset({"x": x, "y": 3.0 * x + 1.0})
    fm = best_local_model(range(20), d, "y", "rmse", seed=0)
    assert fm.model.method == "LASSO"


def test_contest_lower_error_wins():
    # exactly linear data: OMP's least-squares step is exact while the smallest
    # grid lambda still shrinks, so OMP wins its contest outright
    x = np.arange(20.0)
    d = _dataset({"x": x, "y": 3.0 * x + 1.0})
    fm = best_local_model(range(20), d, "y", "rmse", seed=0)
    assert fm.model.method == "OMP"
    assert fm.holdout_error < 1e-9
    assert fm.model.coefficients["x"] == pytest.approx(3.0, abs=1e-9)


def test_small_region_mean_fallback():
    d = _dataset({"x": [1, 2, 3, 4], "y": [1, 2, 3, 4]})
    fm = best_local_model(range(4), d, "y", "rmse", seed=0)
    assert fm.model.method == "MEAN"
    assert fm.holdout_error == fm.train_error
    # MEAN model RMSE on its own rows equals the population std of y
    assert fm.train_error == pytest.approx(float(np.std([1, 2, 3, 4])))


def test_correlated_feature_trap_lasso_wins():
    rng = np.random.default_rng(3)
    n = 100
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    decoy = 0.7 * (x1 + x2) / np.sqrt(2) + 0.7 * rng.normal(size=n)
    y = x1 + x2 + rng.normal(0, 0.05, n)
    d = _dataset({"x1": x1, "x2": x2, "decoy": decoy, "y": y})
    fm = best_local_model(range(n), d, "y", "rmse", seed=3, max_terms=1)
    assert fm.model.method == "LASSO"
    # oracle: compare both contest holdout errors directly
    from hipar import fit_lasso as fl, fit_omp as fo

    train, hold = holdout_split(range(n), 0.2, 3)
    lasso_err = evaluate(fl(train, d, "y", [0.001, 0.01, 0.1, 1.0], hold), hold, d, "y", "rmse")
    omp_err = evaluate(fo(train, d, "y", 1, hold), hold, d, "y", "rmse")
    assert lasso_err < omp_err
    assert fm.holdout_error == pytest.approx(lasso_err)


def test_winner_refit_on_full_region():
    rng = np.random.default_rng(5)
    n = 60
    x = rng.normal(size=n)
    y = 4 * x + rng.normal(0, 0.1, n)
    d = _dataset({"x": x, "y": y})
    fm = best_local_model(range(n), d, "y", "rmse", seed=1)
    refit = fm.model
    # the recorded train error is the refit model's error over all rows
    assert fm.train_error == pytest.approx(evaluate(refit, range(n), d, "y", "rmse"))
    assert len(fm.holdout_rows) == round(0.2 * n)
