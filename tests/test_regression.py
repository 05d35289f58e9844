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
from hipar.data import holdout_mask
from hipar.regression import (
    LASSO,
    OMP,
    _comoments,
    _fits,
    _lasso_path,
    _merge,
    _moments,
    _omp_path,
    _tune,
    evaluate_all,
    metric_value,
)

from .oracles import best_pair_oracle, lasso_cd_oracle, omp_path_oracle


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
    resid = d.column(y)[idx] - model.predict({n: d.column(n)[idx] for n in model.coefficients})
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


@pytest.mark.parametrize("seed", range(5))
def test_ols_near_collinear_matches_least_squares_on_rows(seed):
    # w is x up to 2e-6 noise, so cond(Xs) ~ 1e6 and G's is ~1e12: the solve on
    # G keeps the weak direction, and stays as close to least squares on the
    # rows as the squared condition allows
    rng = np.random.default_rng(seed)
    x, z = rng.normal(size=(2, 200))
    w = x + 2e-6 * z
    y = x + 3.0 * w + rng.normal(0, 0.5, 200)
    X = np.column_stack([x, w])
    Xs = (X - X.mean(axis=0)) / X.std(axis=0)
    assert 5e5 < np.linalg.cond(Xs) < 2e6
    exact = np.linalg.lstsq(Xs, y - y.mean(), rcond=None)[0] / X.std(axis=0)
    m = fit_ols(range(200), _dataset({"x": x, "w": w, "y": y}), "y")
    got = np.array([m.coefficients["x"], m.coefficients["w"]])
    assert np.max(np.abs(got - exact)) < 1e-2 * np.max(np.abs(exact))
    fitted, exact_fitted = X @ got + m.intercept, X @ exact + y.mean() - X.mean(axis=0) @ exact
    spread = np.max(np.abs(exact_fitted - y.mean()))
    assert np.max(np.abs(fitted - exact_fitted)) < 1e-4 * spread


def test_predict_one_observation_equals_columns():
    # one evaluator: per-row floats and whole columns give the same bits,
    # and the caller's columns are left as they were
    rng = np.random.default_rng(8)
    cols = {"a": rng.normal(0, 1e3, 50), "b": rng.normal(5, 1e-3, 50)}
    cols["a"].flags.writeable = False
    cols["b"].flags.writeable = False
    for m in (LinearModel(0.1, {"a": 0.3, "b": -7.0}, "OLS"), LinearModel(2.5, {}, "MEAN")):
        together = np.broadcast_to(m.predict(cols), (50,))
        single = [m.predict({"a": float(a), "b": float(b)}) for a, b in zip(cols["a"], cols["b"])]
        assert together.tolist() == single


def test_standardization_round_trip():
    # predicting through original coordinates must equal the standardized path
    rng = np.random.default_rng(4)
    cols = {f"x{j}": rng.normal(10 * j, 3 + j, 40) for j in range(3)}
    cols["y"] = cols["x0"] - 2 * cols["x1"] + rng.normal(0, 0.1, 40)
    d = _dataset(cols)
    m = fit_ols(range(40), d, "y")
    rows = np.arange(40)
    direct = m.predict({n: d.column(n)[rows] for n in m.coefficients})
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


@pytest.mark.parametrize("grid, hold", [
    ([0.1, -0.01], [8, 9]),  # the warm-started path needs a convex problem per lambda
    ([float("nan")], [8, 9]),
    ([float("inf")], [8, 9]),
    ([0.1], []),  # nothing to choose the lambda on
])
def test_lasso_bad_grid_or_empty_holdout_rejected(grid, hold):
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0) ** 2})
    with pytest.raises(DataError):
        fit_lasso(range(8), d, "y", grid, hold)


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


def test_omp_zero_terms_needs_a_holdout():
    # the MEAN model is chosen on the holdout like every other fit: none is an error
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0) + 5})
    with pytest.raises(DataError, match="nonempty"):
        fit_omp(range(8), d, "y", 0, [])


@pytest.mark.parametrize("max_terms", [0, 2])
def test_omp_empty_fit_rows_rejected(max_terms):
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0)})
    with pytest.raises(DataError):
        fit_omp([], d, "y", max_terms, [0, 1])


@pytest.mark.parametrize("max_terms", [-1, 2.5, 2.0, True])
def test_max_terms_must_be_a_nonnegative_int(max_terms):
    d = _dataset({"x": np.arange(20.0), "y": np.arange(20.0) % 3})
    with pytest.raises(DataError, match="max_terms must be a nonnegative integer"):
        best_local_model(range(20), d, "y", "rmse", holdout_mask(d.n, 0.2, 0), max_terms=max_terms)
    with pytest.raises(DataError, match="max_terms must be a nonnegative integer"):
        fit_omp(range(16), d, "y", max_terms, range(16, 20))


_HOLDOUT_FITS = {
    "lasso": lambda rows, hold, d: fit_lasso(rows, d, "y", [0.1], hold),
    "omp": lambda rows, hold, d: fit_omp(rows, d, "y", 2, hold),
}


@pytest.mark.parametrize("method", sorted(_HOLDOUT_FITS))
@pytest.mark.parametrize(
    "rows, hold",
    [
        (range(8), [9, 0]),  # the first fit row
        (range(8), [7]),  # the last fit row
        ([9, 2, 5], [1, 3, 9]),  # the table's last row, fit rows unsorted
    ],
)
def test_fit_rows_overlapping_holdout_rejected(method, rows, hold):
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0) ** 2})
    with pytest.raises(DataError, match="disjoint"):
        _HOLDOUT_FITS[method](rows, hold, d)


@pytest.mark.parametrize("method", sorted(_HOLDOUT_FITS))
def test_fit_rows_interleaved_with_holdout_accepted(method):
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0) ** 2})
    model = _HOLDOUT_FITS[method]([8, 0, 4, 2, 6], [9, 1, 7, 3], d)
    assert np.isfinite(model.intercept)


def test_omp_training_error_non_increasing_in_k():
    rng = np.random.default_rng(9)
    n, p = 50, 4
    cols = {f"x{j}": rng.normal(size=n) for j in range(p)}
    cols["y"] = sum((j + 1) * cols[f"x{j}"] for j in range(p)) + rng.normal(0, 0.2, n)
    d = _dataset(cols)
    names = [f"x{j}" for j in range(p)]
    rows = np.arange(40)
    # the k-term models for every k, from the moments core every fit shares
    fits = _fits(_moments(d.numeric_matrix(rows, [*names, "y"]).T), OMP, range(1, p + 1), names)
    errors = [evaluate(fits.model(i), rows, d, "y", "rmse") for i in range(p)]
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))


_DEGENERATE_FITS = {
    # fit rows 0..7, holdout rows 8..9
    "constant features": ({"x1": [2.0] * 8 + [1.0, 3.0], "x2": [5.0] * 8 + [0.0, 9.0],
                           "y": [1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0, 6.0, 2.0, 9.0]}, range(8)),
    "constant target": ({"x1": np.arange(10.0), "x2": np.arange(10.0) ** 2,
                         "y": [3.0] * 8 + [1.0, 5.0]}, range(8)),
    # constants whose mean rounds: constancy must not depend on the value
    "non-dyadic constant features": ({"x1": [0.1] * 8 + [1.0, 3.0], "x2": [0.7] * 8 + [0.0, 9.0],
                                      "y": [1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0, 6.0, 2.0, 9.0]},
                                     range(8)),
    "offset constant features": ({"x1": [1 / 3] * 8 + [1.0, 3.0],
                                  "x2": [1e6 + 0.1] * 8 + [0.0, 9.0],
                                  "y": [1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0, 6.0, 2.0, 9.0]},
                                 range(8)),
    "non-dyadic constant target": ({"x1": np.arange(10.0), "x2": np.arange(10.0) ** 2,
                                    "y": [1e6 + 0.1] * 8 + [1.0, 5.0]}, range(8)),
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


@pytest.mark.parametrize("value", [3.0, 0.1, 0.7, 1 / 3, 1e6 + 0.1, -2.2])
@pytest.mark.parametrize("n", [3, 200])  # below and above the contest's 5-row minimum
def test_contest_constant_target_is_exact_mean(value, n):
    # a target constant on the rows is the MEAN model with no error, whatever the constant
    rng = np.random.default_rng(4)
    d = _dataset({"x1": rng.normal(size=n), "x2": rng.normal(size=n), "y": [value] * n})
    fm = best_local_model(range(n), d, "y", "rmse", holdout_mask(d.n, 0.2, 4))
    assert (fm.model.method, fm.model.hyper, fm.model.intercept) == ("MEAN", None, value)
    assert fm.holdout_error == fm.train_error == 0.0


@pytest.mark.parametrize("metric", ["rmse", "meae"])
def test_contest_target_constant_on_the_fitting_side_is_scored_out_of_sample(metric):
    # y is 1 on the 80% side and 5 on the 20% side: the MEAN model fit on the
    # 80% side scores 4 there; the whole region's mean (1.8) has seen those rows
    test = holdout_mask(20, 0.2, 4)
    y = np.where(test, 5.0, 1.0)
    d = _dataset({"x": np.random.default_rng(0).normal(size=20), "y": y})
    fm = best_local_model(range(20), d, "y", metric, holdout_mask(d.n, 0.2, 4))
    assert fm.holdout_error == 4.0
    assert (fm.model.method, fm.model.hyper, fm.model.intercept) == ("MEAN", None, 1.8)
    assert np.array_equal(fm.holdout_rows, np.flatnonzero(test))


# ---------------------------------------------------------------- moments core vs row-wise oracles


def _merge_matches_one_pass(Z, test):
    whole = _comoments(Z.T)
    merged = _merge(_comoments(Z[~test].T), _comoments(Z[test].T))
    assert merged.n == whole.n == len(Z)
    sd = np.sqrt(whole.S.diagonal() / len(Z))
    mean = whole.base + whole.shift
    assert np.all(np.abs(merged.base + merged.shift - mean) <= 1e-12 * (np.abs(mean) + sd))
    assert np.all(np.abs(merged.S - whole.S) <= 1e-12 * np.sqrt(np.outer(whole.S.diagonal(),
                                                                           whole.S.diagonal())))


@pytest.mark.parametrize("seed", range(8))
def test_merged_comoments_equal_one_pass(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 400))
    X = rng.normal(size=(n, 4)) @ rng.normal(size=(4, 4))
    X[:, 0] += 1e6  # a large offset, where means rounded alone would not subtract exactly
    X[:, 1] *= 1e3
    Z = np.column_stack([X, X @ rng.normal(size=4) + rng.normal(size=n) + 5e5])
    test = np.zeros(n, dtype=bool)
    test[rng.permutation(n)[:max(1, round(0.2 * n))]] = True
    _merge_matches_one_pass(Z, test)
    one = np.zeros(n, dtype=bool)
    one[int(rng.integers(n))] = True
    _merge_matches_one_pass(Z, one)  # a side of one row
    _merge_matches_one_pass(Z, ~one)


def _random_instance(rng, n_range):
    """(moments, Xs, y_c) of independent normal features and a sparse linear
    target plus noise; Xs and y_c are what the row-wise oracles run on."""
    n, p = int(rng.integers(*n_range)), int(rng.integers(2, 9))
    X = rng.normal(size=(n, p))
    y = X @ (rng.normal(size=p) * (rng.random(p) < 0.6)) + rng.normal(0, 0.3, n)
    return _moments(np.vstack([X.T, y])), (X - X.mean(axis=0)) / X.std(axis=0), y - y.mean()


def test_gram_lasso_matches_cold_start_oracle_in_any_grid_order():
    rng = np.random.default_rng(12)
    grid = [0.001, 0.01, 0.1, 0.3, 1.0]
    for _ in range(30):
        m, Xs, y_c = _random_instance(rng, (100, 300))
        expected = {lam: lasso_cd_oracle(Xs, y_c, lam) for lam in grid}
        ascending = dict(zip(grid, _lasso_path(m.G, m.c, grid)))
        for order in (grid[::-1], [float(lam) for lam in rng.permutation(grid)]):
            got = dict(zip(order, _lasso_path(m.G, m.c, order)))
            for lam in grid:
                # the path is solved in descending order whatever the caller's order
                assert got[lam].tolist() == ascending[lam].tolist()
                assert np.max(np.abs(got[lam] - expected[lam])) < 1e-6


def test_gram_lasso_matches_oracle_at_tight_tolerance():
    # few rows per feature: both solvers stop well away from each other at the
    # default tolerance, so compare them converged
    rng = np.random.default_rng(13)
    grid = [0.001, 0.01, 0.1, 1.0]
    for _ in range(30):
        m, Xs, y_c = _random_instance(rng, (30, 80))
        got = _lasso_path(m.G, m.c, grid, tol=1e-12, max_sweeps=100_000)
        for lam, beta in zip(grid, got):
            expected = lasso_cd_oracle(Xs, y_c, lam, tol=1e-12, max_sweeps=100_000)
            assert np.max(np.abs(beta - expected)) < 1e-9


def test_gram_omp_matches_oracle():
    rng = np.random.default_rng(14)
    for _ in range(40):
        m, Xs, y_c = _random_instance(rng, (40, 200))
        p = len(m.c)
        got = _omp_path(m.G, m.c, m.y_sd, p)
        expected = omp_path_oracle(Xs, y_c, p)
        assert len(got) == len(expected) == p + 1
        for a, b in zip(got, expected):
            assert np.array_equal(a != 0, b != 0)  # the same active set after every step
            assert np.max(np.abs(a - b)) < 1e-9


def test_gram_omp_stops_at_an_exact_fit():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(50, 5))
    y = 2.0 * X[:, 1] - X[:, 3] + 4.0
    m = _moments(np.vstack([X.T, y]))
    path = _omp_path(m.G, m.c, m.y_sd, 5)
    assert len(path) == 3
    assert set(np.flatnonzero(path[-1]).tolist()) == {1, 3}


def test_gram_omp_singular_block_falls_back_to_min_norm():
    # column 2 is column 0 up to 1e-7 noise: whichever of the two OMP takes
    # last makes the active Gram block singular, and min-norm least squares
    # splits their weight instead of fitting the noise with huge opposite
    # coefficients as least squares on the rows does
    rng = np.random.default_rng(16)
    x0, x1, z = rng.normal(size=(3, 200))
    X = np.column_stack([x0, x1, x0 + 1e-7 * z])
    y = x0 + x1 + rng.normal(0, 1.0, 200)
    m = _moments(np.vstack([X.T, y]))
    path = _omp_path(m.G, m.c, m.y_sd, 3)
    assert len(path) == 4
    two, three = path[2], path[3]
    # min norm: the two near-copies share the weight one of them had
    assert three[0] == pytest.approx(three[2], rel=1e-6)
    assert three[0] + three[2] == pytest.approx(two[0] + two[2], rel=1e-6)
    assert three[1] == pytest.approx(two[1], rel=1e-6)
    exact = omp_path_oracle((X - X.mean(axis=0)) / X.std(axis=0), y - y.mean(), 3)[3]
    assert np.max(np.abs(exact)) > 100


@pytest.mark.parametrize("seed", range(12))
def test_contest_invariant_to_offset_scale_and_column_order(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 300))
    cols = {name: rng.normal(size=n) for name in ("a", "b", "c", "e")}
    coef = rng.normal(size=4) * (rng.random(4) < 0.7)
    cols["y"] = sum(w * cols[name] for w, name in zip(coef, "abce")) + rng.normal(0, 1, n)
    moved = {**cols, "a": cols["a"] + 1e6, "b": cols["b"] * 1e3}
    shuffled = {str(name): moved[name] for name in rng.permutation(list(moved))}
    test = holdout_mask(n, 0.2, seed)
    before = best_local_model(range(n), _dataset(cols), "y", "rmse", test)
    after = best_local_model(range(n), _dataset(shuffled), "y", "rmse", test)
    assert (after.model.method, after.model.hyper) == (before.model.method, before.model.hyper)
    assert after.holdout_error == pytest.approx(before.holdout_error, rel=1e-9, abs=0)
    expected = before.model.predict(cols)
    np.testing.assert_allclose(after.model.predict(moved), expected, rtol=0,
                               atol=1e-9 * np.max(np.abs(expected)))


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


@pytest.mark.parametrize("metric", ["rmse", "meae"])
def test_evaluate_all_matches_row_wise_referee(metric):
    rng = np.random.default_rng(11)
    n = 300
    d = _dataset({"x1": rng.normal(5.0, 2.0, n), "x2": rng.uniform(-1e3, 1e3, n),
                  "x3": 1e6 + rng.uniform(0.0, 10.0, n), "y": rng.normal(0.0, 50.0, n)})
    models = [
        LinearModel(1.5, {"x1": 2.0}, "OLS"),
        LinearModel(-0.5, {"x2": 0.03, "x3": -0.25}, "LASSO"),  # disjoint from the first
        LinearModel(float(np.mean(d.column("y"))), {}, "MEAN"),
        LinearModel(2.5e5, {"x3": -0.25, "x1": 1.0}, "OMP"),  # another column order
    ]
    rows = rng.permutation(n)[:120]
    got = evaluate_all(models, rows, d, "y", metric)
    idx = np.sort(rows)
    for m, e in zip(models, got.tolist()):
        want = metric_value(
            d.column("y")[idx] - m.predict({n: d.column(n)[idx] for n in m.coefficients}), metric)
        assert abs(e - want) <= 1e-12 * want
        assert evaluate(m, rows, d, "y", metric) == evaluate_all([m], rows, d, "y", metric)[0]


def test_evaluate_empty_rows():
    d = _dataset({"x": [1], "y": [1]})
    with pytest.raises(DataError):
        evaluate(LinearModel(0.0, {}, "MEAN"), [], d, "y", "rmse")


# ---------------------------------------------------------------- best_local_model


def test_contest_tie_breaks_to_lasso(monkeypatch):
    # force an exact tie: every model scores the same error -> LASSO must win
    import hipar.regression as reg

    calls = []

    def tied(X, yv, intercepts, B, metric):
        calls.append(B.shape[1])
        return np.ones(B.shape[1])

    monkeypatch.setattr(reg, "_errors", tied)
    x = np.arange(20.0)
    d = _dataset({"x": x, "y": 3.0 * x + 1.0})
    fm = best_local_model(range(20), d, "y", "rmse", holdout_mask(d.n, 0.2, 0))
    assert calls
    assert fm.model.method == "LASSO"


def test_contest_lower_error_wins():
    # exactly linear data: OMP's least-squares step is exact while the smallest
    # grid lambda still shrinks, so OMP wins its contest outright
    x = np.arange(20.0)
    d = _dataset({"x": x, "y": 3.0 * x + 1.0})
    fm = best_local_model(range(20), d, "y", "rmse", holdout_mask(d.n, 0.2, 0))
    assert fm.model.method == "OMP"
    assert fm.holdout_error < 1e-9
    assert fm.model.coefficients["x"] == pytest.approx(3.0, abs=1e-9)


def test_small_region_mean_fallback():
    d = _dataset({"x": [1, 2, 3, 4], "y": [1, 2, 3, 4]})
    fm = best_local_model(range(4), d, "y", "rmse", holdout_mask(d.n, 0.2, 0))
    assert fm.model.method == "MEAN"
    assert fm.holdout_error == fm.train_error
    # MEAN model RMSE on its own rows equals the population std of y
    assert fm.train_error == pytest.approx(float(np.std([1, 2, 3, 4])))


@pytest.mark.parametrize("side", ["inside", "outside"])
def test_region_on_one_side_of_the_test_set_takes_the_mean_path(side):
    # the fit's test set splits no region: one wholly inside or outside it has no
    # holdout or no fitting side, so it gets the MEAN model, scored on its own rows
    rng = np.random.default_rng(6)
    x = rng.normal(size=40)
    d = _dataset({"x": x, "y": 3.0 * x + rng.normal(0.0, 0.1, 40)})
    test = holdout_mask(d.n, 0.2, 0)
    rows = np.flatnonzero(test if side == "inside" else ~test)[:8]
    assert len(rows) >= 5
    fm = best_local_model(rows, d, "y", "rmse", test)
    assert (fm.model.method, fm.model.hyper) == ("MEAN", None)
    assert fm.holdout_rows.tolist() == rows.tolist()
    assert fm.holdout_error == fm.train_error == pytest.approx(float(np.std(d.column("y")[rows])))
    split = best_local_model(np.arange(d.n), d, "y", "rmse", test)
    assert split.model.method != "MEAN"
    assert split.holdout_rows.tolist() == np.flatnonzero(test).tolist()


@pytest.mark.parametrize("test", [
    [True] * 20,  # a list, not an array
    np.ones(20, dtype=int),  # not bool
    np.ones(19, dtype=bool),  # not one entry per row
    np.ones((20, 1), dtype=bool),
])
def test_contest_rejects_a_test_set_that_is_not_a_bool_mask_over_the_table(test):
    d = _dataset({"x": np.arange(20.0), "y": np.arange(20.0)})
    best_local_model(range(20), d, "y", "rmse", holdout_mask(d.n, 0.2, 0))
    with pytest.raises(DataError, match="bool mask over the table's 20 rows"):
        best_local_model(range(20), d, "y", "rmse", test)


def test_correlated_feature_trap_lasso_wins():
    rng = np.random.default_rng(3)
    n = 100
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    decoy = 0.7 * (x1 + x2) / np.sqrt(2) + 0.7 * rng.normal(size=n)
    y = x1 + x2 + rng.normal(0, 0.05, n)
    d = _dataset({"x1": x1, "x2": x2, "decoy": decoy, "y": y})
    fm = best_local_model(range(n), d, "y", "rmse", holdout_mask(d.n, 0.2, 3), max_terms=1)
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
    fm = best_local_model(range(n), d, "y", "rmse", holdout_mask(d.n, 0.2, 1))
    refit = fm.model
    # the recorded train error is the refit model's error over all rows
    assert fm.train_error == pytest.approx(evaluate(refit, range(n), d, "y", "rmse"))
    assert len(fm.holdout_rows) == round(0.2 * n)


def _tune_with_errors(monkeypatch, errors, entries):
    """_tune on a small table with the models' errors forced to ``errors``."""
    import hipar.regression as reg

    monkeypatch.setattr(reg, "_errors", lambda X, yv, b0, B, metric: np.array(errors, float))
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 3))
    y = X @ [1.0, -2.0, 0.5] + rng.normal(0.0, 0.1, 30)
    m = _moments(np.vstack([X.T, y]))
    fits, i, error = _tune(m, ["a", "b", "c"], X, y, entries, "rmse")
    return fits.method, fits.hypers[i], error


_GRID = [0.001, 0.01, 0.1, 1.0]


@pytest.mark.parametrize("errors, entries, want", [
    # an exact tie across entries goes to the earlier one: LASSO over OMP,
    # and within LASSO to the largest lambda
    ([1.0] * 7, [(LASSO, _GRID), (OMP, range(1, 4))], (LASSO, 1.0, 1.0)),
    # OMP first: the tie goes to OMP's fewest terms
    ([1.0] * 7, [(OMP, range(1, 4)), (LASSO, _GRID)], (OMP, 1, 1.0)),
    # within one entry: the larger of two tied lambdas, the fewer of two tied term counts
    ([3, 1, 1, 2, 1, 1, 1], [(LASSO, _GRID), (OMP, range(1, 4))], (LASSO, 0.1, 1.0)),
    ([3, 2, 2, 2, 1, 0.5, 0.5], [(LASSO, _GRID), (OMP, range(1, 4))], (OMP, 2, 0.5)),
    # the grid's order does not matter: the larger lambda still wins the tie
    ([2, 1, 1], [(LASSO, [0.1, 1.0, 0.01])], (LASSO, 1.0, 1.0)),
    ([2, 1, 1], [(LASSO, [0.1, 0.01, 1.0])], (LASSO, 1.0, 1.0)),
    # a strictly lower error beats the earlier entry
    ([1, 1, 1, 1, 1, 1, 0.999], [(LASSO, _GRID), (OMP, range(1, 4))], (OMP, 3, 0.999)),
])
def test_tune_breaks_exact_ties(monkeypatch, errors, entries, want):
    assert _tune_with_errors(monkeypatch, errors, entries) == want
