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
)
from hipar.data import holdout_mask
from hipar.regression import (
    LASSO,
    OMP,
    _UNCORRELATED,
    _comoments,
    _fits,
    _lasso_path,
    _merge,
    _moments,
    _omp_path,
    _tune,
    best_local_models,
    evaluate_all,
    metric_value,
)

from .conftest import CATWIDE_TARGET_FIRST, make_catwide, reordered
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
    m = fit_ols(range(5), d)
    assert m.intercept == pytest.approx(0.0, abs=1e-9)
    assert m.coefficients["x"] == pytest.approx(2.0, abs=1e-9)


def test_ols_constant_target():
    d = _dataset({"x": [1, 2, 3], "y": [7, 7, 7]})
    m = fit_ols(range(3), d)
    assert m.intercept == pytest.approx(7.0)
    assert m.coefficients == {}


def test_ols_interpolation_regime():
    # 3 rows, 5 features: consistent underdetermined system, zero residuals
    rng = np.random.default_rng(1)
    cols = {f"x{j}": rng.normal(size=3) for j in range(5)}
    beta = rng.normal(size=5)
    cols["y"] = sum(beta[j] * cols[f"x{j}"] for j in range(5))
    d = _dataset(cols)
    m = fit_ols(range(3), d)
    assert evaluate(m, range(3), d, "rmse") == pytest.approx(0.0, abs=1e-8)


def test_ols_zero_variance_feature_dropped():
    d = _dataset({"x": [1, 2, 3, 4], "c": [5, 5, 5, 5], "y": [2, 4, 6, 8]})
    m = fit_ols(range(4), d)
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
    m = fit_ols(range(200), _dataset({"x": x, "w": w, "y": y}))
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
    m = fit_ols(range(40), d)
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
    m = fit_lasso(fit_rows, d, [lam_max * 1.0001], range(50, 60))
    assert m.coefficients == {}


def test_lasso_small_lambda_approaches_ols():
    rng = np.random.default_rng(2)
    n = 80
    cols = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
    cols["y"] = 3 * cols["a"] - cols["b"] + rng.normal(0, 0.05, n)
    d = _dataset(cols)
    ols = fit_ols(range(60), d)
    lasso = fit_lasso(range(60), d, [1e-7], range(60, 80))
    for name in ("a", "b"):
        assert lasso.coefficients[name] == pytest.approx(ols.coefficients[name], abs=1e-4)


def test_lasso_planted_sparse_signal():
    rng = np.random.default_rng(2)
    n = 125
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    y = 3 * a + rng.normal(0, 0.01, n)
    d = _dataset({"a": a, "b": b, "y": y})
    m = fit_lasso(range(100), d, [0.001, 0.01, 0.1, 1.0], range(100, 125))
    assert m.coefficients["a"] == pytest.approx(3.0, abs=0.05)
    assert m.coefficients.get("b", 0.0) == 0.0
    assert kkt_violation(m, d, range(100), "y", m.hyper) < 1e-9


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
        m = fit_lasso(rows, d, [lam], np.arange(n - 5, n))
        assert kkt_violation(m, d, rows, "y", lam) < 1e-9


def test_lasso_empty_fit_rows_rejected():
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0)})
    with pytest.raises(DataError):
        fit_lasso([], d, [0.1], [0, 1])


def test_lasso_disjointness_required():
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0)})
    with pytest.raises(DataError):
        fit_lasso(range(8), d, [0.1], range(7, 10))


@pytest.mark.parametrize("grid, hold", [
    ([0.1, -0.01], [8, 9]),  # the warm-started path needs a convex problem per lambda
    ([float("nan")], [8, 9]),
    ([float("inf")], [8, 9]),
    ([0.1], []),  # nothing to choose the lambda on
])
def test_lasso_bad_grid_or_empty_holdout_rejected(grid, hold):
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0) ** 2})
    with pytest.raises(DataError):
        fit_lasso(range(8), d, grid, hold)


# ---------------------------------------------------------------- fit_omp


def test_omp_single_feature():
    x = np.arange(10.0)
    d = _dataset({"x": x, "y": 2.0 * x})
    m = fit_omp(range(8), d, 3, range(8, 10))
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
    m = fit_omp(range(30), d, 4, range(30, 40))
    assert set(m.coefficients) == {"x1", "x3"}
    assert best_pair_oracle(X[:30], y[:30]) == planted
    assert m.coefficients["x1"] == pytest.approx(2.5, abs=1e-6)
    assert m.coefficients["x3"] == pytest.approx(-1.5, abs=1e-6)


def test_omp_zero_terms_is_mean():
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0) + 5})
    m = fit_omp(range(8), d, 0, range(8, 10))
    assert m.method == "MEAN"
    assert m.coefficients == {}


def test_omp_zero_terms_needs_a_holdout():
    # the MEAN model is chosen on the holdout like every other fit: none is an error
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0) + 5})
    with pytest.raises(DataError, match="nonempty"):
        fit_omp(range(8), d, 0, [])


@pytest.mark.parametrize("max_terms", [0, 2])
def test_omp_empty_fit_rows_rejected(max_terms):
    d = _dataset({"x": np.arange(10.0), "y": np.arange(10.0)})
    with pytest.raises(DataError):
        fit_omp([], d, max_terms, [0, 1])


@pytest.mark.parametrize("max_terms", [-1, 2.5, 2.0, True])
def test_max_terms_must_be_a_nonnegative_int(max_terms):
    d = _dataset({"x": np.arange(20.0), "y": np.arange(20.0) % 3})
    with pytest.raises(DataError, match="max_terms must be a nonnegative integer"):
        fit_omp(range(16), d, max_terms, range(16, 20))


_HOLDOUT_FITS = {
    "lasso": lambda rows, hold, d: fit_lasso(rows, d, [0.1], hold),
    "omp": lambda rows, hold, d: fit_omp(rows, d, 2, hold),
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
    fits = _fits(_moments([d.block.take(rows, axis=1)]), OMP, [range(1, p + 1)], names)
    errors = [evaluate(fits.model(0, i), rows, d, "rmse") for i in range(p)]
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
    (lambda rows, d: fit_ols(rows, d), None),
    (lambda rows, d: fit_lasso(rows, d, [0.001, 0.01, 0.1, 1.0], range(8, 10)), 1.0),
    (lambda rows, d: fit_omp(rows, d, 2, range(8, 10)), 1),
    (lambda rows, d: fit_omp(rows, d, 3, range(8, 10)), 1),
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
    fm, _ = best_local_model(range(n), d, "rmse", holdout_mask(d.n, 0.2, 4))
    assert (fm.model.method, fm.model.hyper, fm.model.intercept) == ("MEAN", None, value)
    assert fm.holdout_error == fm.train_error == 0.0


@pytest.mark.parametrize("metric", ["rmse", "meae"])
def test_contest_target_constant_on_the_fitting_side_is_scored_out_of_sample(metric):
    # y is 1 on the 80% side and 5 on the 20% side: the MEAN model fit on the
    # 80% side scores 4 there; the whole region's mean (1.8) has seen those rows
    test = holdout_mask(20, 0.2, 4)
    y = np.where(test, 5.0, 1.0)
    d = _dataset({"x": np.random.default_rng(0).normal(size=20), "y": y})
    fm, scored = best_local_model(range(20), d, metric, holdout_mask(d.n, 0.2, 4))
    assert fm.holdout_error == 4.0
    assert (fm.model.method, fm.model.hyper, fm.model.intercept) == ("MEAN", None, 1.8)
    assert np.array_equal(scored, np.flatnonzero(test))


# ---------------------------------------------------------------- moments core vs row-wise oracles


def _merge_matches_one_pass(Z, test):
    q = Z.shape[1]
    whole = _comoments([Z.T], q)
    merged = _merge(_comoments([Z[~test].T], q), _comoments([Z[test].T], q))
    assert merged.n.tolist() == whole.n.tolist() == [len(Z)]
    S = whole.S[0]
    sd = np.sqrt(S.diagonal() / len(Z))
    mean = whole.base[0] + whole.shift[0]
    assert np.all(np.abs(merged.base[0] + merged.shift[0] - mean) <= 1e-12 * (np.abs(mean) + sd))
    assert np.all(np.abs(merged.S[0] - S) <= 1e-12 * np.sqrt(np.outer(S.diagonal(), S.diagonal())))


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
    return _moments([np.vstack([X.T, y])]), (X - X.mean(axis=0)) / X.std(axis=0), y - y.mean()


def _kkt(Xs, y_c, beta, lam):
    """Per feature, the violation of the LASSO stationarity conditions at beta,
    in standardized coordinates on the rows themselves (as ``kkt_violation``)."""
    g = Xs.T @ (y_c - Xs @ beta) / len(y_c)
    return np.where(beta == 0.0, np.abs(g) - lam, np.abs(g - lam * np.sign(beta)))


def _one_lasso_path(m, lams):
    """The LASSO path of the one row set with moments m, in the order of lams."""
    return list(_lasso_path(m.G, m.c, m.width, [lams])[0])


def _one_omp_path(m, k):
    """The OMP path of the one row set with moments m: the coefficients
    after each step it took, led by the empty model."""
    path, steps = _omp_path(m.G, m.c, m.width, m.y_sd, np.array([k]))
    return list(path[0, : steps[0] + 1])


def test_gram_lasso_matches_cold_start_oracle_in_any_grid_order():
    rng = np.random.default_rng(12)
    grid = [0.001, 0.01, 0.1, 0.3, 1.0]
    for _ in range(30):
        m, Xs, y_c = _random_instance(rng, (100, 300))
        expected = {lam: lasso_cd_oracle(Xs, y_c, lam) for lam in grid}
        ascending = dict(zip(grid, _one_lasso_path(m, grid)))
        for order in (grid[::-1], [float(lam) for lam in rng.permutation(grid)]):
            got = dict(zip(order, _one_lasso_path(m, order)))
            for lam in grid:
                # the path is solved in descending order whatever the caller's order
                assert got[lam].tolist() == ascending[lam].tolist()
                assert np.max(np.abs(got[lam] - expected[lam])) < 1e-6
        for lam in grid:
            assert np.max(_kkt(Xs, y_c, ascending[lam], lam)) < 1e-9


def test_gram_lasso_matches_oracle_at_tight_tolerance():
    # few rows per feature: coordinate descent stops well away from the exact
    # path at its default tolerance, so compare it converged
    rng = np.random.default_rng(13)
    grid = [0.001, 0.01, 0.1, 1.0]
    for _ in range(30):
        m, Xs, y_c = _random_instance(rng, (30, 80))
        got = _one_lasso_path(m, grid)
        for lam, beta in zip(grid, got):
            expected = lasso_cd_oracle(Xs, y_c, lam, tol=1e-12, max_sweeps=100_000)
            assert np.max(np.abs(beta - expected)) < 1e-9
            assert np.max(_kkt(Xs, y_c, beta, lam)) < 1e-9


def test_gram_omp_matches_oracle():
    rng = np.random.default_rng(14)
    for _ in range(40):
        m, Xs, y_c = _random_instance(rng, (40, 200))
        p = len(m.c)
        got = _one_omp_path(m, p)
        expected = omp_path_oracle(Xs, y_c, p)
        assert len(got) == len(expected) == p + 1
        for a, b in zip(got, expected):
            assert np.array_equal(a != 0, b != 0)  # the same active set after every step
            assert np.max(np.abs(a - b)) < 1e-9


def test_gram_omp_stops_at_an_exact_fit():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(50, 5))
    y = 2.0 * X[:, 1] - X[:, 3] + 4.0
    m = _moments([np.vstack([X.T, y])])
    path = _one_omp_path(m, 5)
    assert len(path) == 3
    assert set(np.flatnonzero(path[-1]).tolist()) == {1, 3}


def _copy_table(noise):
    """(X, y) of seed 16: column 2 is column 0, exactly or up to the noise."""
    rng = np.random.default_rng(16)
    x0, x1, z = rng.normal(size=(3, 200))
    X = np.column_stack([x0, x1, x0 + noise * z])
    return X, x0 + x1 + rng.normal(0, 1.0, 200)


def test_gram_omp_path_ends_at_the_active_span():
    # column 2 is column 0 up to 1e-7 noise: once OMP holds one of the two,
    # the other lies in the active span and fails the factor's pivot test, so
    # the path ends there with the weight on one copy, where least squares on
    # the rows fits the noise with huge opposite coefficients
    X, y = _copy_table(1e-7)
    m = _moments([np.vstack([X.T, y])])
    path, steps = _omp_path(m.G, m.c, m.width, m.y_sd, np.array([3]))
    assert steps.tolist() == [2]
    assert [np.flatnonzero(beta).tolist() for beta in path[0]] == [[], [2], [1, 2], [1, 2]]
    assert path[0, 3].tolist() == path[0, 2].tolist()  # the 3-term model is the 2-term one
    # it ended at the span, not at an uncorrelated residual
    corr = m.c[0] - m.G[0] @ path[0, 2]
    assert abs(corr[0]) > _UNCORRELATED * m.y_sd[0]
    exact = omp_path_oracle((X - X.mean(axis=0)) / X.std(axis=0), y - y.mean(), 3)[3]
    assert np.max(np.abs(exact)) > 100


def test_gram_lasso_path_through_a_leave():
    # the second draw of seed 16: feature 6 enters, its coefficient reaches 0
    # near lam = 0.01915 and it leaves, then enters again near 0.00295. Of the
    # 1,200 draws of seeds 0..39, only two paths drop a feature down to lam = 0
    rng = np.random.default_rng(16)
    for _ in range(2):
        m, Xs, y_c = _random_instance(rng, (30, 80))
    fine = np.linspace(0.03, 0.001, 2901)  # steps of 1e-5
    out = np.array(_one_lasso_path(m, list(fine)))[:, 6] == 0.0
    # in, then out over one run of the grid, then in again: exactly 0 while out
    changes = np.flatnonzero(out[1:] != out[:-1]) + 1
    assert not out[0] and len(changes) == 2
    leave, back = changes.tolist()
    assert back - leave > 1000
    # the leave to 1e-10: the last lambda with the coefficient, the first without
    finer = np.linspace(fine[leave - 1], fine[leave], 100_001)
    at = int(np.flatnonzero(np.array(_one_lasso_path(m, list(finer)))[:, 6] == 0.0)[0])
    grid = [0.025, finer[at - 1], finer[at], 0.01, 0.005, 0.002]
    path = _one_lasso_path(m, grid)
    assert [beta[6] == 0.0 for beta in path] == [False, False, True, True, True, False]
    for lam, beta in zip(grid, path):
        expected = lasso_cd_oracle(Xs, y_c, lam, tol=1e-12, max_sweeps=100_000)
        assert np.max(np.abs(beta - expected)) < 1e-9
        assert np.max(_kkt(Xs, y_c, beta, lam)) < 1e-9


def test_gram_lasso_kkt_along_paths_that_drop_features():
    # strongly correlated features: most paths drop a feature, which often
    # enters again with the other sign on the very next segment
    rng = np.random.default_rng(17)
    drops = 0
    for _ in range(40):
        n, p = int(rng.integers(20, 60)), int(rng.integers(3, 9))
        X = rng.normal(size=(n, p)) @ (np.eye(p) + rng.normal(size=(p, p)))
        y = X @ (rng.normal(size=p) * (rng.random(p) < 0.5)) + rng.normal(0, 1.0, n)
        m = _moments([np.vstack([X.T, y])])
        grid = np.linspace(np.abs(m.c).max(), 0.0, 200)
        path = _lasso_path(m.G, m.c, m.width, [grid])[0]
        Xs, y_c = (X - X.mean(axis=0)) / X.std(axis=0), y - y.mean()
        for lam, beta in zip(grid, path):
            assert np.max(_kkt(Xs, y_c, beta, lam)) < 1e-9
        on = path != 0.0
        drops += bool((on[:-1] & ~on[1:]).any())  # nonzero at one lambda, 0 at the next
    assert drops >= 10


@pytest.mark.parametrize("noise", [0.0, 1e-7], ids=["copy", "near-copy"])
def test_gram_lasso_keeps_a_copied_column_out(noise):
    # column 2 is column 0, exactly or up to the 1e-7 noise of the OMP test
    # above: the copy whose correlation reaches lam second lies in the span of
    # the first and never enters (an exact tie goes to the first column)
    rng = np.random.default_rng(16)
    x0, x1, z = rng.normal(size=(3, 200))
    X = np.column_stack([x0, x1, x0 + noise * z])
    y = x0 + x1 + rng.normal(0, 1.0, 200)
    block = np.vstack([X.T, y])
    m = _moments([block])
    first = 2 if abs(m.c[0, 2]) > abs(m.c[0, 0]) else 0
    grid = [0.0, 0.001, 0.01, 0.1, 1.0]
    path = np.array(_one_lasso_path(m, grid))
    assert np.isfinite(path).all()
    assert (path[:, 2 - first] == 0.0).all() and (path[:, [first, 1]] != 0.0).all()
    Xs, y_c = (X - X.mean(axis=0)) / X.std(axis=0), y - y.mean()
    for lam, beta in zip(grid, path):
        assert np.max(_kkt(Xs, y_c, beta, lam)[[first, 1]]) < 1e-9
    # in a batch, it steps as it does alone
    others = [rng.normal(size=(4, 150)), block[:, :120], block[:, 50:]]
    together = _moments([block, *others])
    lasso = _lasso_path(together.G, together.c, together.width, [grid] * 4)
    assert lasso[0].tolist() == path.tolist()
    for i in range(1, 4):
        one = together.take([i])
        assert lasso[i].tolist() == _lasso_path(one.G, one.c, one.width, [grid])[0].tolist()


@pytest.mark.parametrize("noise", [0.0, 1e-7], ids=["copy", "near-copy"])
def test_no_lasso_or_omp_model_weights_both_copies(noise):
    # one rule for a dependent feature: LASSO never enters the second copy
    # and OMP's path ends at it, so no model of either gives weight to both
    X, y = _copy_table(noise)
    m = _moments([np.vstack([X.T, y])])
    assert _omp_path(m.G, m.c, m.width, m.y_sd, np.array([3]))[1].tolist() == [2]
    grid = np.linspace(np.abs(m.c).max(), 0.0, 400).tolist()  # every lambda down to 0
    for method, hypers in ((LASSO, grid), (OMP, [1, 2, 3])):
        fits = _fits(m, method, [hypers], ["x0", "x1", "x2"])
        models = [fits.model(0, h).coefficients for h in range(len(hypers))]
        assert all(np.isfinite(list(coefs.values())).all() for coefs in models)
        assert not any({"x0", "x2"} <= coefs.keys() for coefs in models)
        assert all(coefs.keys() & {"x0", "x2"} for coefs in models[-3:])


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
    before, _ = best_local_model(range(n), _dataset(cols), "rmse", test)
    after, _ = best_local_model(range(n), _dataset(shuffled), "rmse", test)
    assert (after.model.method, after.model.hyper) == (before.model.method, before.model.hyper)
    assert after.holdout_error == pytest.approx(before.holdout_error, rel=1e-9, abs=0)
    expected = before.model.predict(cols)
    np.testing.assert_allclose(after.model.predict(moved), expected, rtol=0,
                               atol=1e-9 * np.max(np.abs(expected)))


# ---------------------------------------------------------------- evaluate


def test_evaluate_perfect_model():
    d = _dataset({"x": [1, 2, 3], "y": [2, 4, 6]})
    m = LinearModel(0.0, {"x": 2.0}, "OLS")
    assert evaluate(m, range(3), d, "rmse") == 0.0
    assert evaluate(m, range(3), d, "meae") == 0.0


def test_evaluate_symmetric_residuals():
    d = _dataset({"x": [0, 0], "y": [-1, 1]})
    m = LinearModel(0.0, {}, "MEAN")
    assert evaluate(m, range(2), d, "rmse") == pytest.approx(1.0)
    assert evaluate(m, range(2), d, "meae") == pytest.approx(1.0)


def test_evaluate_median_robustness():
    d = _dataset({"x": [0, 0, 0, 0], "y": [0, 0, 0, 10]})
    m = LinearModel(0.0, {}, "MEAN")
    assert evaluate(m, range(4), d, "rmse") == pytest.approx(5.0)
    assert evaluate(m, range(4), d, "meae") == pytest.approx(0.0)


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
    got = evaluate_all(models, rows, d, metric)
    idx = np.sort(rows)
    for m, e in zip(models, got.tolist()):
        want = metric_value(
            d.column("y")[idx] - m.predict({n: d.column(n)[idx] for n in m.coefficients}), metric)
        assert abs(e - want) <= 1e-12 * want
        assert evaluate(m, rows, d, metric) == evaluate_all([m], rows, d, metric)[0]


def test_evaluate_empty_rows():
    d = _dataset({"x": [1], "y": [1]})
    with pytest.raises(DataError):
        evaluate(LinearModel(0.0, {}, "MEAN"), [], d, "rmse")


@pytest.mark.parametrize("name", ["z", "g", "y"])
def test_evaluate_a_model_that_reads_no_numerical_feature_of_the_table(name):
    d = Dataset([AttributeSchema("g", "categorical"), AttributeSchema("x", "numerical"),
                 AttributeSchema("y", "numerical", role="target")],
                {"g": ["a", "b", "a"], "x": np.arange(3.0), "y": np.ones(3)})
    model = LinearModel(0.0, {"x": 1.0, name: 2.0}, "OLS")
    with pytest.raises(DataError, match=f"^a model reads {name!r}, not a numerical feature"):
        evaluate(model, range(3), d, "rmse")


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
    fm, _ = best_local_model(range(20), d, "rmse", holdout_mask(d.n, 0.2, 0))
    assert calls
    assert fm.model.method == "LASSO"


def test_contest_lower_error_wins():
    # exactly linear data: OMP's least-squares step is exact while the smallest
    # grid lambda still shrinks, so OMP wins its contest outright
    x = np.arange(20.0)
    d = _dataset({"x": x, "y": 3.0 * x + 1.0})
    fm, _ = best_local_model(range(20), d, "rmse", holdout_mask(d.n, 0.2, 0))
    assert fm.model.method == "OMP"
    assert fm.holdout_error < 1e-9
    assert fm.model.coefficients["x"] == pytest.approx(3.0, abs=1e-9)


def test_small_region_mean_fallback():
    d = _dataset({"x": [1, 2, 3, 4], "y": [1, 2, 3, 4]})
    fm, _ = best_local_model(range(4), d, "rmse", holdout_mask(d.n, 0.2, 0))
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
    fm, scored = best_local_model(rows, d, "rmse", test)
    assert (fm.model.method, fm.model.hyper) == ("MEAN", None)
    assert scored.tolist() == rows.tolist()
    assert fm.holdout_error == fm.train_error == pytest.approx(float(np.std(d.column("y")[rows])))
    split, scored = best_local_model(np.arange(d.n), d, "rmse", test)
    assert split.model.method != "MEAN"
    assert scored.tolist() == np.flatnonzero(test).tolist()


@pytest.mark.parametrize("test", [
    [True] * 20,  # a list, not an array
    np.ones(20, dtype=int),  # not bool
    np.ones(19, dtype=bool),  # not one entry per row
    np.ones((20, 1), dtype=bool),
])
def test_contest_rejects_a_test_set_that_is_not_a_bool_mask_over_the_table(test):
    d = _dataset({"x": np.arange(20.0), "y": np.arange(20.0)})
    best_local_model(range(20), d, "rmse", holdout_mask(d.n, 0.2, 0))
    with pytest.raises(DataError, match="bool mask over the table's 20 rows"):
        best_local_model(range(20), d, "rmse", test)


def test_correlated_feature_trap_lasso_wins():
    rng = np.random.default_rng(3)
    n = 100
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    decoy = 0.7 * (x1 + x2) / np.sqrt(2) + 0.7 * rng.normal(size=n)
    y = x1 + x2 + rng.normal(0, 0.05, n)
    d = _dataset({"x1": x1, "x2": x2, "decoy": decoy, "y": y})
    fm, _ = best_local_model(range(n), d, "rmse", holdout_mask(d.n, 0.2, 3))
    assert fm.model.method == "LASSO"
    # oracle: compare both contest holdout errors directly
    from hipar import fit_lasso as fl, fit_omp as fo

    test = holdout_mask(n, 0.2, 3)
    train, hold = np.flatnonzero(~test), np.flatnonzero(test)
    lasso_err = evaluate(fl(train, d, [0.001, 0.01, 0.1, 1.0], hold), hold, d, "rmse")
    omp_err = evaluate(fo(train, d, 1, hold), hold, d, "rmse")
    assert lasso_err < omp_err
    assert fm.holdout_error == pytest.approx(lasso_err)


def test_winner_refit_on_full_region():
    rng = np.random.default_rng(5)
    n = 60
    x = rng.normal(size=n)
    y = 4 * x + rng.normal(0, 0.1, n)
    d = _dataset({"x": x, "y": y})
    fm, scored = best_local_model(range(n), d, "rmse", holdout_mask(d.n, 0.2, 1))
    refit = fm.model
    # the recorded train error is the refit model's error over all rows
    assert fm.train_error == pytest.approx(evaluate(refit, range(n), d, "rmse"))
    assert len(scored) == round(0.2 * n)


def _tune_with_errors(monkeypatch, errors, entries):
    """_tune on a small table with the models' errors forced to ``errors``."""
    import hipar.regression as reg

    monkeypatch.setattr(reg, "_errors", lambda X, yv, b0, B, metric: np.array(errors, float))
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 3))
    y = X @ [1.0, -2.0, 0.5] + rng.normal(0.0, 0.1, 30)
    Zt = np.vstack([X.T, y])
    fits, (entry,), (i,), (error,) = _tune(_moments([Zt]), ["a", "b", "c"], [Zt], entries, "rmse")
    return fits[entry].methods[0], fits[entry].hypers[0][i], float(error)


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


# ---------------------------------------------------------------- batches


def _batch_table():
    """400 rows: x2 is x0 up to 1e-7 noise, so an OMP path that holds one of
    them ends at the other; x3 is constant on rows 0..99 and y on rows 100..199."""
    rng = np.random.default_rng(21)
    n = 400
    x0, x1, z = rng.normal(size=(3, n))
    x3 = np.where(np.arange(n) < 100, 2.5, rng.normal(size=n))
    y = 2.0 * x0 - x1 + 0.5 * x3 + rng.normal(0.0, 0.3, n)
    y[100:200] = 7.0
    return _dataset({"x0": x0, "x1": x1, "x2": x0 + 1e-7 * z, "x3": x3, "y": y})


def _region_pool(d, test, rng):
    inside, outside = np.flatnonzero(test), np.flatnonzero(~test)
    pool = [
        np.array([3, 50, 220]), np.array([7]), np.arange(4),  # fewer than 5 rows
        inside[:8], outside[10:30],  # on one side of the test set
        np.arange(0, 100, 2), np.arange(100, 160), np.arange(0, 200),  # constant x3, constant y
        np.arange(d.n),
    ]
    pool += [np.sort(rng.choice(d.n, size=int(rng.integers(5, 300)), replace=False))
             for _ in range(8)]
    return pool


def _same_fit(got, want):
    (fitted, scored), (fitted_alone, scored_alone) = got, want
    # repr tells -0.0 from 0.0; == on the dataclass does not
    assert fitted == fitted_alone and repr(fitted) == repr(fitted_alone)
    assert scored.tolist() == scored_alone.tolist()


@pytest.mark.parametrize("metric", ["rmse", "meae"])
def test_a_batch_fits_each_region_as_it_is_fitted_alone(monkeypatch, metric):
    import hipar.regression as reg

    d = _batch_table()
    test = holdout_mask(d.n, 0.2, 5)
    rng = np.random.default_rng(8)
    pool = _region_pool(d, test, rng)
    alone = [best_local_model(rows, d, metric, test) for rows in pool]
    # count the OMP paths that end at a feature in their active span: the
    # factor's grow refuses it inside an OMP path
    ended = []
    omp_path, grow = reg._omp_path, reg._Factor.grow

    def spy_omp_path(*args):
        def spy_grow(self, rows, j, r):
            ok = grow(self, rows, j, r)
            ended.append(int(np.count_nonzero(~ok)))
            return ok

        with monkeypatch.context() as patch:
            patch.setattr(reg._Factor, "grow", spy_grow)
            return omp_path(*args)

    monkeypatch.setattr(reg, "_omp_path", spy_omp_path)
    for _ in range(6):
        picks = rng.choice(len(pool), size=int(rng.integers(2, 10)))
        picks = [*picks, picks[0]]  # a region twice in one batch
        for got, i in zip(best_local_models([(d, pool[i], test) for i in picks], metric), picks):
            _same_fit(got, alone[i])
    everything = best_local_models([(d, rows, test) for rows in pool[::-1]], metric)[::-1]
    for got, want in zip(everything, alone):
        _same_fit(got, want)
    assert sum(ended)  # some OMP path ended at the span
    methods = {fitted.model.method for fitted, _ in alone}
    assert {"MEAN", "LASSO", "OMP"} <= methods
    assert best_local_models([], metric) == []

    # the folds of a cross-validation share one batch: regions of several
    # tables of one schema, each gathered from its own table and split by its
    # own test set, get what they get alone
    other = d.subset(np.arange(37, d.n))
    other_test = holdout_mask(other.n, 0.2, 6)
    other_pool = _region_pool(other, other_test, rng)
    regions = [(d, rows, test, want) for rows, want in zip(pool, alone)]
    regions += [(other, rows, other_test, best_local_model(rows, other, metric, other_test))
                for rows in other_pool]
    for _ in range(6):
        picks = rng.choice(len(regions), size=int(rng.integers(2, 12)))
        picks = [*picks, len(pool) - 1, len(regions) - 1]  # both tables
        batch = [regions[i] for i in picks]
        for got, (*_, want) in zip(best_local_models([r[:3] for r in batch], metric), batch):
            _same_fit(got, want)
    for got, (*_, want) in zip(best_local_models([r[:3] for r in regions], metric), regions):
        _same_fit(got, want)
    assert {fitted.model.method for _, _, _, (fitted, _) in regions[len(pool):]} >= {
        "MEAN", "LASSO", "OMP"}
    assert best_local_models((), metric) == []


def test_a_batch_names_one_table_of_one_schema_and_one_test_set_per_region():
    d = _batch_table()
    test = holdout_mask(d.n, 0.2, 5)
    other = _dataset({"x0": np.arange(20.0), "y": np.arange(20.0) % 3})
    with pytest.raises(DataError, match="tables of one schema"):
        best_local_models([(d, np.arange(10), test),
                           (other, np.arange(10), holdout_mask(other.n, 0.2, 5))], "rmse")
    with pytest.raises(DataError, match="bool mask over the table's 20 rows"):
        best_local_models([(d, np.arange(10), test), (d.subset(range(20)), np.arange(10), test)],
                          "rmse")


@pytest.mark.parametrize("metric", ["rmse", "meae"])
def test_a_contest_does_not_depend_on_where_the_schema_puts_the_target(metric):
    canonical = make_catwide(400, 3)
    d = reordered(canonical, CATWIDE_TARGET_FIRST)
    test = holdout_mask(d.n, 0.2, 4)
    pool = _region_pool(d, test, np.random.default_rng(6))
    methods = set()
    for rows in pool:
        got = best_local_model(rows, d, metric, test)
        _same_fit(got, best_local_model(rows, canonical, metric, test))
        methods.add(got[0].model.method)
    assert {"MEAN", "LASSO", "OMP"} <= methods


def test_batched_solvers_step_each_row_set_as_alone():
    d = _batch_table()
    blocks = [d.block.take(rows, axis=1)
              for rows in (np.arange(0, 100), np.arange(200, 400), np.arange(0, 400, 3),
                           np.arange(150, 350))]
    m = _moments(blocks)
    assert m.width.tolist() == [3, 4, 4, 4]  # x3 is constant on rows 0..99
    grids = [[0.001, 0.01, 0.1, 1.0], [1.0, 0.01, 0.01, 0.1], [0.3], [0.0, 0.2]]
    for lams in grids:
        together = _lasso_path(m.G, m.c, m.width, [lams] * len(blocks))
        for i in range(len(blocks)):
            one = m.take([i])
            assert together[i].tolist() == _lasso_path(one.G, one.c, one.width, [lams])[0].tolist()
    k = np.array([4, 2, 3, 4])
    path, steps = _omp_path(m.G, m.c, m.width, m.y_sd, k)
    # row set 3 ends at the span after 3 of its 4 terms: its next pick, x0, lies
    # in the span of its copy x2, though the residual is still correlated with it
    assert steps.tolist() == [2, 2, 3, 3]
    assert np.flatnonzero(path[3, 3]).tolist() == [1, 2, 3]
    assert abs(m.c[3, 0] - m.G[3, 0] @ path[3, 3]) > _UNCORRELATED * m.y_sd[3]
    for i in range(len(blocks)):
        one = m.take([i])
        alone, alone_steps = _omp_path(one.G, one.c, one.width, one.y_sd, k[[i]])
        assert steps[i] == alone_steps[0]
        assert path[i, : steps[i] + 1].tolist() == alone[0, : steps[i] + 1].tolist()
    # in a batch with a row set of independent columns, which takes its fourth
    # step, row set 3 ends at the span as it does alone
    mixed = _moments([blocks[3], np.random.default_rng(9).normal(size=(5, 150))])
    both, both_steps = _omp_path(mixed.G, mixed.c, mixed.width, mixed.y_sd, np.array([4, 4]))
    assert both_steps.tolist() == [3, 4]
    assert both[0].tolist() == path[3].tolist()
