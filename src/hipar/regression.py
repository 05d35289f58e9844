"""Per-region linear models: OLS baseline, LASSO, OMP, and the local contest.

Every fit goes through one core, ``_fit``, which returns one model per
hyperparameter of one method. It standardizes the rows once: features to zero
mean / unit (population) variance, dropping those with zero variance; the
target is centered but not scaled, so LASSO's lambda is expressed in target
units (the kill point is lambda_max = max_j |x_j^T (y - ybar)| / n on
standardized features). From that one standardization it fits OLS by one
least-squares solve, LASSO by one coordinate-descent solve per lambda, and OMP
by one greedy path whose first k steps give the k-term model. Coefficients are
mapped back to the original scale. Fewer than 2 rows, a constant target or no
varying feature yield the intercept-only MEAN model for every hyperparameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import DataError, Dataset, holdout_split, sorted_rows

RMSE = "rmse"
MEAE = "meae"
METRICS = (RMSE, MEAE)

DEFAULT_LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0)
MAX_TERMS_CAP = 8

OLS = "OLS"
LASSO = "LASSO"
OMP = "OMP"
MEAN = "MEAN"


def check_metric(metric: str) -> str:
    m = metric.lower()
    if m not in METRICS:
        raise DataError(f"unknown error metric {metric!r}, expected one of {METRICS}")
    return m


def metric_value(residuals: np.ndarray, metric: str) -> float:
    if check_metric(metric) == RMSE:
        return float(np.sqrt(np.mean(np.square(residuals))))
    return float(np.median(np.abs(residuals)))


@dataclass(frozen=True)
class LinearModel:
    """Sparse linear consequent: intercept + sum of coef * attribute.

    ``coefficients`` holds only non-zero entries in dataset column order;
    ``standardization`` records the per-feature (mean, std) used at fit time.
    ``hyper`` is the winning hyperparameter (lambda for LASSO, term count for OMP).
    """

    intercept: float
    coefficients: dict[str, float]
    method: str
    standardization: dict[str, tuple[float, float]] = field(default_factory=dict)
    hyper: float | None = None

    def predict_obs(self, obs: Mapping[str, object]) -> float:
        out = self.intercept
        for name, coef in self.coefficients.items():
            if name not in obs:
                raise DataError(f"observation is missing attribute {name!r}")
            out += coef * float(obs[name])  # type: ignore[arg-type]
        return out

    def predict_rows(self, d: Dataset, rows: np.ndarray) -> np.ndarray:
        out = np.full(len(rows), self.intercept)
        for name, coef in self.coefficients.items():
            out += coef * d.column(name)[rows]
        return out

    def n_nonzero(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class FittedRuleModel:
    model: LinearModel
    train_error: float
    holdout_error: float
    metric: str
    holdout_rows: np.ndarray  # the 20% contest slice (whole region for MEAN fallback)


def evaluate(model: LinearModel, rows, d: Dataset, y: str, metric: str) -> float:
    """Error of the model's predictions over the rows under the metric."""
    idx = sorted_rows(rows)
    if len(idx) == 0:
        raise DataError("evaluate needs a nonempty row set")
    residuals = d.column(y)[idx] - model.predict_rows(d, idx)
    return metric_value(residuals, metric)


def _mean_model(rows: np.ndarray, d: Dataset, y: str, hyper: float | None = None) -> LinearModel:
    return LinearModel(intercept=float(np.mean(d.column(y)[rows])), coefficients={}, method=MEAN,
                       hyper=hyper)


def _feature_names(d: Dataset, y: str) -> list[str]:
    return [n for n in d.numerical_features() if n != y]


def _standardize(d: Dataset, rows: np.ndarray, names: Sequence[str]):
    """Keep features with positive variance on the rows; return (names, Xs, mean, std)."""
    X = d.numeric_matrix(rows, names)
    mean = X.mean(axis=0) if len(names) else np.empty(0)
    std = X.std(axis=0) if len(names) else np.empty(0)
    keep = std > 0
    kept = [n for n, k in zip(names, keep) if k]
    Xs = (X[:, keep] - mean[keep]) / std[keep]
    return kept, Xs, mean[keep], std[keep]


def _to_original_scale(
    names: Sequence[str], beta_std: np.ndarray, mean: np.ndarray, std: np.ndarray, y_bar: float,
    method: str, standardization: dict[str, tuple[float, float]], hyper: float | None = None,
) -> LinearModel:
    coefs: dict[str, float] = {}
    intercept = y_bar
    for name, b, m, s in zip(names, beta_std, mean, std):
        c = float(b / s)
        if c != 0.0:
            coefs[name] = c
            intercept -= c * m
    return LinearModel(
        intercept=float(intercept), coefficients=coefs, method=method,
        standardization=standardization, hyper=hyper,
    )


def _soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def _lasso_cd(Xs: np.ndarray, y_c: np.ndarray, lam: float,
              tol: float = 1e-6, max_sweeps: int = 1000) -> np.ndarray:
    """Cyclic coordinate descent for (1/2n)||y - X b||^2 + lam ||b||_1 on
    standardized columns ((1/n)||x_j||^2 == 1); stops when the largest
    coefficient change in a sweep drops below tol."""
    n, p = Xs.shape
    beta = np.zeros(p)
    resid = y_c.copy()
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(p):
            xj = Xs[:, j]
            rho = (xj @ resid) / n + beta[j]
            new = _soft_threshold(rho, lam)
            delta = new - beta[j]
            if delta != 0.0:
                resid -= delta * xj
                beta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < tol:
            break
    return beta


def _omp_path(Xs: np.ndarray, y_c: np.ndarray, k: int) -> list[np.ndarray]:
    """Greedy forward selection: add the feature most correlated with the
    residual, refit OLS on the active set; stops early on a ~zero residual.
    Returns the coefficient vector after each step, led by the empty model, so
    the k-term model is ``path[min(k, len(path) - 1)]``."""
    n, p = Xs.shape
    active: list[int] = []
    path = [np.zeros(p)]
    resid = y_c.copy()
    scale = float(np.max(np.abs(y_c))) if len(y_c) else 0.0
    for _ in range(min(k, p)):
        if scale == 0.0 or float(np.max(np.abs(resid))) <= 1e-12 * scale:
            break
        corr = np.abs(Xs.T @ resid)
        corr[active] = -1.0
        j = int(np.argmax(corr))
        active.append(j)
        sub, *_ = np.linalg.lstsq(Xs[:, active], y_c, rcond=None)
        resid = y_c - Xs[:, active] @ sub
        beta = np.zeros(p)
        beta[active] = sub
        path.append(beta)
    return path


def _fit(idx: np.ndarray, d: Dataset, y: str, method: str,
         hypers: Sequence[float | None]) -> list[LinearModel]:
    """One ``method`` model on the rows per hyperparameter in ``hypers``: the
    single ``None`` for OLS, lambdas for LASSO, term counts (>= 1) for OMP.
    Fewer than 2 rows, a constant target or no feature with positive variance
    give the MEAN model for each hyperparameter, recording it as ``hyper``."""
    yv = d.column(y)[idx]
    kept: list[str] = []
    if len(idx) >= 2 and np.std(yv) != 0.0:
        kept, Xs, mean, std = _standardize(d, idx, _feature_names(d, y))
    if not kept:
        return [_mean_model(idx, d, y, h) for h in hypers]
    y_bar = float(np.mean(yv))
    y_c = yv - y_bar
    if method == OLS:
        betas = [np.linalg.lstsq(Xs, y_c, rcond=None)[0]]
    elif method == LASSO:
        betas = [_lasso_cd(Xs, y_c, lam) for lam in hypers]
    else:
        path = _omp_path(Xs, y_c, max(hypers))
        betas = [path[min(k, len(path) - 1)] for k in hypers]
    standardization = {n: (float(m), float(s)) for n, m, s in zip(kept, mean, std)}
    return [_to_original_scale(kept, beta, mean, std, y_bar, method, standardization, hyper=h)
            for beta, h in zip(betas, hypers)]


def fit_ols(rows, d: Dataset, y: str) -> LinearModel:
    """Least-squares fit on standardized features (min-norm for rank-deficient
    systems); zero-variance features are dropped. Degenerate inputs fall back
    to the intercept-only MEAN model."""
    idx = sorted_rows(rows)
    if len(idx) == 0:
        raise DataError("fit_ols needs at least 1 row")
    return _fit(idx, d, y, OLS, [None])[0]


def fit_lasso(rows, d: Dataset, y: str, lambda_grid: Sequence[float], holdout,
              metric: str = RMSE) -> LinearModel:
    """Fit LASSO on ``rows`` for each lambda in the grid and keep the one with
    the lowest holdout error (ties go to the larger, sparser lambda)."""
    idx = sorted_rows(rows)
    if len(idx) == 0:
        raise DataError("fit_lasso needs at least 1 row")
    hold = sorted_rows(holdout)
    if len(np.intersect1d(idx, hold)) > 0:
        raise DataError("fit rows and holdout rows must be disjoint")
    if not lambda_grid:
        raise DataError("lambda grid must be nonempty")
    best: tuple[float, float, LinearModel] | None = None
    for model in _fit(idx, d, y, LASSO, [float(lam) for lam in lambda_grid]):
        err = evaluate(model, hold, d, y, metric)
        if best is None or err < best[0] or (err == best[0] and model.hyper > best[1]):
            best = (err, model.hyper, model)
    return best[2]


def fit_omp(rows, d: Dataset, y: str, max_terms: int, holdout, metric: str = RMSE) -> LinearModel:
    """Greedy forward selection with the term count chosen on the holdout slice
    (ties go to the smaller count); max_terms = 0 yields the MEAN model."""
    idx = sorted_rows(rows)
    if len(idx) == 0:
        raise DataError("fit_omp needs at least 1 row")
    hold = sorted_rows(holdout)
    if len(np.intersect1d(idx, hold)) > 0:
        raise DataError("fit rows and holdout rows must be disjoint")
    if max_terms < 0:
        raise DataError("max_terms must be >= 0")
    if max_terms == 0:
        return _mean_model(idx, d, y, hyper=0)
    best: tuple[float, LinearModel] | None = None
    for model in _fit(idx, d, y, OMP, range(1, max_terms + 1)):
        err = evaluate(model, hold, d, y, metric)
        if best is None or err < best[0]:
            best = (err, model)
    return best[1]


def best_local_model(
    rows, d: Dataset, y: str, metric: str, seed: int,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    max_terms: int | None = None,
) -> FittedRuleModel:
    """LASSO vs OMP contest on an 80/20 split of the rows.

    Both methods are fit on the 80% side with their hyperparameter chosen on the
    20% side; the winner (ties to LASSO) is refit on all rows with the winning
    hyperparameter, keeping the contest holdout error on record. Regions with
    fewer than 5 rows or a degenerate target fall back to the MEAN model.
    """
    metric = check_metric(metric)
    idx = sorted_rows(rows)
    if len(idx) == 0:
        raise DataError("best_local_model needs at least 1 row")
    if max_terms is None:
        max_terms = min(len(_feature_names(d, y)), MAX_TERMS_CAP)

    if len(idx) < 5:
        model = _mean_model(idx, d, y)
        err = evaluate(model, idx, d, y, metric)
        return FittedRuleModel(model, train_error=err, holdout_error=err,
                               metric=metric, holdout_rows=idx)

    train, hold = holdout_split(idx, 0.2, seed)
    if np.std(d.column(y)[train]) == 0.0:
        model = _mean_model(idx, d, y)
        return FittedRuleModel(
            model,
            train_error=evaluate(model, idx, d, y, metric),
            holdout_error=evaluate(model, hold, d, y, metric),
            metric=metric, holdout_rows=hold,
        )

    lasso = fit_lasso(train, d, y, lambda_grid, hold, metric)
    omp = fit_omp(train, d, y, max_terms, hold, metric)
    lasso_err = evaluate(lasso, hold, d, y, metric)
    omp_err = evaluate(omp, hold, d, y, metric)
    winner, holdout_error = (lasso, lasso_err) if lasso_err <= omp_err else (omp, omp_err)

    if winner.method == MEAN:
        refit = _mean_model(idx, d, y)
    else:
        refit = _fit(idx, d, y, winner.method, [winner.hyper])[0]
    return FittedRuleModel(
        refit,
        train_error=evaluate(refit, idx, d, y, metric),
        holdout_error=holdout_error,
        metric=metric,
        holdout_rows=hold,
    )
