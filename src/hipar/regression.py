"""Per-region linear models: OLS baseline, LASSO, OMP, and the local contest.

Every fit first reduces its rows to sufficient statistics. The rows are one
matrix Z = [X, y] (features, then the target), and one centered product gives
their co-moments (``_comoments``): the row count n, the column means and the
centered co-moment matrix S = Zc^T Zc. The means are kept as a rounded mean
plus the mean of the residuals about it, which also corrects S (the corrected
two-pass algorithm), so two blocks' means subtract without rounding even at
large offsets. The co-moments of two disjoint blocks merge into those of their
union with no pass over the rows (``_merge``, the pairwise update of Chan,
Golub and LeVeque 1983, "Algorithms for computing the sample variance").

The fits' statistics follow from the co-moments alone (``_moments``). A column
is constant when all its values on the rows are equal; it is decided exactly,
so the answer does not depend on the constant's value: a co-moment no larger
than the rounding error a constant column can leave is checked against the
values themselves. Constant features are dropped and the others standardized
to zero mean / unit (population) variance; the target is centered but not
scaled, so LASSO's lambda is expressed in target units. With Xs the
standardized n x p matrix and y_c the centered target, the statistics are the
p x p Gram matrix G = Xs^T Xs / n and the correlations c = Xs^T y_c / n (the
LASSO kill point is lambda_max = max_j |c_j|), both entries of S / n scaled by
the standard deviations. After that no fit touches an n-row vector:

- OLS is min-norm least squares on (G, c);
- LASSO is covariance-update coordinate descent on (G, c) (Friedman, Hastie and
  Tibshirani 2010, section 2.2), warm-started down the lambdas in descending
  order;
- OMP is greedy forward selection on the residual correlations c - G beta, with
  the Cholesky factor of the active Gram block grown by one row per step
  (Rubinstein, Zibulevsky and Elad 2008, Batch OMP). A singular block falls
  back to min-norm least squares, and the path stops early once no feature is
  correlated with the residual, as after an exact fit.

The coefficients of one method are mapped back to the original scale as one
matrix B (a column per hyperparameter, zero rows for dropped features) and
intercepts b0. Every model of a contest is scored by one residual matrix
y - b0 - X B (``_errors``), which serves both metrics: an RMSE computed from
moments would lose digits to cancellation, and a median absolute error cannot
be. Fewer than 2 rows, a constant target or no varying feature yield the
intercept-only MEAN model for every hyperparameter, whose intercept is the
exact value of a constant target.

Every hyperparameter is chosen by one core (``_tune``): ``fit_lasso`` and
``fit_omp`` tune one method on their holdout rows, and the contest
(``best_local_model``) tunes LASSO then OMP on a region's rows in the fit's
20% test set, merging the two sides' co-moments for the winner's refit. The
Occam test scores a rule's model and its parents' by one such residual matrix
(``evaluate_all``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .data import DataError, Dataset, is_int, sorted_rows

RMSE = "rmse"
MEAE = "meae"
METRICS = (RMSE, MEAE)

DEFAULT_LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0)
MAX_TERMS_CAP = 8

OLS = "OLS"
LASSO = "LASSO"
OMP = "OMP"
MEAN = "MEAN"

# A Gram block is singular when a new Cholesky pivot (the squared distance of
# a standardized feature from the span of the active ones) or a singular value
# falls below this share of the block's scale; least squares then takes the
# min-norm solution. That is a direction in which the standardized rows are
# shorter than ~3e-7 of their longest, close to the rounding error of G; longer
# ones are kept, so a solve on G stays close to least squares on the rows up
# to cond(Xs) ~ 1e6.
_RANK_TOL = 1e-13
# OMP stops once no |c_j - (G beta)_j| exceeds this share of the target's
# standard deviation: the residual is then uncorrelated with every feature.
_UNCORRELATED = 1e-9
_EPS = float(np.finfo(float).eps)


def check_metric(metric: str) -> str:
    m = metric.lower()
    if m not in METRICS:
        raise DataError(f"unknown error metric {metric!r}, expected one of {METRICS}")
    return m


def metric_value(residuals: np.ndarray, metric: str):
    """Error of a residual vector under the metric (a float), or of each
    column of a residual matrix (an array)."""
    if check_metric(metric) == RMSE:
        out = np.sqrt(np.square(residuals).sum(axis=0) / len(residuals))
    else:
        out = np.median(np.abs(residuals), axis=0)
    return float(out) if np.ndim(out) == 0 else out


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

    def predict(self, columns: Mapping[str, object]):
        """intercept + sum of coef * value over one observation (floats) or
        over columns (arrays); reads only the coefficients' attributes."""
        out = self.intercept
        for name, coef in self.coefficients.items():
            # the first step rebinds the float to a new array; later steps add in place
            out += coef * columns[name]
        return out

    def n_nonzero(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class FittedRuleModel:
    model: LinearModel
    train_error: float
    holdout_error: float
    metric: str
    holdout_rows: np.ndarray  # the region's rows in the test set (all of them on the MEAN path)


def _region(idx: np.ndarray, d: Dataset, y: str) -> tuple[list[str], np.ndarray]:
    """The feature names and the rows' matrix Z = [X, y] (those features, then
    the target) as Zt = Z^T, one contiguous row per column."""
    names = [n for n in d.numerical_features() if n != y]
    return names, d.numeric_matrix(idx, [*names, y]).T


@dataclass(frozen=True)
class _CoMoments:
    """Co-moments of a block of rows Z = [X, y]: the row count ``n``, the
    column means ``base + shift`` and the centered co-moment matrix
    S = Zc^T Zc. The means stay split in two so that the means of two blocks
    subtract without rounding even at large offsets: ``base`` is the column
    mean as first computed and ``shift`` the mean of the rows' residuals
    about it."""

    n: int
    base: np.ndarray
    shift: np.ndarray
    S: np.ndarray


def _comoments(Zt: np.ndarray) -> _CoMoments:
    """Co-moments of a block given as Zt = Z^T (one row per column of Z), from
    one centered product corrected by the residuals' mean (the corrected
    two-pass algorithm)."""
    n = Zt.shape[1]
    base = Zt.sum(axis=1) / n
    Zc = Zt - base[:, None]
    shift = Zc.sum(axis=1) / n
    S = Zc @ Zc.T
    S -= (n * shift)[:, None] * shift
    return _CoMoments(n, base, shift, S)


def _merge(a: _CoMoments, b: _CoMoments) -> _CoMoments:
    """Co-moments of the union of two disjoint blocks from theirs, with no pass
    over the rows (the pairwise update of Chan, Golub and LeVeque 1983)."""
    n = a.n + b.n
    delta = (b.base - a.base) + (b.shift - a.shift)
    return _CoMoments(n, a.base, a.shift + delta * (b.n / n),
                      a.S + b.S + delta[:, None] * (delta * (a.n * b.n / n)))


@dataclass(frozen=True)
class _Moments:
    """Sufficient statistics of one row set: ``keep`` marks the feature
    columns that vary, ``mean``/``std`` are theirs, G and c are the
    standardized Gram matrix and target correlations. ``y_sd`` is 0 when the
    target is constant."""

    keep: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    y_bar: float
    y_sd: float
    G: np.ndarray
    c: np.ndarray

    @property
    def degenerate(self) -> bool:
        """The rows only give the MEAN model: a constant target (as with a
        single row) or no feature that varies."""
        return self.y_sd == 0.0 or not self.keep.any()


def _moments(Zt: np.ndarray, cm: _CoMoments | None = None) -> _Moments:
    """Statistics of the rows of Z = [X, y] (features, then the target), given
    as Zt = Z^T, from their co-moments ``cm``, computed here unless given. The
    rows themselves are read only to decide which columns are constant."""
    if cm is None:
        cm = _comoments(Zt)
    n, p = cm.n, len(cm.S) - 1
    mean = cm.base + cm.shift
    cov = cm.S / n
    var = cov.diagonal()
    # A column is constant when all its values are equal. Its computed
    # variance is then at most (n eps mean)^2, the square of the rounding
    # error of its mean; at or below that bound the values themselves decide.
    # A column that varies but whose variance rounds to zero cannot be
    # scaled, and is dropped too.
    low = np.flatnonzero(var <= np.square(n * _EPS * mean))
    varying = var > 0.0
    if len(low):
        flat = low[(Zt[low] == Zt[low, :1]).all(axis=1)]
        varying[flat] = False
        mean[flat] = Zt[flat, 0]
    keep = varying[:p]
    std = np.sqrt(var[:p][keep])
    return _Moments(keep, mean[:p][keep], std, float(mean[p]),
                    math.sqrt(var[p]) if varying[p] else 0.0,
                    cov[:p, :p][keep][:, keep] / (std[:, None] * std), cov[:p, p][keep] / std)


def _soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def _lasso_path(G: np.ndarray, c: np.ndarray, lams: Sequence[float],
                tol: float = 1e-6, max_sweeps: int = 1000) -> list[np.ndarray]:
    """Cyclic coordinate descent for (1/2n)||y_c - Xs b||^2 + lam ||b||_1 per
    lambda, on the moments: the gradient g = c - G b loses one column of G per
    coordinate change (standardized columns, so G_jj == 1). A sweep visits the
    coordinates by decreasing |c_j| (ties by column), so where a solve stops
    does not depend on the column order. The lambdas are solved in descending
    order, each from the previous solution; a solve stops when the largest
    coefficient change in a sweep drops below tol. Returns the coefficient
    vectors in the order of ``lams``."""
    p = len(c)
    rows = G.tolist()
    order = np.argsort(-np.abs(c), kind="stable").tolist()
    beta = np.zeros(p)
    solved: dict[float, np.ndarray] = {}
    for lam in sorted(set(lams), reverse=True):
        b = beta.tolist()
        g = (c - G @ beta).tolist()
        for _ in range(max_sweeps):
            max_delta = 0.0
            for j in order:
                new = _soft_threshold(g[j] + b[j], lam)
                delta = new - b[j]
                if delta != 0.0:
                    b[j] = new
                    g = [gi - delta * gji for gi, gji in zip(g, rows[j])]
                    max_delta = max(max_delta, abs(delta))
            if max_delta < tol:
                break
        beta = np.array(b)
        solved[lam] = beta
    return [solved[lam] for lam in lams]


def _forward(L: list[list[float]], v: Sequence[float]) -> list[float]:
    """w with L w = v, for L lower triangular given by its rows."""
    w: list[float] = []
    for row, acc in zip(L, v):
        for a, b in zip(row, w):
            acc -= a * b
        w.append(acc / row[-1])
    return w


def _backward(L: list[list[float]], z: list[float]) -> list[float]:
    """x with L^T x = z, for L lower triangular given by its rows."""
    k = len(z)
    x = [0.0] * k
    for i in reversed(range(k)):
        acc = z[i]
        for r in range(i + 1, k):
            acc -= L[r][i] * x[r]
        x[i] = acc / L[i][i]
    return x


def _omp_path(G: np.ndarray, c: np.ndarray, y_sd: float, k: int) -> list[np.ndarray]:
    """Greedy forward selection on the moments: add the feature most correlated
    with the residual (largest |c_j - (G beta)_j|), refit least squares on the
    active set; stops early once no correlation exceeds _UNCORRELATED * y_sd.
    The least-squares solve grows the Cholesky factor L of the active Gram
    block and z = L^-1 c_active by one row each; once the block is singular
    the path goes on with min-norm least squares on it. Returns the
    coefficient vector after each step, led by the empty model, so the k-term
    model is ``path[min(k, len(path) - 1)]``."""
    p = len(c)
    rows, cl = G.tolist(), c.tolist()
    active: list[int] = []
    chol: list[list[float]] | None = []
    z: list[float] = []
    beta = np.zeros(p)
    path = [beta]
    corr = c
    for _ in range(min(k, p)):
        score = np.abs(corr)
        score[active] = -1.0
        j = int(np.argmax(score))
        if score[j] <= _UNCORRELATED * y_sd:
            break
        if chol is not None:
            w = _forward(chol, [rows[a][j] for a in active])
            d2 = rows[j][j]
            zj = cl[j]
            for wi, zi in zip(w, z):
                d2 -= wi * wi
                zj -= wi * zi
            if d2 > _RANK_TOL * rows[j][j]:
                d = math.sqrt(d2)
                chol.append(w + [d])
                z.append(zj / d)
            else:
                chol = None
        active.append(j)
        beta = np.zeros(p)
        if chol is not None:
            beta[active] = _backward(chol, z)
        else:
            block = G[np.ix_(active, active)]
            beta[active] = np.linalg.lstsq(block, c[active], rcond=_RANK_TOL)[0]
        corr = c - G @ beta
        path.append(beta)
    return path


@dataclass(frozen=True)
class _Fits:
    """One method's models on one row set, one per hyperparameter: model i
    predicts ``intercepts[i] + X @ B[:, i]`` over the feature matrix columns
    ``names`` (B is zero on dropped columns). ``method`` is MEAN when the rows
    were degenerate."""

    names: Sequence[str]
    method: str
    hypers: list
    intercepts: np.ndarray
    B: np.ndarray
    standardization: dict[str, tuple[float, float]]

    def model(self, i: int) -> LinearModel:
        coefs = {n: float(b) for n, b in zip(self.names, self.B[:, i].tolist()) if b != 0.0}
        return LinearModel(intercept=float(self.intercepts[i]), coefficients=coefs,
                           method=self.method, standardization=self.standardization,
                           hyper=self.hypers[i])


def _fits(m: _Moments, method: str, hypers: Sequence[float | None],
          names: Sequence[str]) -> _Fits:
    """One ``method`` model on the rows with moments ``m`` per hyperparameter
    in ``hypers``: the single ``None`` for OLS, lambdas for LASSO, term counts
    (>= 1) for OMP. Degenerate rows or the MEAN method give the MEAN model for
    each hyperparameter, recording it as ``hyper``."""
    hypers = list(hypers)
    if method == MEAN or m.degenerate:
        return _Fits(names, MEAN, hypers, np.full(len(hypers), m.y_bar),
                     np.zeros((len(names), len(hypers))), {})
    if method == OLS:
        betas = [np.linalg.lstsq(m.G, m.c, rcond=_RANK_TOL)[0]]
    elif method == LASSO:
        betas = _lasso_path(m.G, m.c, hypers)
    else:
        path = _omp_path(m.G, m.c, m.y_sd, max(hypers))
        betas = [path[min(k, len(path) - 1)] for k in hypers]
    kept = np.array(betas).T / m.std[:, None]
    B = np.zeros((len(names), len(hypers)))
    B[m.keep] = kept
    standardization = {n: (float(mu), float(s))
                       for n, mu, s in zip(compress(names, m.keep), m.mean, m.std)}
    return _Fits(names, method, hypers, m.y_bar - m.mean @ kept, B, standardization)


def _errors(X: np.ndarray, yv: np.ndarray, intercepts: np.ndarray, B: np.ndarray,
            metric: str) -> np.ndarray:
    """Error under the metric of each model ``intercepts[i] + X @ B[:, i]`` on
    the rows of X, from one residual matrix."""
    if len(yv) == 0:
        raise DataError("scoring needs a nonempty row set")
    return metric_value(yv[:, None] - intercepts - X @ B, metric)


def evaluate_all(models: Sequence[LinearModel], rows, d: Dataset, y: str,
                 metric: str) -> np.ndarray:
    """Error of each model's predictions over the rows under the metric, from
    one residual matrix over the union of the models' attributes."""
    idx = sorted_rows(rows, d.n)
    names = list(dict.fromkeys(name for m in models for name in m.coefficients))
    B = np.array([[m.coefficients.get(name, 0.0) for m in models] for name in names],
                 dtype=float).reshape(len(names), len(models))
    return _errors(d.numeric_matrix(idx, names), d.column(y)[idx],
                   np.array([m.intercept for m in models]), B, metric)


def evaluate(model: LinearModel, rows, d: Dataset, y: str, metric: str) -> float:
    """Error of the model's predictions over the rows under the metric."""
    return float(evaluate_all([model], rows, d, y, metric)[0])


def _check_terms(max_terms: int) -> None:
    if not is_int(max_terms) or max_terms < 0:
        raise DataError(f"max_terms must be a nonnegative integer, got {max_terms!r}")


def _omp(max_terms: int) -> tuple[str, Sequence[int]]:
    """OMP's tuning entry: 1..max_terms terms, or the MEAN model when max_terms is 0."""
    return (OMP, range(1, max_terms + 1)) if max_terms > 0 else (MEAN, [0])


def _tune(m: _Moments, names: Sequence[str], X: np.ndarray, yv: np.ndarray,
          entries: Sequence[tuple[str, Sequence]], metric: str) -> tuple[_Fits, int, float]:
    """Fit every ``(method, hypers)`` entry on the moments ``m`` and score all
    their models on the rows (X, yv) by one residual matrix. Returns the fits
    of the lowest error's entry, its index in them and the error; ties go to
    the earlier entry, then to LASSO's larger lambda or OMP's fewer terms."""
    fits = [_fits(m, method, hypers, names) for method, hypers in entries]
    errors = _errors(X, yv, np.concatenate([f.intercepts for f in fits]),
                     np.concatenate([f.B for f in fits], axis=1), metric).tolist()
    order = [(k, -h if method == LASSO else h, i)
             for k, ((method, _), f) in enumerate(zip(entries, fits))
             for i, h in enumerate(f.hypers)]
    error, (k, _, i) = min(zip(errors, order))
    return fits[k], i, error


def fit_ols(rows, d: Dataset, y: str) -> LinearModel:
    """Least-squares fit on standardized features (min-norm for rank-deficient
    systems); zero-variance features are dropped. Degenerate inputs fall back
    to the intercept-only MEAN model."""
    idx = sorted_rows(rows, d.n)
    if len(idx) == 0:
        raise DataError("fit_ols needs at least 1 row")
    names, Zt = _region(idx, d, y)
    return _fits(_moments(Zt), OLS, [None], names).model(0)


def _fit_tuned(rows, holdout, d: Dataset, y: str, entry: tuple[str, Sequence], metric: str,
               caller: str) -> LinearModel:
    """The ``entry`` model fit on the nonempty ``rows`` that scores best on the
    disjoint ``holdout`` rows."""
    idx = sorted_rows(rows, d.n)
    if len(idx) == 0:
        raise DataError(f"{caller} needs at least 1 row")
    hold = sorted_rows(holdout, d.n)
    # a holdout row is a fit row iff its left and right insertion points differ
    if (np.searchsorted(idx, hold, "left") != np.searchsorted(idx, hold, "right")).any():
        raise DataError("fit rows and holdout rows must be disjoint")
    names, Zt = _region(idx, d, y)
    fits, i, _ = _tune(_moments(Zt), names, d.numeric_matrix(hold, names), d.column(y)[hold],
                       [entry], metric)
    return fits.model(i)


def fit_lasso(rows, d: Dataset, y: str, lambda_grid: Sequence[float], holdout,
              metric: str = RMSE) -> LinearModel:
    """Fit LASSO on ``rows`` for each lambda in the grid and keep the one with
    the lowest holdout error (ties go to the larger, sparser lambda)."""
    lams = [float(lam) for lam in lambda_grid]
    if not lams:
        raise DataError("lambda grid must be nonempty")
    if not all(math.isfinite(lam) and lam >= 0.0 for lam in lams):
        raise DataError(f"lambdas must be finite and >= 0, got {lams}")
    return _fit_tuned(rows, holdout, d, y, (LASSO, lams), metric, "fit_lasso")


def fit_omp(rows, d: Dataset, y: str, max_terms: int, holdout, metric: str = RMSE) -> LinearModel:
    """Greedy forward selection with the term count chosen on the holdout slice
    (ties go to the smaller count); max_terms = 0 yields the MEAN model."""
    _check_terms(max_terms)
    return _fit_tuned(rows, holdout, d, y, _omp(max_terms), metric, "fit_omp")


def best_local_model(
    rows, d: Dataset, y: str, metric: str, test: np.ndarray, max_terms: int | None = None
) -> FittedRuleModel:
    """LASSO vs OMP contest on the rows, split by the fit's test set ``test``,
    a bool mask over the table (``holdout_mask(d.n, 0.2, seed)``).

    The region's matrix Z = [X, y] is built once, column-major, and split by
    the mask. ``_tune`` fits both methods on the rows outside it and scores
    all their models on the rows inside it by one residual matrix; the best
    (ties to LASSO) is refit on all rows with its hyperparameter, keeping the
    contest holdout error on record. The refit's moments merge the co-moments
    of the two sides. A region with fewer than 5 rows, or all on one side of
    the mask, falls back to the MEAN model, scored on its own rows. OMP tries
    up to ``max_terms`` terms, a nonnegative int; None means the feature
    count, capped at ``MAX_TERMS_CAP``.
    A target constant on the fitting side makes both methods fit the MEAN
    model there, scored on the test side like any other; LASSO wins the tie
    and the MEAN model is refit on all rows."""
    metric = check_metric(metric)
    if max_terms is not None:
        _check_terms(max_terms)
    if not (isinstance(test, np.ndarray) and test.dtype == bool and test.shape == (d.n,)):
        raise DataError(f"the test set must be a bool mask over the table's {d.n} rows")
    idx = sorted_rows(rows, d.n)
    if len(idx) == 0:
        raise DataError("best_local_model needs at least 1 row")
    names, Zt = _region(idx, d, y)
    if max_terms is None:
        max_terms = min(len(names), MAX_TERMS_CAP)
    test = test[idx]
    if len(idx) < 5 or not 0 < np.count_nonzero(test) < len(idx):  # no split
        method, hyper, full, holdout_rows, holdout_error = MEAN, None, _moments(Zt), idx, None
    else:
        train, hold = Zt.compress(~test, axis=1), Zt.compress(test, axis=1)
        sides = _comoments(train), _comoments(hold)
        fits, i, holdout_error = _tune(_moments(train, sides[0]), names, hold[:-1].T, hold[-1],
                                       [(LASSO, DEFAULT_LAMBDA_GRID), _omp(max_terms)], metric)
        method, hyper = fits.method, None if fits.method == MEAN else fits.hypers[i]
        full, holdout_rows = _moments(Zt, _merge(*sides)), idx[test]

    refit = _fits(full, method, [hyper], names)
    train_error = float(_errors(Zt[:-1].T, Zt[-1], refit.intercepts, refit.B, metric)[0])
    return FittedRuleModel(refit.model(0), train_error,
                           train_error if holdout_error is None else holdout_error, metric,
                           holdout_rows)
