"""Per-region linear models: OLS baseline, LASSO, OMP, and the local contest.

Every fit reads the target the dataset names (``Dataset.target``) and first
reduces its rows to sufficient statistics. The rows are one matrix Z = [X, y]
(the numerical features, then the target), and one centered product gives
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
- OMP is greedy forward selection on the residual correlations c - G beta, with
  the Cholesky factor of the active Gram block grown by one row per step
  (Rubinstein, Zibulevsky and Elad 2008, Batch OMP). The path ends early at a
  feature in the active span, which LASSO never enters, or once no feature is
  correlated with the residual, as after an exact fit;
- LASSO is solved exactly along its path on the factor OMP grows (LARS with
  the lasso modification; Efron, Hastie, Johnstone and Tibshirani 2004), each
  lambda read off its segment.

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

The core works on batches of row sets; a fit of one row set is a batch of one.
A search node fits all the regions it needs in one contest call
(``best_local_models``), and the folds of a cross-validation share that call:
a batch is a sequence of (table, rows, test mask) regions, which may come from
several tables of one schema. A region's Z^T is one ``take`` of its rows'
columns from its table's ``block``. The sums and products over a region's rows
(its co-moments, X B and the residual sums) run as one numpy call per region,
as for that region alone. The small products G beta and mean B run as one
stacked product per number of varying features, with each region's operands
laid out as for that region alone. Everything elementwise runs once per batch
over stacked arrays: the moments, the merge, every LASSO and OMP path step,
the tie-breaks and the refits. So every region gets bit for bit the model it
gets alone, whatever else is in its batch.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields

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

# A feature is in the active span when its Cholesky pivot (its squared distance
# from the span) falls below this share of G_jj: LASSO never enters it and OMP
# ends there. The OLS baseline's min-norm least squares drops singular values
# below this share of the largest. Either is a direction in which the
# standardized rows are shorter than ~3e-7 of their longest, close to the
# rounding error of G; longer ones are kept, so a solve on G stays close to
# least squares on the rows up to cond(Xs) ~ 1e6.
_RANK_TOL = 1e-13
# OMP stops once no |c_j - (G beta)_j| exceeds this share of the target's
# standard deviation: the residual is then uncorrelated with every feature.
_UNCORRELATED = 1e-9
_EPS = float(np.finfo(float).eps)


def check_metric(metric: str) -> str:
    m = metric.lower() if isinstance(metric, str) else None
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
    """A rule's local model and its errors under the fit's metric: on all the
    region's rows (``train_error``) and on the rows its contest scored on
    (``holdout_error``). A rule file holds exactly these fields."""

    model: LinearModel
    train_error: float
    holdout_error: float


@dataclass(frozen=True)
class _CoMoments:
    """Co-moments of k blocks of rows Z = [X, y], stacked along the first
    axis: the row counts ``n`` (k), the column means ``base + shift`` (k x q)
    and the centered co-moment matrices S = Zc^T Zc (k x q x q). The means
    stay split in two so that the means of two blocks subtract without
    rounding even at large offsets: ``base`` is the column mean as first
    computed and ``shift`` the mean of the rows' residuals about it."""

    n: np.ndarray
    base: np.ndarray
    shift: np.ndarray
    S: np.ndarray


def _comoments(blocks: Sequence[np.ndarray], q: int) -> _CoMoments:
    """Co-moments of blocks given as Zt = Z^T (q rows, one per column of Z),
    each from one centered product corrected by the residuals' mean (the
    corrected two-pass algorithm). The sums and the product run per block,
    the corrections for all blocks at once; each block is read once."""
    k = len(blocks)
    n = np.empty(k, dtype=np.int64)
    base, sums, S = np.empty((k, q)), np.empty((k, q)), np.empty((k, q, q))
    for i, Zt in enumerate(blocks):
        n[i] = Zt.shape[1]
        base[i] = Zt.sum(axis=1) / Zt.shape[1]
        Zc = Zt - base[i][:, None]
        sums[i] = Zc.sum(axis=1)
        S[i] = Zc @ Zc.T
    shift = sums / n[:, None]
    S -= (n[:, None] * shift)[:, :, None] * shift[:, None, :]
    return _CoMoments(n, base, shift, S)


class _Blocks(Sequence):
    """Row set i's matrix Zt = [X, y]^T on the sorted rows ``rows[i]`` of
    ``tables[i]``, less those where ``drop[i]`` is set if given, one ``take``
    of the table's ``block`` each time it is read: a batch holds no copy of
    its regions' values, nor of a row set it reads through a mask."""

    def __init__(self, tables: Sequence[Dataset], rows: Sequence[np.ndarray],
                 drop: Sequence[np.ndarray] | None = None):
        self.tables, self.rows, self.drop = tables, rows, drop

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> np.ndarray:
        rows = self.rows[i] if self.drop is None else self.rows[i][~self.drop[i]]
        return self.tables[i].block.take(rows, axis=1)


def _merge(a: _CoMoments, b: _CoMoments) -> _CoMoments:
    """Co-moments of the unions of disjoint blocks, block i of ``a`` with block
    i of ``b``, from theirs, with no pass over the rows (the pairwise update
    of Chan, Golub and LeVeque 1983)."""
    n = a.n + b.n
    delta = (b.base - a.base) + (b.shift - a.shift)
    outer = delta[:, :, None] * (delta * (a.n * b.n / n)[:, None])[:, None, :]
    return _CoMoments(n, a.base, a.shift + delta * (b.n / n)[:, None], a.S + b.S + outer)


def _concat(a: _CoMoments, b: _CoMoments) -> _CoMoments:
    """The blocks of ``a``, then those of ``b``."""
    return _CoMoments(*(np.concatenate([getattr(a, f.name), getattr(b, f.name)])
                        for f in fields(a)))


@dataclass(frozen=True)
class _Moments:
    """Sufficient statistics of k row sets, stacked along the first axis. Row
    set i's varying feature columns are ``cols[i, :width[i]]``, in column
    order; ``mean``, ``std`` and ``c`` hold their statistics in that order and
    G their standardized Gram matrix, padded with zeros (``std`` with ones) to
    the p features. ``y_sd`` is 0 where the target is constant."""

    cols: np.ndarray
    width: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    y_bar: np.ndarray
    y_sd: np.ndarray
    G: np.ndarray
    c: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        """Per row set, whether its rows only give the MEAN model: a constant
        target (as with a single row) or no feature that varies."""
        return (self.y_sd == 0.0) | (self.width == 0)

    def take(self, rows: Sequence[int]) -> _Moments:
        """The statistics of the given row sets, in that order."""
        return _Moments(*(getattr(self, f.name)[rows] for f in fields(self)))


def _moments(blocks: Sequence[np.ndarray], cm: _CoMoments | None = None) -> _Moments:
    """Statistics of the row sets of Z = [X, y] (features, then the target),
    each given as Zt = Z^T, from their co-moments ``cm``, computed here unless
    given. The rows themselves are read only to decide which columns are
    constant."""
    if cm is None:
        cm = _comoments(blocks, len(blocks[0]))
    p = cm.base.shape[1] - 1
    mean = cm.base + cm.shift
    cov = cm.S / cm.n[:, None, None]
    var = np.diagonal(cov, axis1=1, axis2=2)
    # A column is constant when all its values are equal. Its computed
    # variance is then at most (n eps mean)^2, the square of the rounding
    # error of its mean; at or below that bound the values themselves decide.
    # A column that varies but whose variance rounds to zero cannot be
    # scaled, and is dropped too.
    low = var <= np.square(cm.n[:, None] * _EPS * mean)
    varying = var > 0.0
    for i in np.flatnonzero(low.any(axis=1)).tolist():
        Zt, cand = blocks[i], np.flatnonzero(low[i])
        flat = cand[(Zt[cand] == Zt[cand, :1]).all(axis=1)]
        varying[i, flat] = False
        mean[i, flat] = Zt[flat, 0]
    keep = varying[:, :p]
    cols = np.argsort(~keep, axis=1, kind="stable")  # the varying columns first
    width = keep.sum(axis=1)
    used = np.arange(p) < width[:, None]
    at = np.arange(len(cols))[:, None]
    std = np.sqrt(np.where(used, var[at, cols], 1.0))
    sxx = cov[at[:, :, None], cols[:, :, None], cols[:, None, :]]
    G = (np.where(used[:, :, None] & used[:, None, :], sxx, 0.0)
         / (std[:, :, None] * std[:, None, :]))
    c = np.where(used, cov[at, cols, p], 0.0) / std
    return _Moments(cols, width, np.where(used, mean[at, cols], 0.0), std, mean[:, p],
                    np.sqrt(np.where(varying[:, p], var[:, p], 0.0)), G, c)


def _widths(width: np.ndarray):
    """(w, the row sets of width w) for each nonzero width."""
    for w in sorted(set(width.tolist()) - {0}):
        yield w, np.flatnonzero(width == w)


def _gram_times(G: np.ndarray, width: np.ndarray, x: np.ndarray) -> np.ndarray:
    """G_i x_i for each row set i, on its own width x width Gram block and
    the first width entries of x_i, padded with zeros. One stacked product per
    width: each row set's operands are laid out as in a product on that row
    set alone, so its result does not depend on the other row sets."""
    out = np.zeros_like(x)
    for w, at in _widths(width):
        out[at, :w] = np.matmul(np.ascontiguousarray(G[at, :w, :w]), x[at, :w, None])[:, :, 0]
    return out


class _Factor:
    """Cholesky factors L L^T = G_AA of m row sets' active Gram blocks and
    z = L^-1 r for the active features' right-hand sides r (c_j for OMP, the
    entering signs for LASSO), row set i's being ``cols[i, :n[i]]``. Past them
    L is the identity and z zero: a longer solve gives a row set's own values.
    No feature in the active span is grown, so no factor is ever singular."""

    def __init__(self, G: np.ndarray, size: int):
        self.G = np.zeros((len(G), G.shape[1] + 1, G.shape[1] + 1))
        self.G[:, :-1, :-1] = G  # and a zero feature p, which pads cols
        self.L, self.z = np.tile(np.eye(size), (len(G), 1, 1)), np.zeros((len(G), size))
        self.cols, self.n = np.full((len(G), size), G.shape[1]), np.zeros(len(G), dtype=int)

    def grow(self, rows: np.ndarray, j: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Append feature j[i], right-hand side r[i], to row set rows[i] where its pivot
        (squared distance from the active span) exceeds _RANK_TOL * G_jj; returns where."""
        s = int(self.n[rows].max(initial=0))
        L, z = self.L[rows, :s, :s], self.z[rows, :s]
        v = self.G[rows[:, None], self.cols[rows, :s], j[:, None]]
        gjj = self.G[rows, j, j]
        w, d2, zj = np.empty((len(rows), s)), gjj, r
        for i in range(s):
            acc = v[:, i]
            for t in range(i):
                acc = acc - L[:, i, t] * w[:, t]
            w[:, i] = acc / L[:, i, i]
            d2, zj = d2 - w[:, i] * w[:, i], zj - w[:, i] * z[:, i]
        ok = d2 > _RANK_TOL * gjj
        good, d = rows[ok], np.sqrt(d2[ok])
        at = self.n[good]
        self.L[good, at, :s], self.z[good, at], self.cols[good, at] = w[ok], zj[ok] / d, j[ok]
        self.L[good, at, at] = d
        self.n[good] += 1
        return ok

    def solve(self, rows: np.ndarray) -> np.ndarray:
        """The x with G_AA x = r of each row set, from L^T x = z solved from
        the last row up, scattered to its p columns."""
        s = int(self.n[rows].max(initial=0))
        L, z = self.L[rows, :s, :s], self.z[rows, :s]
        x = np.empty((len(rows), s))
        for i in reversed(range(s)):
            acc = z[:, i]
            for t in range(i + 1, s):
                acc = acc - L[:, t, i] * x[:, t]
            x[:, i] = acc / L[:, i, i]
        out = np.zeros((len(rows), len(self.G[0])))  # and the padding feature p, dropped
        out[np.arange(len(rows))[:, None], self.cols[rows, :s]] = x
        return out[:, :-1]

    def drop(self, rows: np.ndarray, j: np.ndarray, r: np.ndarray) -> None:
        """Refactor each row set rows[i] without its active feature j[i]: the
        others grow again in their order, with right-hand sides r[rows[i]]."""
        for i, gone in zip(rows.tolist(), j.tolist()):
            kept = [col for col in self.cols[i, :self.n[i]].tolist() if col != gone]
            self.L[i], self.z[i], self.n[i] = np.eye(len(self.z[i])), 0.0, 0
            self.cols[i] = len(r[i])  # the padding feature p
            for col in kept:
                self.grow(np.array([i]), np.array([col]), r[i, [col]])


def _lasso_path(G: np.ndarray, c: np.ndarray, width: np.ndarray, lams) -> np.ndarray:
    """The exact path of (1/2n)||y_c - Xs b||^2 + lam ||b||_1 on the moments
    of m row sets (``_Moments``' padded G, c and width), by LARS with the lasso
    modification. From b = 0 at lam = max_j |c_j|, b moves along d with
    G_AA d_A = sign_A, so the active correlations c - G b stay at +-lam as lam
    falls, until an inactive one reaches +-lam (the feature enters, unless it
    is in the active span: then it never does) or an active coefficient
    reaches 0 (it leaves; on the next segment it may enter again only with the
    other sign); ties go to the first column. Row set i's lambdas ``lams[i]``
    are read off their segments by linear interpolation, each row set stepping
    as it does alone. Returns the coefficients at lams, m x len(lams[i]) x p."""
    m, p = c.shape
    lams = np.asarray(lams, dtype=float).reshape(m, -1)
    out, f = np.zeros((m, lams.shape[1], p)), _Factor(G, int(width.max(initial=0)))
    b, sign, corr = np.zeros((m, p)), np.zeros((m, p)), c.copy()  # corr = c - G b
    lam, floor = np.abs(c).max(axis=1), lams.min(axis=1)
    free = np.arange(p) < width[:, None]  # may enter: the padding never does
    left = np.full(m, -1)  # the feature that left at the last step
    live = np.flatnonzero(lam > floor)
    # at lam_max the first feature of largest |c_j| enters, with the sign of c_j
    j = np.abs(c[live]).argmax(axis=1)
    sign[live, j], free[live, j] = np.sign(c[live, j]), False
    f.grow(live, j, sign[live, j])
    while len(live):
        at, lam_l, grid, cl = np.arange(len(live)), lam[live], lams[live], corr[live]
        d = f.solve(live)
        a = _gram_times(G[live], width[live], d)
        # the step at which correlation j meets lam - gamma (up) or -(lam - gamma)
        # (down); a feature that just left meets its own sign's bound only there
        own = (np.arange(p) == left[live, None]) * sign[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where((a < 1.0) & (own <= 0.0), (lam_l[:, None] - cl) / (1.0 - a), np.inf)
            down = np.where((a > -1.0) & (own >= 0.0), (lam_l[:, None] + cl) / (1.0 + a), np.inf)
            leave = np.where(b[live] * d < 0.0, -b[live] / d, np.inf)
        enter = np.where(free[live], np.maximum(np.minimum(up, down), 0.0), np.inf)
        je, jl = enter.argmin(axis=1), leave.argmin(axis=1)
        ge, gl = enter[at, je], leave[at, jl]
        gamma = np.minimum(np.minimum(ge, gl), lam_l)
        new = lam_l - gamma
        go = new > floor[live]
        # the grid lambdas on this segment (one at its end is read again on the next)
        r, h = np.nonzero((grid <= lam_l[:, None]) & (grid >= new[:, None]))
        out[live[r], h] = b[live[r]] + (lam_l[r] - grid[r, h])[:, None] * d[r]
        b[live] += gamma[:, None] * d
        corr[live] = cl - gamma[:, None] * a
        lam[live], left[live] = new, -1
        drop = go & (gl <= ge)
        rows, j = live[drop], jl[drop]
        b[rows, j], free[rows, j], left[rows] = 0.0, True, j
        f.drop(rows, j, sign)
        rows, j = live[go & ~drop], je[go & ~drop]
        sign[rows, j] = np.where(up[at, je] <= down[at, je], 1.0, -1.0)[go & ~drop]
        f.grow(rows, j, sign[rows, j])
        free[rows, j] = False
        live = live[go]
    return out


def _omp_path(G: np.ndarray, c: np.ndarray, width: np.ndarray, y_sd: np.ndarray,
              k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy forward selection on the moments of m row sets (as for
    ``_lasso_path``), up to k[i] terms for row set i: add the feature most
    correlated with the residual (largest |c_j - (G beta)_j|), refit least
    squares on the active set by a ``_Factor`` grow and solve (r = c). A row
    set's path ends early once no correlation exceeds _UNCORRELATED * y_sd, or
    at a feature in its active span, which fails the grow's pivot test (as in
    Batch OMP; LASSO never enters such a feature). Every row set takes the
    steps it would take alone.

    Returns (path, steps): ``path[i, s]`` holds row set i's coefficients
    after s steps, led by the empty model, and ``steps[i]`` the steps it took;
    a path that ended repeats its last entry, so the k-term model is
    ``path[i, min(k, path.shape[1] - 1)]``."""
    m, p = c.shape
    limit = np.minimum(k, width)
    S = int(limit.max(initial=0))
    path, steps, corr, f = np.zeros((m, S + 1, p)), np.zeros(m, dtype=int), c.copy(), _Factor(G, S)
    taken = np.arange(p) >= width[:, None]  # padding is never selected
    live = np.flatnonzero(limit > 0)
    for s in range(S):
        score = np.where(taken[live], -1.0, np.abs(corr[live]))
        j = score.argmax(axis=1)
        go = score[np.arange(len(live)), j] > _UNCORRELATED * y_sd[live]
        live, j = live[go], j[go]
        ok = f.grow(live, j, c[live, j])  # False where j lies in the active span
        live, j = live[ok], j[ok]
        if not len(live):
            break
        taken[live, j] = True
        beta = f.solve(live)
        corr[live] = c[live] - _gram_times(G[live], width[live], beta)
        path[live, s + 1], steps[live] = beta, s + 1
        live = live[s + 1 < limit[live]]
    upto = np.minimum(np.arange(S + 1), steps[:, None])
    return path[np.arange(m)[:, None], upto], steps


@dataclass(frozen=True)
class _Fits:
    """One method's models on k row sets, one per hyperparameter: model
    (i, h) predicts ``intercepts[i, h] + X @ B[i, :, h]`` over the feature
    matrix columns ``names`` (B is zero on dropped columns). ``methods[i]`` is
    MEAN where row set i was degenerate; ``m`` are the row sets' moments."""

    names: Sequence[str]
    methods: list[str]
    hypers: list[list]
    intercepts: np.ndarray
    B: np.ndarray
    m: _Moments

    def model(self, i: int, h: int) -> LinearModel:
        coefs = {n: float(b) for n, b in zip(self.names, self.B[i, :, h].tolist()) if b != 0.0}
        w = int(self.m.width[i])
        cols, mean, std = (x[i, :w].tolist() for x in (self.m.cols, self.m.mean, self.m.std))
        standardization = {} if self.methods[i] == MEAN else {
            self.names[j]: (mu, s) for j, mu, s in zip(cols, mean, std)}
        return LinearModel(intercept=float(self.intercepts[i, h]), coefficients=coefs,
                           method=self.methods[i], standardization=standardization,
                           hyper=self.hypers[i][h])


def _fits(m: _Moments, method: str, hypers: Sequence[Sequence[float | None]],
          names: Sequence[str]) -> _Fits:
    """One ``method`` model on each row set with moments ``m`` per
    hyperparameter in ``hypers[i]`` (one list per row set, all of one length):
    the single ``None`` for OLS, lambdas for LASSO, term counts (>= 1) for OMP.
    Degenerate rows or the MEAN method give the MEAN model for each
    hyperparameter, recording it as ``hyper``. LASSO and OMP read all of a row
    set's hyperparameters off one path, run once for all row sets; each set's
    coefficients are mapped back by the products a fit of that set alone makes."""
    hypers = [list(h) for h in hypers]
    k, H = len(hypers), len(hypers[0]) if hypers else 0
    intercepts = np.repeat(m.y_bar[:, None], H, axis=1)
    B = np.zeros((k, len(names), H))
    fit = np.zeros(k, dtype=bool) if method == MEAN else ~m.degenerate
    fitted, methods = np.flatnonzero(fit), [method if f else MEAN for f in fit.tolist()]
    if len(fitted):
        sub = m.take(fitted)
        if method == OLS:
            betas = np.zeros((len(fitted), 1, len(names)))
            for r, w in enumerate(sub.width.tolist()):
                betas[r, 0, :w] = np.linalg.lstsq(sub.G[r, :w, :w], sub.c[r, :w],
                                                  rcond=_RANK_TOL)[0]
        elif method == LASSO:
            betas = _lasso_path(sub.G, sub.c, sub.width, [hypers[i] for i in fitted.tolist()])
        else:
            terms = np.array([hypers[i] for i in fitted.tolist()], dtype=int)
            path, _ = _omp_path(sub.G, sub.c, sub.width, sub.y_sd, terms.max(axis=1))
            betas = path[np.arange(len(fitted))[:, None], np.minimum(terms, path.shape[1] - 1)]
        kept = betas / sub.std[:, None, :]  # zero on the padding
        B[fitted[:, None], sub.cols] = kept.transpose(0, 2, 1)
        # intercept = y_bar - mean @ kept, the kept coefficients column-major
        # (one column per hyperparameter) as a fit of one row set lays them out
        for w, at in _widths(sub.width):
            lead = np.ascontiguousarray(kept[at, :, :w]).transpose(0, 2, 1)
            intercepts[fitted[at]] = (sub.y_bar[at, None]
                                      - np.matmul(sub.mean[at, None, :w], lead)[:, 0])
    return _Fits(names, methods, hypers, intercepts, B, m)


def _errors(X: np.ndarray, yv: np.ndarray, intercepts: np.ndarray, B: np.ndarray,
            metric: str) -> np.ndarray:
    """Error under the metric of each model ``intercepts[i] + X @ B[:, i]`` on
    the rows of X, from one residual matrix."""
    if len(yv) == 0:
        raise DataError("scoring needs a nonempty row set")
    return metric_value(yv[:, None] - intercepts - X @ B, metric)


def evaluate_all(models: Sequence[LinearModel], rows, d: Dataset, metric: str) -> np.ndarray:
    """Error of each model's predictions over the rows under the metric, from
    one residual matrix over the union of the models' attributes, gathered
    from the table's ``block`` by one index."""
    idx = sorted_rows(rows, d.n)
    names = list(dict.fromkeys(name for m in models for name in m.coefficients))
    at = {name: i for i, name in enumerate(d.numerical_features())}
    unknown = [name for name in names if name not in at]
    if unknown:
        raise DataError(f"a model reads {unknown[0]!r}, not a numerical feature of the table")
    B = np.array([[m.coefficients.get(name, 0.0) for m in models] for name in names],
                 dtype=float).reshape(len(names), len(models))
    return _errors(d.block[np.ix_([at[name] for name in names], idx)].T, d.block[-1, idx],
                   np.array([m.intercept for m in models]), B, metric)


def evaluate(model: LinearModel, rows, d: Dataset, metric: str) -> float:
    """Error of the model's predictions over the rows under the metric."""
    return float(evaluate_all([model], rows, d, metric)[0])


def _omp(max_terms: int) -> tuple[str, Sequence[int]]:
    """OMP's tuning entry: 1..max_terms terms, or the MEAN model when max_terms is 0."""
    return (OMP, range(1, max_terms + 1)) if max_terms > 0 else (MEAN, [0])


def _tune(m: _Moments, names: Sequence[str], holds: Sequence[np.ndarray],
          entries: Sequence[tuple[str, Sequence]],
          metric: str) -> tuple[list[_Fits], list[int], list[int], np.ndarray]:
    """Fit every ``(method, hypers)`` entry on the k row sets with moments
    ``m`` and score row set i's models on its scoring rows, given as
    Zt = [X, y]^T (``holds[i]``, read once), by one residual matrix. Returns
    the fits of every entry and, per row set, the index of the lowest error's
    entry, the model's index in it and the error; ties go to the earlier
    entry, then to LASSO's larger lambda or OMP's fewer terms."""
    k = len(holds)
    fits = [_fits(m, method, [hypers] * k, names) for method, hypers in entries]
    b0 = np.concatenate([f.intercepts for f in fits], axis=1)
    B = np.concatenate([f.B for f in fits], axis=2)
    keys = [(e, -h if method == LASSO else h, i)
            for e, (method, hypers) in enumerate(entries) for i, h in enumerate(hypers)]
    errors = np.array([_errors(Zt[:-1].T, Zt[-1], b0[r], B[r], metric)
                       for r, Zt in enumerate(holds)], dtype=float).reshape(k, len(keys))
    # the models in tie-break order: argmin keeps the first of equal errors
    rank = sorted(range(len(keys)), key=keys.__getitem__)
    best = np.array(rank)[errors[:, rank].argmin(axis=1)]
    return (fits, [keys[a][0] for a in best.tolist()], [keys[a][2] for a in best.tolist()],
            errors[np.arange(k), best])


def fit_ols(rows, d: Dataset) -> LinearModel:
    """Least-squares fit on standardized features (min-norm for rank-deficient
    systems); zero-variance features are dropped. Degenerate inputs fall back
    to the intercept-only MEAN model. It keeps min-norm ``lstsq``, not a
    ``_Factor`` solve: that fits y = 2x with an error of exactly 0, as the
    cross-validation's skip of a fold with no error to reduce needs."""
    idx = sorted_rows(rows, d.n)
    if len(idx) == 0:
        raise DataError("fit_ols needs at least 1 row")
    return _ols([d.block.take(idx, axis=1)], d.numerical_features())[0]


def fit_ols_tables(tables: Sequence[Dataset]) -> list[LinearModel]:
    """``fit_ols`` on all the rows of each table, as one batch: one
    ``_moments`` over the tables' blocks, read in place, and one OLS
    ``_fits``. Each table gets exactly the model it gets alone. The tables
    share one schema (the training tables of a cross-validation's folds)."""
    if not tables:
        return []
    if any(t.schema != tables[0].schema for t in tables):
        raise DataError("the tables of one batch must share one schema")
    if any(t.n == 0 for t in tables):
        raise DataError("fit_ols needs at least 1 row")
    return _ols([t.block for t in tables], tables[0].numerical_features())


def _ols(blocks: Sequence[np.ndarray], names: Sequence[str]) -> list[LinearModel]:
    """The OLS model of each row set given as Zt = [X, y]^T, one batch."""
    fits = _fits(_moments(blocks), OLS, [[None]] * len(blocks), names)
    return [fits.model(i, 0) for i in range(len(blocks))]


def _fit_tuned(rows, holdout, d: Dataset, entry: tuple[str, Sequence], metric: str,
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
    fits, _, (i,), _ = _tune(_moments([d.block.take(idx, axis=1)]), d.numerical_features(),
                             [d.block.take(hold, axis=1)], [entry], metric)
    return fits[0].model(0, i)


def fit_lasso(rows, d: Dataset, lambda_grid: Sequence[float], holdout,
              metric: str = RMSE) -> LinearModel:
    """Fit LASSO on ``rows`` for each lambda in the grid and keep the one with
    the lowest holdout error (ties go to the larger, sparser lambda)."""
    lams = [float(lam) for lam in lambda_grid]
    if not lams:
        raise DataError("lambda grid must be nonempty")
    if not all(math.isfinite(lam) and lam >= 0.0 for lam in lams):
        raise DataError(f"lambdas must be finite and >= 0, got {lams}")
    return _fit_tuned(rows, holdout, d, (LASSO, lams), metric, "fit_lasso")


def fit_omp(rows, d: Dataset, max_terms: int, holdout, metric: str = RMSE) -> LinearModel:
    """Greedy forward selection with the term count chosen on the holdout slice
    (ties go to the smaller count); max_terms = 0 yields the MEAN model."""
    if not is_int(max_terms) or max_terms < 0:
        raise DataError(f"max_terms must be a nonnegative integer, got {max_terms!r}")
    return _fit_tuned(rows, holdout, d, _omp(max_terms), metric, "fit_omp")


def best_local_model(
    rows, d: Dataset, metric: str, test: np.ndarray
) -> tuple[FittedRuleModel, np.ndarray]:
    """LASSO vs OMP contest on the rows, split by the fit's test set ``test``,
    a bool mask over the table (``holdout_mask(d.n, 0.2, seed)``). Returns the
    fitted model and the rows the contest scored on, sorted: the region's rows
    in the test set, or all of its rows on the MEAN path.

    ``_tune`` fits both methods on the region's rows outside the mask and
    scores all their models on the rows inside it by one residual matrix; the
    best (ties to LASSO) is refit on all rows with its hyperparameter, from
    the merged co-moments of the two sides, keeping the contest holdout error
    on record. A region with fewer than 5 rows, or all on one side of the
    mask, falls back to the MEAN model, scored on its own rows. OMP tries up
    to as many terms as the region has features, capped at ``MAX_TERMS_CAP``.
    A target constant on the fitting side makes both methods fit the MEAN
    model there, scored on the test side like any other; LASSO wins the tie
    and the MEAN model is refit on all rows. The one-region case of
    ``best_local_models``."""
    return best_local_models([(d, rows, test)], metric)[0]


def best_local_models(
    regions: Sequence[tuple[Dataset, object, np.ndarray]], metric: str
) -> list[tuple[FittedRuleModel, np.ndarray]]:
    """``best_local_model``'s contest on each region, a (table, rows, test
    mask) triple, as one batch: every region gets exactly the model and
    scored rows it gets alone, in the order given. The regions may come from
    several tables of one schema (the folds of a cross-validation), each
    split by its own table's test mask. The gathers and the sums and products
    over a region's rows run per region; the moments, both solvers, the
    tie-breaks and the refits run once for all."""
    metric = check_metric(metric)
    if not regions:
        return []
    tables = [t for t, _, _ in regions]
    names = tables[0].numerical_features()
    q = len(names) + 1
    checked: set[tuple[int, int]] = set()
    idxs, inside = [], []
    for t, rows, mask in regions:
        if (id(t), id(mask)) not in checked:
            if t.schema != tables[0].schema:
                raise DataError("the regions of one batch must come from tables of one schema")
            if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (t.n,)):
                raise DataError(f"the test set must be a bool mask over the table's {t.n} rows")
            checked.add((id(t), id(mask)))
        idx = sorted_rows(rows, t.n)
        if len(idx) == 0:
            raise DataError("best_local_model needs at least 1 row")
        idxs.append(idx)
        inside.append(mask[idx])
    split = [i for i, t in enumerate(inside) if len(t) >= 5 and 0 < np.count_nonzero(t) < len(t)]
    alone = sorted(set(range(len(idxs))) - set(split))  # no split: the MEAN model
    scored = [idxs[i][inside[i]] for i in split]
    split_tables = [tables[i] for i in split]
    trains = _Blocks(split_tables, [idxs[i] for i in split], [inside[i] for i in split])
    holds = _Blocks(split_tables, scored)
    sides = _comoments(trains, q), _comoments(holds, q)
    fits, entry, index, holdout_errors = _tune(
        _moments(trains, sides[0]), names, holds,
        [(LASSO, DEFAULT_LAMBDA_GRID), _omp(min(len(names), MAX_TERMS_CAP))], metric)
    method = [fits[e].methods[r] for r, e in enumerate(entry)] + [MEAN] * len(alone)
    hyper = [None if fits[e].methods[r] == MEAN else fits[e].hypers[r][i]
             for r, (e, i) in enumerate(zip(entry, index))] + [None] * len(alone)
    order = split + alone
    blocks = _Blocks([tables[i] for i in order], [idxs[i] for i in order])
    full = _moments(blocks, _concat(_merge(*sides), _comoments(
        _Blocks([tables[i] for i in alone], [idxs[i] for i in alone]), q)))

    out: list = [None] * len(order)
    for name in dict.fromkeys(method):
        pos = [j for j, mth in enumerate(method) if mth == name]
        refit = _fits(full.take(pos), name, [[hyper[j]] for j in pos], names)
        for r, j in enumerate(pos):
            Zt = blocks[j]
            train_error = float(_errors(Zt[:-1].T, Zt[-1], refit.intercepts[r], refit.B[r],
                                        metric)[0])
            # a region with no split is scored on all its rows
            hold, on = ((float(holdout_errors[j]), scored[j]) if j < len(split)
                        else (train_error, idxs[order[j]]))
            out[order[j]] = FittedRuleModel(refit.model(r, 0), train_error, hold), on
    return out
