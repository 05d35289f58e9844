"""Functions that take a row set give the same result for any container of the same rows."""

import numpy as np
import pytest

from hipar import (
    AttributeSchema,
    Dataset,
    binarize_target,
    evaluate,
    fit_lasso,
    fit_ols,
    fit_omp,
    holdout_split,
    mdlp_cuts,
)


def _dataset(n=160, seed=3):
    rng = np.random.default_rng(seed)
    x1 = np.round(rng.uniform(0, 10, n), 2)
    x2 = rng.normal(size=n)
    y = np.where(x1 < 5, 1 + 2 * x2, 8 - x2) + rng.normal(0, 0.3, n)
    return Dataset(
        [
            AttributeSchema("x1", "numerical"),
            AttributeSchema("x2", "numerical"),
            AttributeSchema("y", "numerical", role="target"),
        ],
        {"x1": x1, "x2": x2, "y": y},
    )


def _forms(r: range):
    """The rows of ``r`` as a range, a list, a shuffled ndarray and a set."""
    shuffled = np.random.default_rng(r.stop).permutation(np.array(r))
    return [r, list(r), shuffled, set(r)]


FIT = range(1, 140, 2)
HOLD = range(0, 140, 2)


def _same(results):
    first = results[0]
    for other in results[1:]:
        assert type(other) is type(first)
        if isinstance(first, tuple):
            assert len(other) == len(first)
            for a, b in zip(first, other):
                np.testing.assert_array_equal(a, b)
        else:
            assert other == first


def test_binarize_target_row_forms():
    d = _dataset()
    results = [binarize_target(rows, d, "y") for rows in _forms(FIT)]
    _same([(tb.rows, tb.labels, np.array([tb.threshold])) for tb in results])


def test_mdlp_cuts_row_forms():
    d = _dataset()
    labels = binarize_target(FIT, d, "y")
    results = [mdlp_cuts(attr, rows, d, labels) for attr in ("x1", "x2") for rows in _forms(FIT)]
    _same(results[:4])
    _same(results[4:])
    assert results[0].cuts  # x1 separates the two segments


def test_evaluate_row_forms():
    d = _dataset()
    model = fit_ols(FIT, d, "y")
    for metric in ("rmse", "meae"):
        _same([evaluate(model, rows, d, "y", metric) for rows in _forms(HOLD)])


def test_fit_ols_row_forms():
    d = _dataset()
    _same([fit_ols(rows, d, "y") for rows in _forms(FIT)])


@pytest.mark.parametrize("fit", [
    lambda rows, hold, d: fit_lasso(rows, d, "y", [0.01, 0.1, 1.0], hold),
    lambda rows, hold, d: fit_omp(rows, d, "y", 2, hold),
], ids=["lasso", "omp"])
def test_fit_with_holdout_row_forms(fit):
    d = _dataset()
    _same([fit(rows, hold, d) for rows, hold in zip(_forms(FIT), _forms(HOLD))])


def test_holdout_split_row_forms():
    _same([holdout_split(rows, 0.2, seed=5) for rows in _forms(FIT)])
