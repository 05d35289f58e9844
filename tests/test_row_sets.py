"""Functions that take a row set give the same result for any container of the same rows."""

import numpy as np
import pytest

from hipar import (
    AttributeSchema,
    DataError,
    Dataset,
    FittedRuleModel,
    HybridRule,
    LinearModel,
    Pattern,
    Predictor,
    SelectedRuleSet,
    TargetBinarization,
    best_local_model,
    binarize_target,
    evaluate,
    fit_lasso,
    fit_ols,
    fit_omp,
    holdout_mask,
    mdlp_cuts,
    predict_batch,
)
from hipar.data import sorted_rows


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
    results = [binarize_target(rows, d) for rows in _forms(FIT)]
    _same([(tb.rows, tb.labels, np.array([tb.threshold])) for tb in results])


def test_mdlp_cuts_row_forms():
    # mdlp_cuts reads its rows from the labels, as binarize_target sorted them
    d = _dataset()
    results = [mdlp_cuts(attrs, d, binarize_target(rows, d))
               for attrs in (["x1"], ["x2"], ["x1", "x2"]) for rows in _forms(FIT)]
    _same(results[:4])
    _same(results[4:8])
    _same(results[8:])
    assert results[8] == results[0] + results[4]
    assert results[0][0].cuts  # x1 separates the two segments
    labels = binarize_target(FIT, d)
    with pytest.raises(DataError, match="not sorted"):
        mdlp_cuts(["x1"], d, TargetBinarization(0.0, labels.rows[::-1], labels.labels[::-1]))


def test_evaluate_row_forms():
    d = _dataset()
    model = fit_ols(FIT, d)
    for metric in ("rmse", "meae"):
        _same([evaluate(model, rows, d, metric) for rows in _forms(HOLD)])


def test_fit_ols_row_forms():
    d = _dataset()
    _same([fit_ols(rows, d) for rows in _forms(FIT)])


@pytest.mark.parametrize("fit", [
    lambda rows, hold, d: fit_lasso(rows, d, [0.01, 0.1, 1.0], hold),
    lambda rows, hold, d: fit_omp(rows, d, 2, hold),
], ids=["lasso", "omp"])
def test_fit_with_holdout_row_forms(fit):
    d = _dataset()
    _same([fit(rows, hold, d) for rows, hold in zip(_forms(FIT), _forms(HOLD))])


# a row set names each row of the table once: negative, repeated and
# out-of-range indices are bad input, never a wrap-around or a double count;
# a float or a bool is bad input too, never truncated or read as a mask
N = 160  # rows of _dataset()
BAD = {
    "negative": [*range(20), -1],
    "repeated": [*range(20), 7],
    "out-of-range": [*range(20), N],
    "float": [*range(20), 20.5],  # truncation would read row 20
    "bool": [False, True],  # a mask, which would read as rows 0 and 1
}


def _default_predictor(d):
    fitted = FittedRuleModel(LinearModel(0.0, {}, "MEAN"), 0.0, 0.0)
    default = HybridRule(Pattern([]), fitted, d.n, 1.0)
    return Predictor(
        rules=SelectedRuleSet(chosen=[default], objective_value=0.0, solver="exact", proof=True),
        default_rule=default,
        normalized_errors={default.pattern: 1.0},
        schema=d.schema,
        metric="rmse",
    )


ROW_TAKERS = {
    "subset": lambda rows, d: d.subset(rows),
    "binarize_target": lambda rows, d: binarize_target(rows, d),
    "mdlp_cuts": lambda rows, d: mdlp_cuts(
        ["x1"], d, TargetBinarization(0.0, np.sort(rows), np.arange(len(rows)) % 2 == 0)),
    "evaluate": lambda rows, d: evaluate(LinearModel(0.0, {}, "MEAN"), rows, d, "rmse"),
    "fit_ols": lambda rows, d: fit_ols(rows, d),
    "fit_lasso": lambda rows, d: fit_lasso(rows, d, [0.1], HOLD_FAR),
    "fit_lasso_holdout": lambda rows, d: fit_lasso(FIT_FAR, d, [0.1], rows),
    "fit_omp": lambda rows, d: fit_omp(rows, d, 1, HOLD_FAR),
    "fit_omp_holdout": lambda rows, d: fit_omp(FIT_FAR, d, 1, rows),
    "best_local_model": lambda rows, d: best_local_model(rows, d, "rmse",
                                                       holdout_mask(d.n, 0.2, 3)),
}
FIT_FAR, HOLD_FAR = range(100, 140), range(140, 160)  # disjoint from the bad sets


@pytest.mark.parametrize("name, case", [(name, case) for name in ROW_TAKERS for case in BAD])
def test_bad_row_sets_are_rejected(name, case):
    d = _dataset()
    ROW_TAKERS[name](np.arange(20), d)  # rows 0..19 are accepted
    for rows in (BAD[case], np.array(BAD[case])):
        with pytest.raises(DataError):
            ROW_TAKERS[name](rows, d)


@pytest.mark.parametrize("case", ["negative", "out-of-range", "float", "bool"])
def test_predict_batch_rejects_bad_rows(case):
    d = _dataset()
    pred = _default_predictor(d)
    np.testing.assert_array_equal(predict_batch(pred, d, [3, 3, 1]), np.zeros(3))
    for rows in (BAD[case], np.array(BAD[case])):
        with pytest.raises(DataError):
            predict_batch(pred, d, rows)


@pytest.mark.parametrize("rows, message", [
    ([-2, 0, 3], "row index -2 is negative"),
    ([3, -2, 0], "row index -2 is negative"),
    ([0, 3, 160], "row index 160 is out of range for 160 rows"),
    ([160, 0, 3], "row index 160 is out of range for 160 rows"),
    ([3, 0, 3], "row index 3 is repeated"),
], ids=["negative-increasing", "negative", "out-of-range-increasing", "out-of-range",
        "repeated"])
def test_sorted_rows_gives_one_message_whether_or_not_the_rows_come_sorted(rows, message):
    for form in (rows, np.array(rows)):
        with pytest.raises(DataError, match=f"^{message}$"):
            sorted_rows(form, 160)
    increasing = np.array([0, 3, 159])
    assert sorted_rows(increasing, 160) is increasing
