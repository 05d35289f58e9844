"""The text of `hipar predict`: one ``repr`` line per prediction, formatted once
per distinct value and gathered back into row order."""

import numpy as np
import pytest

from hipar import deserialize_rules, load_csv, predict_batch, write_csv
from hipar import cli
from hipar.cli import _prediction_text, main

from .conftest import make_catwide


def _per_row(values: np.ndarray) -> str:
    return "".join(f"{v!r}\n" for v in values.tolist())


def _bits(*patterns: int) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def _repeating_finite(n: int, distinct: int, seed: int) -> np.ndarray:
    """n finite doubles drawn from `distinct` random bit patterns, so values repeat."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2**64, 4 * distinct, dtype=np.uint64).view(np.float64)
    pool = pool[np.isfinite(pool)][:distinct]
    assert len(pool) == distinct
    return pool[rng.integers(0, distinct, n)]


@pytest.mark.parametrize(
    "values",
    [
        np.array([0.0, -0.0, -0.0, 0.0]),
        np.array([-0.0, 1.0, 0.0, 1.0, -0.0]),
        np.array([np.inf, -np.inf, np.inf, -np.inf]),
        # two NaN payloads, each with and without the sign bit: every one prints nan
        _bits(0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000, 0xFFF0000000000BAD,
              0x7FF8000000000000),
        np.array([5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 5e-324]),
        _repeating_finite(10_000, 300, seed=0),
        _repeating_finite(10_000, 9_000, seed=1),
        np.array([]),
    ],
    ids=["signed-zeros", "zeros-among-values", "infinities", "nan-payloads", "extremes",
         "repeating", "mostly-distinct", "empty"],
)
def test_prediction_text_equals_per_row_repr(values):
    assert _prediction_text(values) == _per_row(values)


def test_predict_file_of_repeating_predictions_equals_predict_batch(tmp_path):
    table, rules, out = tmp_path / "catwide.csv", tmp_path / "rules.json", tmp_path / "pred.txt"
    write_csv(make_catwide(2_000, seed=3), str(table))
    assert main(["fit", "--input", str(table), "--target", "y", "--min-support", "0.02",
                 "--rules-out", str(rules)]) == 0
    assert main(["predict", "--rules", str(rules), "--input", str(table), "--out", str(out)]) == 0
    d = load_csv(str(table), target="y")
    batch = predict_batch(deserialize_rules(str(rules)), d, range(d.n))
    # linear in two integer features with 20 values each: a value serves ~3 rows
    assert len(np.unique(batch)) < d.n // 3
    assert out.read_bytes() == _per_row(batch).encode("utf-8")


def test_predict_file_keeps_the_sign_of_zero(tmp_path, monkeypatch):
    table, rules, out = tmp_path / "t.csv", tmp_path / "rules.json", tmp_path / "pred.txt"
    write_csv(make_catwide(200, seed=4), str(table))
    assert main(["fit", "--input", str(table), "--target", "y", "--rules-out", str(rules)]) == 0
    monkeypatch.setattr(cli, "predict_columns", lambda predictor, columns, n: np.array(
        [0.0, -0.0, 1.5, -0.0]))
    assert main(["predict", "--rules", str(rules), "--input", str(table), "--out", str(out)]) == 0
    assert out.read_bytes() == b"0.0\n-0.0\n1.5\n-0.0\n"
    # float() reads each zero back with its sign
    assert [np.signbit(float(line)) for line in out.read_text().splitlines()] == [
        False, True, False, True]
