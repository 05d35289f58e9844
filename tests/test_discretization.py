import math

import numpy as np
import pytest

from hipar import (
    AttributeSchema,
    DataError,
    Dataset,
    DegenerateTarget,
    Interval,
    binarize_target,
    conditions_from_cuts,
    mdlp_cuts,
)
from hipar.discretization import CutPointSet

from .oracles import _entropy, mdlp_oracle


def _xy_dataset(x, y):
    return Dataset(
        [AttributeSchema("x", "numerical"), AttributeSchema("y", "numerical", role="target")],
        {"x": np.asarray(x, dtype=float), "y": np.asarray(y, dtype=float)},
    )


def test_binarize_toy_median(toy):
    tb = binarize_target(range(6), toy, "price")
    assert tb.threshold == pytest.approx(335.0)  # median of the six prices
    assert list(tb.labels) == [True, True, True, False, False, False]


def test_binarize_degenerate_all_equal():
    d = _xy_dataset([1, 2, 3], [7, 7, 7])
    with pytest.raises(DegenerateTarget):
        binarize_target(range(3), d, "y")


def test_binarize_degenerate_one_sided_median():
    d = _xy_dataset([1, 2, 3, 4], [1, 2, 2, 2])  # median 2, nothing above it
    with pytest.raises(DegenerateTarget):
        binarize_target(range(4), d, "y")


def test_binarize_two_points():
    d = _xy_dataset([0, 0], [1, 2])
    tb = binarize_target(range(2), d, "y")
    assert tb.threshold == pytest.approx(1.5)
    assert sorted(tb.labels.tolist()) == [False, True]


def _cuts(x, y_labels):
    """mdlp_cuts on a dataset constructed so the binarization equals y_labels."""
    y = [10.0 if l else 0.0 for l in y_labels]
    d = _xy_dataset(x, y)
    tb = binarize_target(range(len(x)), d, "y")
    assert list(tb.labels) == [bool(l) for l in y_labels]
    return list(mdlp_cuts("x", range(len(x)), d, tb).cuts)


def test_mdlp_perfectly_separated():
    x = [1, 2, 3, 4, 6, 7, 8, 9]
    labels = [0, 0, 0, 0, 1, 1, 1, 1]
    assert _cuts(x, labels) == [5.0]


def test_mdlp_alternating_labels_no_cut():
    x = [1, 2, 3, 4, 5, 6, 7, 8]
    labels = [0, 1, 0, 1, 0, 1, 0, 1]
    assert _cuts(x, labels) == []


def test_mdlp_two_points_oracle_decides():
    x = [1.0, 3.0]
    labels = [0, 1]
    assert _cuts(x, labels) == mdlp_oracle(x, labels) == [2.0]


def _direct_binarization(n, labels):
    from hipar import TargetBinarization

    return TargetBinarization(
        threshold=0.0, rows=np.arange(n), labels=np.asarray(labels, dtype=bool)
    )


def test_mdlp_matches_oracle_random():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 64))
        x = np.round(rng.uniform(0, 10, n), 1)  # duplicates likely
        labels = rng.integers(0, 2, n)
        if labels.all() or not labels.any():
            labels[0] = 1 - labels[0]
        d = _xy_dataset(x, rng.normal(size=n))
        tb = _direct_binarization(n, labels)
        got = list(mdlp_cuts("x", range(n), d, tb).cuts)
        assert got == mdlp_oracle(x, labels)


def test_mdlp_matches_oracle_recursive_cuts():
    # four label stripes over ~300 distinct values with 5% label noise: the
    # accepted cuts recurse at least two levels deep
    rng = np.random.default_rng(31)
    n = 300
    x = np.round(rng.uniform(0, 100, n), 3)
    labels = ((x // 25) % 2 == 1) ^ (rng.random(n) < 0.05)
    d = _xy_dataset(x, np.zeros(n))
    got = list(mdlp_cuts("x", range(n), d, _direct_binarization(n, labels)).cuts)
    assert len(np.unique(x)) > 250
    assert len(got) >= 3
    assert got == mdlp_oracle(x, labels)


def test_mdlp_entropy_tie_tries_smaller_cut():
    # the cuts 4.5 and 6.5 have equal weighted entropy; whichever is tried
    # first is accepted and leaves the other one's side too small to split
    x = list(range(1, 11))
    labels = [0, 0, 0, 0, 1, 0, 1, 1, 1, 1]

    def split_entropy(cut):
        left = [l for v, l in zip(x, labels) if v < cut]
        right = [l for v, l in zip(x, labels) if v >= cut]
        return (len(left) * _entropy(left) + len(right) * _entropy(right)) / len(x)

    assert split_entropy(4.5) == split_entropy(6.5)
    assert _cuts(x, labels) == mdlp_oracle(x, labels) == [4.5]


def test_mdlp_deterministic():
    x = [3, 1, 4, 1, 5, 9, 2, 6]
    labels = [0, 0, 1, 0, 1, 1, 0, 1]
    assert _cuts(x, labels) == _cuts(x, labels)


def test_mdlp_cut_strictly_between_values():
    x = [1, 2, 3, 4, 6, 7, 8, 9]
    labels = [0, 0, 0, 0, 1, 1, 1, 1]
    for cut in _cuts(x, labels):
        assert cut not in x
        assert min(x) < cut < max(x)


def test_mdlp_accepted_cut_decreases_entropy():
    x = np.array([1.0, 2, 3, 4, 6, 7, 8, 9])
    labels = np.array([0, 0, 0, 1, 1, 1, 1, 1])

    def weighted_entropy(groups):
        total = sum(len(g) for g in groups)
        out = 0.0
        for g in groups:
            n = len(g)
            for c in (int(np.sum(g)), n - int(np.sum(g))):
                if c:
                    out -= (c / total) * math.log2(c / n)
        return out

    d = _xy_dataset(x, np.zeros(len(x)))
    tb = _direct_binarization(len(x), labels)
    cuts = list(mdlp_cuts("x", range(len(x)), d, tb).cuts)
    assert cuts
    parts = np.digitize(x, cuts)
    split = [labels[parts == i] for i in range(len(cuts) + 1)]
    assert weighted_entropy(split) < weighted_entropy([labels])


def test_conditions_from_single_cut():
    conds = conditions_from_cuts(CutPointSet("a", (5.0,)))
    assert conds == [Interval("a", -math.inf, 5.0), Interval("a", 5.0, math.inf)]


def test_conditions_from_two_cuts():
    conds = conditions_from_cuts(CutPointSet("a", (2.0, 7.0)))
    assert conds == [
        Interval("a", -math.inf, 2.0),
        Interval("a", 2.0, 7.0),
        Interval("a", 7.0, math.inf),
    ]


def test_conditions_from_no_cuts():
    assert conditions_from_cuts(CutPointSet("a", ())) == []


def test_conditions_partition_real_line():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cuts = tuple(sorted(rng.choice(np.arange(-5.0, 5.0, 0.5), size=3, replace=False)))
        conds = conditions_from_cuts(CutPointSet("a", cuts))
        for v in rng.uniform(-10, 10, 50).tolist() + list(cuts):
            assert sum(c.mask(v) for c in conds) == 1


def test_mdlp_requires_numeric_attribute(toy):
    tb = binarize_target(range(6), toy, "price")
    with pytest.raises(DataError):
        mdlp_cuts("state", range(6), toy, tb)
