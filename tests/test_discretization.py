import math

import numpy as np
import pytest

from hipar import (
    AttributeSchema,
    DataError,
    Dataset,
    Interval,
    TargetBinarization,
    binarize_target,
    conditions_from_cuts,
    mdlp_cuts,
)
from hipar import discretization
from hipar.discretization import (
    CutPointSet,
    _split_entropy,
    _table_split_entropy,
    _xlog2x,
    binarize_targets,
    mdlp_cuts_many,
)

from .oracles import _entropy, mdlp_oracle


def _xy_dataset(x, y):
    return Dataset(
        [AttributeSchema("x", "numerical"), AttributeSchema("y", "numerical", role="target")],
        {"x": np.asarray(x, dtype=float), "y": np.asarray(y, dtype=float)},
    )


def test_binarize_toy_median(toy):
    tb = binarize_target(range(6), toy)
    assert tb.threshold == pytest.approx(335.0)  # median of the six prices
    assert list(tb.labels) == [True, True, True, False, False, False]


def test_binarize_degenerate_all_equal():
    # one-sided labels are returned as they are, and give no cut
    d = _xy_dataset([1, 2, 3], [7, 7, 7])
    tb = binarize_target(range(3), d)
    assert tb.threshold == 7.0 and not tb.labels.any()
    assert mdlp_cuts(["x"], d, tb) == [CutPointSet("x", ())]


def test_binarize_degenerate_one_sided_median():
    # median 2, nothing above it: the ties go to LV, so the varying target
    # keeps two classes and x, which separates them, is cut
    d = _xy_dataset([1, 2, 3, 4], [1, 2, 2, 2])
    tb = binarize_target(range(4), d)
    assert tb.threshold == 2.0 and tb.labels.tolist() == [False, True, True, True]
    assert mdlp_cuts(["x"], d, tb) == [CutPointSet("x", (1.5,))]


def test_binarize_and_cut_one_row():
    d = _xy_dataset([1, 2, 3], [4, 5, 6])
    tb = binarize_target([1], d)
    assert tb.rows.tolist() == [1] and tb.labels.tolist() == [False]
    assert mdlp_cuts(["x"], d, tb) == [CutPointSet("x", ())]
    with pytest.raises(DataError):
        binarize_target([], d)


def test_binarize_two_points():
    d = _xy_dataset([0, 0], [1, 2])
    tb = binarize_target(range(2), d)
    assert tb.threshold == pytest.approx(1.5)
    assert sorted(tb.labels.tolist()) == [False, True]


def _cuts(x, y_labels):
    """mdlp_cuts on a dataset constructed so the binarization equals y_labels."""
    y = [10.0 if l else 0.0 for l in y_labels]
    d = _xy_dataset(x, y)
    tb = binarize_target(range(len(x)), d)
    assert list(tb.labels) == [bool(l) for l in y_labels]
    return list(mdlp_cuts(["x"], d, tb)[0].cuts)


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
        got = list(mdlp_cuts(["x"], d, tb)[0].cuts)
        assert got == mdlp_oracle(x, labels)


def test_mdlp_matches_oracle_recursive_cuts():
    # four label stripes over ~300 distinct values with 5% label noise: the
    # accepted cuts recurse at least two levels deep
    rng = np.random.default_rng(31)
    n = 300
    x = np.round(rng.uniform(0, 100, n), 3)
    labels = ((x // 25) % 2 == 1) ^ (rng.random(n) < 0.05)
    d = _xy_dataset(x, np.zeros(n))
    got = list(mdlp_cuts(["x"], d, _direct_binarization(n, labels))[0].cuts)
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
    cuts = list(mdlp_cuts(["x"], d, tb)[0].cuts)
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
    tb = binarize_target(range(6), toy)
    with pytest.raises(DataError):
        mdlp_cuts(["state"], toy, tb)
    with pytest.raises(DataError):
        mdlp_cuts(["rooms", "state"], toy, tb)


def test_mdlp_rejects_one_attribute_name(toy):
    tb = binarize_target(range(6), toy)
    with pytest.raises(DataError):
        mdlp_cuts("rooms", toy, tb)


def test_mdlp_no_attributes():
    d = _xy_dataset([1, 2, 3], [0, 0, 1])
    assert mdlp_cuts([], d, binarize_target(range(3), d)) == []


def _table(columns):
    """A dataset of numerical features; its target is unread, labels are given directly."""
    schema = [AttributeSchema(name, "numerical") for name in columns]
    schema.append(AttributeSchema("y", "numerical", role="target"))
    n = len(next(iter(columns.values())))
    return Dataset(schema, {**columns, "y": np.zeros(n)})


def _mixed_columns(rng, n):
    """Feature columns, each with a hard case, and labels that stripe the first."""
    stripes = np.round(rng.uniform(0, 100, n), 3)
    labels = ((stripes // 25) % 2 == 1) ^ (rng.random(n) < 0.05)
    signed_zero = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], n)
    columns = {
        "stripes": stripes,
        "dups": rng.integers(0, 4, n) + 3.0 * labels,  # 7 levels, ~n/7 rows each
        "signed_zero": np.where(labels & (signed_zero == 2.0), -1.0, signed_zero),
        "big": 1e9 + 0.5 * rng.integers(0, 40, n) + 25.0 * labels,
        "const": np.full(n, 3.0),
        "noise": rng.normal(size=n),
    }
    return columns, labels


def test_mdlp_multi_attribute_matches_oracle():
    rng = np.random.default_rng(77)
    deep = 0
    for n in (300, 301, 64, 17, 2):
        columns, labels = _mixed_columns(rng, n)
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        d = _table(columns)
        got = mdlp_cuts(list(columns), d, _direct_binarization(n, labels))
        assert [cp.attribute for cp in got] == list(columns)
        for cp in got:
            assert list(cp.cuts) == mdlp_oracle(columns[cp.attribute], labels), cp.attribute
        assert got[list(columns).index("const")].cuts == ()
        deep = max(deep, len(got[0].cuts))
    assert deep >= 3  # the stripes attribute recursed at least two levels deep


def test_mdlp_attribute_order_does_not_matter():
    rng = np.random.default_rng(5)
    n = 400
    columns, labels = _mixed_columns(rng, n)
    d = _table(columns)
    tb = _direct_binarization(n, labels)
    names = list(columns)
    forward = {cp.attribute: cp for cp in mdlp_cuts(names, d, tb)}
    for order in (names[::-1], list(rng.permutation(names))):
        got = mdlp_cuts(order, d, tb)
        assert [cp.attribute for cp in got] == order
        assert got == [forward[a] for a in order]
    # each attribute alone gives the same cuts as in company
    for name in names:
        assert mdlp_cuts([name], d, tb) == [forward[name]]


@pytest.mark.parametrize("offset, scale", [(1e6, 1.0), (0.0, 1e3), (0.0, 1e-3)])
def test_mdlp_partition_ignores_offset_and_scale(offset, scale):
    rng = np.random.default_rng(9)
    n = 300
    columns, labels = _mixed_columns(rng, n)
    moved = {name: v * scale + offset for name, v in columns.items()}
    rows = np.arange(0, n, 3)  # a region
    tb = TargetBinarization(0.0, rows, labels[rows])
    base = mdlp_cuts(list(columns), _table(columns), tb)
    got = mdlp_cuts(list(moved), _table(moved), tb)
    assert sum(len(cp.cuts) for cp in base) >= 3
    for a, b in zip(base, got):
        assert len(a.cuts) == len(b.cuts)
        np.testing.assert_array_equal(np.digitize(columns[a.attribute], a.cuts),
                                      np.digitize(moved[b.attribute], b.cuts))


def test_table_entropy_matches_scalar_form():
    rng = np.random.default_rng(2024)
    for n_max in (10, 1000, 10**6):
        n = rng.integers(2, n_max + 1, 200)
        pos = rng.integers(0, n + 1)
        n1 = rng.integers(1, n)
        pos1 = rng.integers(np.maximum(0, pos - (n - n1)), np.minimum(pos, n1) + 1)
        t = _xlog2x(int(n.max()))
        got = _table_split_entropy(t, n, pos, n1, pos1)
        want = [_split_entropy(*map(int, counts)) for counts in zip(n, pos, n1, pos1)]
        assert np.max(np.abs(got - want)) <= 1e-13


def test_dataset_ranks():
    x = np.array([2.5, -0.0, 1e9, 0.0, 2.5, -3.0])
    d = _xy_dataset(x, np.zeros(len(x)))
    levels, codes = d.ranks("x")
    assert levels.tolist() == [-3.0, 0.0, 2.5, 1e9]
    assert codes.dtype == np.int32
    assert codes.tolist() == [2, 1, 3, 1, 2, 0]
    assert d.ranks("x")[1] is codes  # computed once
    assert not levels.flags.writeable and not codes.flags.writeable
    with pytest.raises(DataError):
        d.ranks("nope")


def test_one_scan_cuts_each_region_as_it_is_cut_alone(monkeypatch):
    rng = np.random.default_rng(31)
    n = 300
    columns, labels = _mixed_columns(rng, n)
    d = _table(columns)
    names = list(columns)
    tasks = []
    for size in (1, 2, 3, 40, 120, 120, 300):
        rows = np.sort(rng.choice(n, size, replace=False))
        attrs = [names[j] for j in rng.permutation(len(names))[: int(rng.integers(0, 7))]]
        tasks.append((attrs, TargetBinarization(0.0, rows, labels[rows])))
    tasks += [(names, tasks[4][1]), tasks[3]]  # every attribute; a region twice
    alone = [mdlp_cuts(attrs, d, tb) for attrs, tb in tasks]
    assert sum(len(cp.cuts) for cut_sets in alone for cp in cut_sets) >= 6
    scans = []  # the segment widths of each scan
    scan = discretization._scan
    monkeypatch.setattr(discretization, "_scan", lambda keys, widths, segments: (
        scans.append(list(widths)), scan(keys, widths, segments)))
    # one scan for the batch; then chunk boundaries that split the batch and a
    # task's attributes (100 keys: 40-row segments go in twos, longer ones
    # alone), and one scan per segment
    for limit in (discretization._CHUNK_KEYS, 100, 1):
        monkeypatch.setattr(discretization, "_CHUNK_KEYS", limit)
        for order in (list(range(len(tasks))), list(range(len(tasks)))[::-1]):
            scans.clear()
            got = mdlp_cuts_many([tasks[i] for i in order], d)
            assert [got[order.index(i)] for i in range(len(tasks))] == alone
            widths = [w for chunk in scans for w in chunk]
            assert all(sum(chunk) <= limit or len(chunk) == 1 for chunk in scans)
            assert widths == [len(tasks[i][1].rows) for i in order
                              for _ in tasks[i][0] if len(tasks[i][1].rows) >= 2]
            assert len(scans) == {100: 21, 1: len(widths)}.get(limit, 1)
            if limit == 100:  # a 40-row task's six segments take three scans,
                # and one scan holds segments of three tasks
                assert scans.count([40, 40]) == 5 and max(map(len, scans)) == 7
    for (attrs, tb), cut_sets in zip(tasks, alone):
        if len(tb.rows) <= 120:
            for cp in cut_sets:
                assert list(cp.cuts) == mdlp_oracle(columns[cp.attribute][tb.rows], tb.labels)
    assert mdlp_cuts_many([], d) == []


def test_binarize_targets_gives_each_region_its_own_median_split():
    rng = np.random.default_rng(32)
    n = 200
    y = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0, 2.0, 7.25], n)
    d = _xy_dataset(rng.normal(size=n), y)
    regions = [np.sort(rng.choice(n, size, replace=False)) for size in (1, 2, 3, 4, 9, 50, 200)]
    regions += [np.flatnonzero(y == 2.0), np.flatnonzero(y <= 0.0), regions[4]]
    got = binarize_targets(regions, d)
    assert len(got) == len(regions)
    for rows, tb in zip(regions, got):
        values = y[rows]
        threshold = float(np.median(values))
        labels = values > threshold
        if not labels.any() and values.min() < threshold:
            labels = values >= threshold
        assert tb.threshold == threshold
        assert tb.rows.tolist() == rows.tolist()
        assert tb.labels.tolist() == labels.tolist()
        alone = binarize_target(rows, d)
        assert (alone.threshold, alone.labels.tolist()) == (tb.threshold, tb.labels.tolist())
    assert binarize_targets([], d) == []
    with pytest.raises(DataError, match="at least 1 row"):
        binarize_targets([np.arange(3), []], d)


def test_a_subset_cuts_and_binarizes_as_a_table_of_its_rows():
    # a subset keeps its parent's ranked values, among them values its rows
    # lack, and the codes of its rows: its cuts and target medians must be
    # those of a table built from the same rows
    rng = np.random.default_rng(33)
    n = 300
    columns, labels = _mixed_columns(rng, n)
    columns["y"] = np.where(labels, 5.0, 0.0) + rng.choice([-0.0, 0.0, 0.5, 1.0, 1.0], n)
    schema = [AttributeSchema(a, "numerical") for a in columns if a != "y"]
    schema.append(AttributeSchema("y", "numerical", role="target"))
    d = Dataset(schema, columns)
    features = d.numerical_features()
    for rows in (np.arange(0, n, 2), np.flatnonzero(columns["stripes"] < 60),
                 np.sort(rng.choice(n, 37, replace=False))):
        sub = d.subset(rows)
        fresh = Dataset(schema, {a: values[rows] for a, values in columns.items()})
        for a in [*features, "y"]:
            levels, codes = sub.ranks(a)
            assert levels is d.ranks(a)[0]  # ranked once, on the parent
            assert not codes.flags.writeable
            assert levels[codes].tolist() == fresh.column(a).tolist()
        assert len(sub.ranks("stripes")[0]) > len(fresh.ranks("stripes")[0])
        regions = [np.arange(sub.n), np.arange(0, sub.n, 3), np.arange(sub.n // 2)]
        got, want = binarize_targets(regions, sub), binarize_targets(regions, fresh)
        assert [(tb.threshold, tb.labels.tolist()) for tb in got] == [
            (tb.threshold, tb.labels.tolist()) for tb in want]
        cuts = mdlp_cuts_many([(features, tb) for tb in got], sub)
        assert cuts == mdlp_cuts_many([(features, tb) for tb in want], fresh)
        assert any(cp.cuts for cut_sets in cuts for cp in cut_sets)
