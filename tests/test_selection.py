import numpy as np
import pytest

from hipar import (
    AttributeSchema,
    DataError,
    Dataset,
    Equals,
    FittedRuleModel,
    HybridRule,
    Interval,
    LinearModel,
    Pattern,
    SelectionProblem,
    build_problem,
    select_top_q,
    solve,
    subset_objective,
)

from hipar.selection import _rank

from .oracles import best_subset_oracle


def _rule(pattern, error, support_abs, n, is_default=False):
    model = LinearModel(0.0, {}, "MEAN")
    fitted = FittedRuleModel(model, error, error, "rmse", np.arange(1))
    return HybridRule(pattern, fitted, support_abs, support_abs / n, is_default=is_default)


def _two_col_dataset():
    # two categorical markers over 20 rows; rule regions are controlled by them
    g = np.array(["u"] * 10 + ["w"] * 10, dtype=object)
    h = np.array(["u"] * 10 + ["z"] * 10, dtype=object)
    return Dataset(
        [
            AttributeSchema("g", "categorical"),
            AttributeSchema("h", "categorical"),
            AttributeSchema("y", "numerical", role="target"),
        ],
        {"g": g, "h": h, "y": np.zeros(20)},
    )


def _dummy_problem(rng, n_rules, omega=None, m_rows=40):
    """Random SelectionProblem with real Jaccard structure and distinct keys."""
    alpha = rng.uniform(0.2, 3.0, n_rules)
    regions = [
        np.sort(rng.choice(m_rows, size=int(rng.integers(5, m_rows)), replace=False))
        for _ in range(n_rules)
    ]
    overlap = np.eye(n_rules)
    for i in range(n_rules):
        for j in range(i + 1, n_rules):
            inter = len(np.intersect1d(regions[i], regions[j], assume_unique=True))
            union = len(regions[i]) + len(regions[j]) - inter
            overlap[i, j] = overlap[j, i] = inter / union if union else 0.0
    candidates = [
        _rule(Pattern([Equals(f"a{i:03d}", "v")]), 1.0, 1, n_rules) for i in range(n_rules)
    ]
    return SelectionProblem(
        candidates=candidates,
        alpha=alpha,
        overlap=overlap,
        sigma=1.0,
        omega=float(rng.uniform(0.0, 2.0)) if omega is None else float(omega),
        normalized_errors=np.full(n_rules, 1.0 / n_rules),
        normalized_supports=np.full(n_rules, 1.0 / n_rules),
    )


def _tied_problem(rng, n_rules):
    """Equal alphas, and rule 2k+1 repeats rule 2k's region: a subset holding
    one of the twins ties bit for bit with the one holding the other. Keys run
    against index order, so the tie-break cannot follow the search order."""
    base = _dummy_problem(rng, n_rules)
    twin_of = [i - i % 2 for i in range(n_rules)]
    return SelectionProblem(
        candidates=base.candidates[::-1],
        alpha=np.full(n_rules, 1.5),
        overlap=base.overlap[np.ix_(twin_of, twin_of)],
        sigma=1.0,
        omega=float(rng.choice([0.25, 0.5, 1.0, 2.0])),
        normalized_errors=base.normalized_errors,
        normalized_supports=base.normalized_supports,
    )


# --------------------------------------------------------------- build_problem


def test_build_problem_hand_arithmetic():
    d = _two_col_dataset()
    rules = [
        _rule(Pattern([Equals("g", "u")]), error=1.0, support_abs=10, n=20),
        _rule(Pattern([Equals("g", "w")]), error=3.0, support_abs=10, n=20),
    ]
    sp = build_problem(rules, sigma=1.0, omega=1.0, d=d)
    assert sp.normalized_errors == pytest.approx([0.25, 0.75])
    assert sp.normalized_supports == pytest.approx([0.5, 0.5])
    assert sp.alpha == pytest.approx([2.0, 2 / 3])
    assert sp.overlap[0, 1] == 0.0  # disjoint regions


def test_overlap_identity_disjoint_and_toy_example(toy):
    # overlap is the Jaccard coefficient of the rule regions on the training rows
    cottage = Pattern([Equals("property-type", "cottage")])  # rows 0, 1, 2
    very_good = Pattern([Equals("state", "very good")])  # rows 0, 1
    good = Pattern([Equals("state", "good")])  # rows 4, 5
    rules = [_rule(p, 1.0, 2, 6) for p in (cottage, cottage, very_good, good)]
    sp = build_problem(rules, sigma=1.0, omega=1.0, d=toy)
    assert sp.overlap[0, 1] == 1.0  # identical regions
    assert sp.overlap[0, 3] == 0.0  # disjoint regions
    assert sp.overlap[0, 2] == pytest.approx(2 / 3)
    assert np.array_equal(sp.overlap, sp.overlap.T)  # symmetric


def test_penalty_matrix_is_the_pair_formula():
    rng = np.random.default_rng(37)
    sp = _dummy_problem(rng, 9)
    assert np.all(np.diag(sp.penalty) == 0.0)
    for i in range(9):
        for j in range(9):
            if i != j:
                want = sp.omega * sp.overlap[i, j] * (sp.alpha[i] + sp.alpha[j])
                assert sp.penalty[i, j] == want


def test_overlap_of_two_empty_regions_is_zero(toy):
    rules = [_rule(Pattern([Equals("state", v)]), 1.0, 1, 6) for v in ("zzz", "yyy")]
    sp = build_problem(rules, sigma=1.0, omega=1.0, d=toy)
    assert sp.overlap[0, 1] == sp.overlap[1, 0] == 0.0


def test_build_problem_sigma_zero_ignores_support():
    d = _two_col_dataset()
    rules = [
        _rule(Pattern([Equals("g", "u")]), error=1.0, support_abs=10, n=20),
        _rule(Pattern([Equals("g", "w")]), error=3.0, support_abs=10, n=20),
    ]
    sp = build_problem(rules, sigma=0.0, omega=1.0, d=d)
    assert sp.alpha == pytest.approx([1 / 0.25, 1 / 0.75])


def test_build_problem_singleton():
    d = _two_col_dataset()
    sp = build_problem([_rule(Pattern([Equals("g", "u")]), 2.0, 10, 20)], 1.0, 1.0, d)
    assert sp.normalized_errors == pytest.approx([1.0])
    assert sp.normalized_supports == pytest.approx([1.0])
    assert sp.alpha == pytest.approx([1.0])


def test_build_problem_zero_error_floor():
    d = _two_col_dataset()
    rules = [
        _rule(Pattern([Equals("g", "u")]), error=0.0, support_abs=10, n=20),
        _rule(Pattern([Equals("g", "w")]), error=1.0, support_abs=10, n=20),
    ]
    sp = build_problem(rules, 1.0, 1.0, d)
    assert np.all(np.isfinite(sp.alpha)) and np.all(sp.alpha > 0)


def test_error_scale_invariance():
    # doubling every rule error leaves ebar (hence the chosen set) unchanged
    d = _two_col_dataset()

    def run(scale):
        rules = [
            _rule(Pattern([Equals("g", "u")]), scale * 1.0, 10, 20),
            _rule(Pattern([Equals("h", "u")]), scale * 2.0, 10, 20),
            _rule(Pattern([Equals("g", "w")]), scale * 3.0, 10, 20),
        ]
        sp = build_problem(rules, 1.0, 1.0, d)
        return sp.normalized_errors, [r.key for r in solve(sp).chosen]

    e1, chosen1 = run(1.0)
    e2, chosen2 = run(2.0)
    assert np.array_equal(e1, e2)
    assert chosen1 == chosen2


# ----------------------------------------------------------------------- solve


def test_omega_zero_selects_everything():
    rng = np.random.default_rng(0)
    sp = _dummy_problem(rng, 8, omega=0.0)
    rs = solve(sp)
    assert len(rs.chosen) == 8
    assert rs.proof


def test_identical_regions_keep_only_better_rule():
    d = _two_col_dataset()
    rules = [
        _rule(Pattern([Equals("g", "u")]), error=1.0, support_abs=10, n=20),
        _rule(Pattern([Equals("h", "u")]), error=3.0, support_abs=10, n=20),  # same region
    ]
    sp = build_problem(rules, sigma=1.0, omega=1.0, d=d)
    assert sp.overlap[0, 1] == 1.0
    assert sp.alpha == pytest.approx([2.0, 2 / 3])
    # oracle over all three nonempty subsets
    both = subset_objective([0, 1], sp)
    only_better = subset_objective([0], sp)
    only_worse = subset_objective([1], sp)
    assert only_better < min(both, only_worse)
    rs = solve(sp)
    assert [r.key for r in rs.chosen] == ['g="u"']
    assert rs.objective_value == only_better


def test_exact_matches_exhaustive_oracle():
    rng = np.random.default_rng(5)
    for trial in range(12):
        sp = _dummy_problem(rng, int(rng.integers(2, 13)))
        rs = solve(sp)
        want_set, want_obj = best_subset_oracle(sp)
        assert rs.objective_value == want_obj
        assert [sp.candidates[i].key for i in want_set] == [r.key for r in rs.chosen]
        assert rs.proof and rs.solver == "exact"


def test_exact_ties_match_oracle_bit_for_bit():
    rng = np.random.default_rng(31)
    swaps = 0
    for n in (2, 3, 5, 8, 11, 14, 14):
        sp = _tied_problem(rng, n)
        rs = solve(sp)
        want_set, want_obj = best_subset_oracle(sp)
        assert [r.key for r in rs.chosen] == [sp.candidates[i].key for i in want_set]
        assert rs.objective_value == want_obj
        for i in want_set:  # a member whose twin is out ties with the twin
            twin = i ^ 1
            if twin < n and twin not in want_set:
                assert subset_objective(sorted(set(want_set) - {i} | {twin}), sp) == want_obj
                swaps += 1
    assert swaps  # the tie-break decided at least once


def test_objective_decomposition_identity():
    rng = np.random.default_rng(7)
    sp = _dummy_problem(rng, 10)
    rs = solve(sp)
    idx = [sp.candidates.index(r) for r in rs.chosen]
    assert subset_objective(idx, sp) == pytest.approx(rs.objective_value, abs=1e-9)


def test_objective_monotone_in_omega():
    rng = np.random.default_rng(11)
    base = _dummy_problem(rng, 9, omega=0.0)
    values = []
    for omega in (0.0, 0.5, 1.0, 2.0):
        sp = SelectionProblem(
            candidates=base.candidates,
            alpha=base.alpha,
            overlap=base.overlap,
            sigma=base.sigma,
            omega=omega,
            normalized_errors=base.normalized_errors,
            normalized_supports=base.normalized_supports,
        )
        values.append(solve(sp).objective_value)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_solver_always_nonempty():
    rng = np.random.default_rng(13)
    for _ in range(10):
        sp = _dummy_problem(rng, int(rng.integers(1, 8)), omega=2.0)
        assert len(solve(sp).chosen) >= 1


def test_solve_rejects_a_problem_without_candidates():
    empty = np.zeros(0)
    sp = SelectionProblem([], empty, np.eye(0), 1.0, 1.0, empty, empty)
    with pytest.raises(DataError):
        solve(sp)


def test_local_search_above_exact_limit():
    rng = np.random.default_rng(17)
    sp = _dummy_problem(rng, 30)
    rs = solve(sp)
    assert rs.solver == "local-search" and not rs.proof
    assert len(rs.chosen) >= 1
    # sanity: not worse than the best singleton
    best_single = min(subset_objective([i], sp) for i in range(30))
    assert rs.objective_value <= best_single + 1e-12


def test_branch_and_bound_proof_at_mid_sizes():
    rng = np.random.default_rng(19)
    sp = _dummy_problem(rng, 15)
    rs = solve(sp)
    want_set, want_obj = best_subset_oracle(sp)
    assert rs.proof
    assert rs.objective_value == want_obj


# ---------------------------------------------------------------- select_top_q


def test_top_q_full_and_single():
    rng = np.random.default_rng(23)
    sp = _dummy_problem(rng, 6)
    assert len(select_top_q(sp, 6).chosen) == 6
    top1 = select_top_q(sp, 1)
    assert [sp.candidates.index(r) for r in top1.chosen] == [int(np.argmax(sp.alpha))]


def test_top_q_sort_order():
    d = _two_col_dataset()
    rules = [
        _rule(Pattern([Equals("g", "u")]), 1.0, 10, 20),  # alpha 2.0
        _rule(Pattern([Equals("g", "w")]), 3.0, 10, 20),  # alpha 0.667
        _rule(Pattern([Equals("h", "z")]), 2.0, 10, 20),  # alpha 1.0
    ]
    sp = build_problem(rules, 1.0, 1.0, d)
    rs = select_top_q(sp, 2)
    assert [r.key for r in rs.chosen] == ['g="u"', 'h="z"']
    assert rs.solver == "top-q"


def test_top_q_range_errors():
    rng = np.random.default_rng(29)
    sp = _dummy_problem(rng, 4)
    with pytest.raises(DataError):
        select_top_q(sp, 0)
    with pytest.raises(DataError):
        select_top_q(sp, 5)
    for q in (1.5, 2.0, True, "2"):
        with pytest.raises(DataError, match="q must be an integer"):
            select_top_q(sp, q)
    assert select_top_q(sp, np.int64(2)).chosen == select_top_q(sp, 2).chosen


@pytest.mark.parametrize("limit", [25, 0], ids=["exact", "local-search"])
def test_ties_between_intervals_whose_texts_collide_break_on_the_bounds(monkeypatch, limit):
    # both render 'x in (-inf,1e+06)'; the bounds, not the text, break the tie
    low, high = (Pattern([Interval("x", -np.inf, 1e6 + b)]) for b in (0.1, 0.2))
    assert low.key == high.key
    sp = SelectionProblem(
        candidates=[_rule(high, 1.0, 5, 10), _rule(low, 1.0, 5, 10)],
        alpha=np.ones(2),
        overlap=np.ones((2, 2)),  # together they score 0, each alone -1
        sigma=1.0,
        omega=1.0,
        normalized_errors=np.full(2, 0.5),
        normalized_supports=np.full(2, 0.5),
    )
    assert _rank([1], sp) < _rank([0], sp)
    monkeypatch.setattr("hipar.selection.EXACT_LIMIT", limit)
    assert [r.pattern for r in solve(sp).chosen] == [low]
    assert [r.pattern for r in select_top_q(sp, 1).chosen] == [low]
    assert best_subset_oracle(sp)[0] == [1]
