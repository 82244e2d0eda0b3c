"""Assignment solver tests: staged reductions, line cover, and the oracle."""

import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointtrack import assignment
from pointtrack.assignment import (
    BRUTE_FORCE_CAP,
    EPS,
    CostMatrix,
    _max_zero_matching,
    brute_force_solve,
    min_line_cover,
    reduce_cols,
    reduce_rows,
    shift_zeros,
    solve,
)
from pointtrack.errors import DimensionError, SizeError


def matrix(rows):
    return CostMatrix(np.array(rows, dtype=float))


@st.composite
def cost_matrices(draw, max_dim=7, integral=True):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    if integral:
        # 0-3 makes tied optima common, which exercises the tie-break.
        elements = st.integers(0, draw(st.sampled_from((100, 3)))).map(float)
    else:
        elements = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False, width=64)
    rows = draw(
        st.lists(st.lists(elements, min_size=m, max_size=m), min_size=n, max_size=n)
    )
    return matrix(rows)


@pytest.mark.filterwarnings("error")  # the min/max checks must not warn
class TestCostMatrixChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            matrix([[1.0, 2.0], [bad, 3.0]])

    def test_infinity_and_negative_entry_reports_finite_first(self):
        with pytest.raises(ValueError, match="must be finite"):
            matrix([[-5.0, np.inf]])

    def test_negative_entry_beyond_eps_rejected(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            matrix([[1.0, -1e-8]])

    def test_negative_entry_within_eps_accepted(self):
        assert matrix([[1.0, -1e-10]]).values[0, 1] == -1e-10

    def test_empty_matrix_accepted(self):
        assert CostMatrix(np.zeros((0, 3))).n_cols == 3

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            CostMatrix(np.zeros(3))


class TestReductions:
    def test_row_reduction_subtracts_row_minima(self):
        reduced = reduce_rows(matrix([[4, 1, 3], [2, 0, 5], [3, 2, 2]]))
        assert reduced.values.tolist() == [[3, 0, 2], [2, 0, 5], [1, 0, 0]]

    def test_row_reduction_is_identity_on_zero_matrix(self):
        reduced = reduce_rows(matrix([[0, 0], [0, 0]]))
        assert reduced.values.tolist() == [[0, 0], [0, 0]]

    def test_row_reduction_zeroes_singleton(self):
        assert reduce_rows(matrix([[5]])).values.tolist() == [[0]]

    def test_col_reduction_subtracts_column_minima(self):
        reduced = reduce_cols(matrix([[3, 0, 2], [2, 0, 5], [1, 0, 0]]))
        assert reduced.values.tolist() == [[2, 0, 2], [1, 0, 5], [0, 0, 0]]

    def test_col_reduction_identity_on_zero_singleton(self):
        assert reduce_cols(matrix([[0]])).values.tolist() == [[0]]

    def test_col_reduction_two_by_two(self):
        assert reduce_cols(matrix([[1, 2], [3, 4]])).values.tolist() == [[0, 0], [2, 2]]

    def test_reductions_do_not_modify_input(self):
        original = matrix([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
        before = original.values.copy()
        reduce_cols(reduce_rows(original))
        assert np.array_equal(original.values, before)

    @given(cost_matrices())
    def test_every_row_and_column_gains_a_zero(self, cost):
        reduced = reduce_cols(reduce_rows(cost))
        assert (np.abs(reduced.values).min(axis=1) <= 1e-9).all()
        assert (np.abs(reduced.values).min(axis=0) <= 1e-9).all()
        assert reduced.values.min() >= -1e-9


class TestLineCover:
    def test_worked_cover(self):
        cover = min_line_cover(matrix([[2, 0, 2], [1, 0, 5], [0, 0, 0]]))
        assert cover == ({2}, {1})

    def test_independent_zeros_force_full_cover(self):
        reduced = matrix([[0, 7, 9], [5, 0, 8], [6, 4, 0]])
        covered_rows, covered_cols = min_line_cover(reduced)
        assert len(covered_rows) + len(covered_cols) == 3

    def test_all_zero_matrix_needs_dimension_lines(self):
        covered_rows, covered_cols = min_line_cover(matrix([[0, 0], [0, 0]]))
        assert len(covered_rows) + len(covered_cols) == 2

    def test_long_augmenting_chain_beyond_recursion_limit(self):
        # Zeros at (r, r) and (r, r+1), plus (n-1, 0): rows 0..n-2 take
        # their diagonal, so the last row's augmenting path runs through
        # every other row, deeper than a recursive search could go.
        n = sys.getrecursionlimit() + 200
        values = np.ones((n, n))
        r = np.arange(n - 1)
        values[r, r] = 0.0
        values[r, r + 1] = 0.0
        values[n - 1, 0] = 0.0
        covered_rows, covered_cols = min_line_cover(CostMatrix(values))
        assert len(covered_rows) + len(covered_cols) == n

    @given(cost_matrices(max_dim=6))
    def test_cover_covers_every_zero(self, cost):
        reduced = reduce_cols(reduce_rows(cost))
        covered_rows, covered_cols = min_line_cover(reduced)
        zeros = np.argwhere(np.abs(reduced.values) <= 1e-9)
        for r, c in zeros:
            assert int(r) in covered_rows or int(c) in covered_cols


class TestShiftZeros:
    def test_worked_shift(self):
        shifted = shift_zeros(matrix([[2, 0, 2], [1, 0, 5], [0, 0, 0]]), ({2}, {1}))
        assert shifted.values.tolist() == [[1, 0, 1], [0, 0, 4], [0, 1, 0]]

    def test_only_uncovered_and_doubly_covered_change(self):
        # cover = row 0 + col 0: (0,0) doubly covered, (0,1)/(1,0) singly,
        # (1,1) is the sole uncovered entry and the shift amount.
        shifted = shift_zeros(matrix([[0, 3], [2, 5]]), ({0}, {0}))
        assert shifted.values.tolist() == [[5, 3], [2, 0]]

    @given(cost_matrices(max_dim=6))
    def test_shift_strictly_decreases_entry_sum(self, cost):
        reduced = reduce_cols(reduce_rows(cost))
        covered_rows, covered_cols = min_line_cover(reduced)
        if len(covered_rows) + len(covered_cols) >= min(reduced.n_rows, reduced.n_cols):
            return  # cover already complete; shifting is not defined
        shifted = shift_zeros(reduced, (covered_rows, covered_cols))
        n_uncovered = (reduced.n_rows - len(covered_rows)) * (
            reduced.n_cols - len(covered_cols)
        )
        n_doubly = len(covered_rows) * len(covered_cols)
        assert n_uncovered > n_doubly
        assert shifted.values.sum() < reduced.values.sum()


class TestSolve:
    def test_singleton(self):
        result = solve(matrix([[0]]))
        assert result.pairs == {(0, 0)}
        assert result.total_cost == 0.0

    def test_worked_three_by_three(self):
        result = solve(matrix([[4, 1, 3], [2, 0, 5], [3, 2, 2]]))
        assert result.pairs == {(0, 1), (1, 0), (2, 2)}
        assert result.total_cost == 5.0
        assert result.unmatched_rows == frozenset()
        assert result.unmatched_cols == frozenset()

    def test_rectangular_leaves_columns_unmatched(self):
        result = solve(matrix([[1, 2, 3], [2, 4, 6]]))
        assert result.pairs == {(0, 1), (1, 0)}
        assert result.total_cost == 4.0
        assert result.unmatched_cols == {2}

    def test_empty_dimension_rejected(self):
        with pytest.raises(DimensionError):
            solve(CostMatrix(np.zeros((0, 3))))
        with pytest.raises(DimensionError):
            solve(CostMatrix(np.zeros((3, 0))))

    def test_tall_rectangular(self):
        result = solve(matrix([[5], [1], [3]]))
        assert result.pairs == {(1, 0)}
        assert result.unmatched_rows == {0, 2}
        assert result.total_cost == 1.0

    def test_larger_matrix_terminates_and_stays_valid(self):
        rng = np.random.default_rng(7)
        cost = matrix(rng.integers(0, 1000, size=(20, 20)))
        result = solve(cost)
        rows = [r for r, _ in result.pairs]
        cols = [c for _, c in result.pairs]
        assert len(result.pairs) == 20
        assert len(set(rows)) == 20 and len(set(cols)) == 20


def _staged_reference_total(cost):
    """Optimal total cost by the staged Hungarian method, for any size."""
    n_rows, n_cols = cost.n_rows, cost.n_cols
    dim = max(n_rows, n_cols)
    padded = np.full((dim, dim), cost.values.max() + 1.0)
    padded[:n_rows, :n_cols] = cost.values
    work = reduce_cols(reduce_rows(CostMatrix(padded)))
    while True:
        covered_rows, covered_cols = min_line_cover(work)
        if len(covered_rows) + len(covered_cols) >= dim:
            break
        work = shift_zeros(work, (covered_rows, covered_cols))
    col_of_row, _ = _max_zero_matching(np.abs(work.values) <= 1e-9)
    assert -1 not in col_of_row
    return sum(
        cost.values[r, c] for r, c in enumerate(col_of_row) if r < n_rows and c < n_cols
    )


class TestLargeMatrices:
    """Sizes beyond the brute-force oracle, checked against the staged method."""

    @pytest.mark.parametrize("shape", [(20, 20), (40, 40), (24, 37), (37, 24)])
    @pytest.mark.parametrize("integral", [True, False])
    def test_total_cost_matches_staged_reference(self, shape, integral):
        rng = np.random.default_rng(sum(shape))
        if integral:
            values = rng.integers(0, 4, size=shape).astype(float)
        else:
            values = rng.random(shape) * 100.0
        cost = CostMatrix(values)
        result = solve(cost)
        assert len(result.pairs) == min(shape)
        assert abs(result.total_cost - _staged_reference_total(cost)) <= 1e-9


class TestBruteForce:
    def test_worked_three_by_three(self):
        result = brute_force_solve(matrix([[4, 1, 3], [2, 0, 5], [3, 2, 2]]))
        assert result.total_cost == 5.0
        assert result.pairs == {(0, 1), (1, 0), (2, 2)}

    def test_tie_break_prefers_low_indices(self):
        result = brute_force_solve(matrix([[0, 0], [0, 0]]))
        assert result.pairs == {(0, 0), (1, 1)}
        assert result.total_cost == 0.0

    def test_single_row_is_argmin(self):
        result = brute_force_solve(matrix([[7, 2, 9]]))
        assert result.pairs == {(0, 1)}
        assert result.total_cost == 2.0

    def test_enumeration_cap(self):
        big = CostMatrix(np.ones((BRUTE_FORCE_CAP + 1, BRUTE_FORCE_CAP + 1)))
        with pytest.raises(SizeError):
            brute_force_solve(big)

    def test_cap_is_on_smaller_dimension(self):
        wide = CostMatrix(np.ones((2, BRUTE_FORCE_CAP + 3)))
        assert brute_force_solve(wide).total_cost == 2.0

    @pytest.mark.parametrize(
        "rows",
        [
            [[51, 51, 51], [51, 51, 1.468], [51, 4.751286, 51], [51, 51, 51]],
            [[51, 51, 1.468, 51], [51, 4.751286, 1.468, 51], [51, 4.751286, 51, 51]],
        ],
        ids=["tall", "wide"],
    )
    def test_equal_cost_multisets_tie_exactly(self, rows):
        # Several optima use the costs {51, 1.468, 4.751286}; summed in row
        # order they differ by one ulp. The lexicographically smallest wins.
        cost = matrix(rows)
        assert brute_force_solve(cost).pairs == solve(cost).pairs == {(0, 0), (1, 2), (2, 1)}

    def test_near_tie_within_eps_splits_solve_from_oracle(self):
        # solve counts the 1e-9 edge as tight and takes the lexicographic
        # minimum; the oracle compares exact sums and takes the cheaper row.
        cost = matrix([[1e-9], [0]])
        assert solve(cost).pairs == {(0, 0)}
        assert brute_force_solve(cost).pairs == {(1, 0)}


class TestOracleEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(cost_matrices())
    def test_integer_costs_match_exactly(self, cost):
        fast = solve(cost)
        oracle = brute_force_solve(cost)
        assert fast.total_cost == oracle.total_cost
        assert fast.pairs == oracle.pairs

    @settings(max_examples=100, deadline=None)
    @given(cost_matrices(integral=False))
    def test_float_costs_match_within_tolerance(self, cost):
        fast = solve(cost)
        oracle = brute_force_solve(cost)
        assert abs(fast.total_cost - oracle.total_cost) < 1e-6

    @settings(max_examples=150, deadline=None)
    @given(cost_matrices())
    def test_matching_is_injective_partial_map(self, cost):
        result = solve(cost)
        rows = [r for r, _ in result.pairs]
        cols = [c for _, c in result.pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)
        assert len(result.pairs) == min(cost.n_rows, cost.n_cols)
        assert set(rows) | set(result.unmatched_rows) == set(range(cost.n_rows))
        assert set(cols) | set(result.unmatched_cols) == set(range(cost.n_cols))
        assert not set(rows) & set(result.unmatched_rows)
        assert not set(cols) & set(result.unmatched_cols)


@st.composite
def shaped_matrices(draw):
    """Wide, tall or square matrices up to 6 x 6 of three cost kinds.

    Small integers plus offsets of 0 to 10 EPS put runner-up entries and
    rival assignments within a few EPS of the optimum, on both sides of
    the nearest-column shortcut's margin.
    """
    short = draw(st.integers(1, 6))
    long = draw(st.integers(short, 6))
    n, m = draw(st.sampled_from([(short, long), (long, short), (short, short)]))
    kind = draw(st.sampled_from(["integer", "offset", "float"]))
    if kind == "integer":
        elements = st.integers(0, draw(st.sampled_from((100, 3)))).map(float)
    elif kind == "offset":
        elements = st.builds(
            lambda k, e: k + e, st.integers(0, 3), st.sampled_from((0.0, 1e-9, 2e-9, 1e-8))
        )
    else:
        elements = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False, width=64)
    rows = draw(
        st.lists(st.lists(elements, min_size=m, max_size=m), min_size=n, max_size=n)
    )
    return matrix(rows)


def _exact_total(cost, pairs):
    """The exact sum of the matrix entries on ``pairs``, free of rounding."""
    return sum(Fraction(cost.values[r, c]) for r, c in pairs)


def _candidate_totals(cost):
    """Every injective assignment's exact total, ascending."""
    n, m = cost.values.shape
    if n <= m:
        candidates = [list(enumerate(cols)) for cols in itertools.permutations(range(m), n)]
    else:
        candidates = [
            list(zip(rows, cols))
            for rows in itertools.combinations(range(n), m)
            for cols in itertools.permutations(range(m))
        ]
    return sorted(_exact_total(cost, cand) for cand in candidates)


class TestNearestColumnShortcut:
    """`solve` returns each row's nearest column directly when that is exact."""

    @settings(max_examples=300, deadline=None)
    @given(shaped_matrices())
    # Each edge of solve's answer is exactly EPS from tight, as its contract
    # allows, but the float totals differ by one rounding more than 2 * EPS;
    # so totals are compared exactly.
    @example(matrix([[2e-9, 0], [1e-9, 1e-9]]))
    def test_clear_optimum_matches_oracle(self, cost):
        fast = solve(cost)
        oracle = brute_force_solve(cost)
        slack = min(cost.n_rows, cost.n_cols) * Fraction(EPS)
        assert abs(_exact_total(cost, fast.pairs) - _exact_total(cost, oracle.pairs)) <= slack
        totals = _candidate_totals(cost)
        rivals = [t for t in totals if t != totals[0]]
        if not rivals or rivals[0] - totals[0] > slack:
            assert fast.pairs == oracle.pairs
            assert fast.unmatched_rows == oracle.unmatched_rows
            assert fast.unmatched_cols == oracle.unmatched_cols

    @pytest.mark.parametrize(
        "rows",
        [
            [[3, 40, 50, 60, 70], [40, 2, 55, 66, 71], [45, 50, 1, 61, 80], [90, 91, 92, 4, 93]],
            [[3, 40, 45, 90], [40, 2, 50, 91], [50, 55, 1, 92], [60, 66, 61, 4], [70, 71, 80, 93]],
            [[0, 1e-8], [1, 0]],
            [[7]],
            # Summed by row, 0.1 + 0.2 + 0.4 is 0.7000000000000001; by
            # column (0.4 first) it would be 0.7.
            [[9, 0.1, 9], [9, 9, 0.2], [0.4, 9, 9], [9, 9, 9]],
        ],
        ids=["wide", "tall", "margin-above-2-dim-eps", "single", "tall-sum-order"],
    )
    def test_clear_case_skips_the_dual_pass(self, monkeypatch, rows):
        def unreachable(*args):
            raise AssertionError("the dual path ran")

        cost = matrix(rows)
        oracle = brute_force_solve(cost)
        monkeypatch.setattr(assignment, "_augment", unreachable)
        monkeypatch.setattr(assignment, "_lex_min_tight_matching", unreachable)
        result = solve(cost)
        assert result.pairs == oracle.pairs
        assert result.unmatched_rows == oracle.unmatched_rows
        assert result.unmatched_cols == oracle.unmatched_cols
        assert result.total_cost == oracle.total_cost

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # Nearest columns 1 and 2 are distinct, but row 0's runner-up is
            # only dim * EPS = 3e-9 above its minimum.
            ([[3e-9, 0, 5], [5, 5, 0]], {(0, 1), (1, 2)}),
            # Row 1's nearest column is clear, row 0's only dim * EPS clear.
            ([[0, 2e-9], [1, 0]], {(0, 0), (1, 1)}),
            # Between dim * EPS and 2 * dim * EPS: still the dual path.
            ([[0, 3e-9], [1, 0]], {(0, 0), (1, 1)}),
        ],
    )
    def test_margin_within_2_dim_eps_takes_the_dual_path(self, monkeypatch, rows, expected):
        calls = []
        real = assignment._lex_min_tight_matching

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(assignment, "_lex_min_tight_matching", counted)
        assert solve(matrix(rows)).pairs == expected
        assert len(calls) == 1


def _unique_optimum_matrices(rng, count, size_range=(2, 6), shape=None):
    """Random integer matrices whose optimal assignment is unique.

    shape="wide" forces n_rows <= n_cols (every row matched), "tall" the
    transpose; constant-offset invariance only holds for lines that are
    matched in every candidate assignment.
    """
    produced = 0
    while produced < count:
        n = int(rng.integers(*size_range))
        m = int(rng.integers(*size_range))
        if shape == "wide" and n > m:
            n, m = m, n
        elif shape == "tall" and m > n:
            n, m = m, n
        values = rng.integers(0, 100, size=(n, m)).astype(float)
        cost = CostMatrix(values)
        best = brute_force_solve(cost)
        ties = 0
        if n <= m:
            for cols in itertools.permutations(range(m), n):
                total = sum(values[i, j] for i, j in enumerate(cols))
                if total == best.total_cost:
                    ties += 1
        else:
            for rows in itertools.combinations(range(n), m):
                for cols in itertools.permutations(range(m)):
                    total = sum(values[r, c] for r, c in zip(rows, cols))
                    if total == best.total_cost:
                        ties += 1
        if ties == 1:
            produced += 1
            yield cost, best


class TestStructuralProperties:
    def test_adding_constant_to_row_preserves_argmin(self):
        rng = np.random.default_rng(1234)
        for cost, best in _unique_optimum_matrices(rng, 25, shape="wide"):
            row = int(rng.integers(0, cost.n_rows))
            bumped = cost.values.copy()
            bumped[row, :] += 17.0
            shifted = solve(CostMatrix(bumped))
            assert shifted.pairs == best.pairs

    def test_adding_constant_to_column_preserves_argmin(self):
        rng = np.random.default_rng(4321)
        for cost, best in _unique_optimum_matrices(rng, 25, shape="tall"):
            col = int(rng.integers(0, cost.n_cols))
            bumped = cost.values.copy()
            bumped[:, col] += 9.0
            shifted = solve(CostMatrix(bumped))
            assert shifted.pairs == best.pairs

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(777)
        for cost, best in _unique_optimum_matrices(rng, 25):
            perm = rng.permutation(cost.n_rows)
            permuted = solve(CostMatrix(cost.values[perm]))
            expected = {(int(np.flatnonzero(perm == r)[0]), c) for r, c in best.pairs}
            assert permuted.pairs == expected


class TestCostMatrixValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            matrix([[1, -5], [2, 3]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matrix([[1, float("nan")]])
        with pytest.raises(ValueError):
            matrix([[float("inf")]])

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([1.0, 2.0]))
