from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations

import pytest

import exactdet.engines as engines
from exactdet import (
    DodgsonResult,
    Matrix,
    antisymmetric_from_matrix,
    augment_columns,
    complementary_minor,
    det_bareiss,
    det_dodgson,
    det_laplace,
    first_minor,
    generalized_pluecker_residual,
    jacobi_recurrence_residual,
    minor_three_term_residual,
    pluecker_sum,
    pluecker_terms,
    signed_cofactor,
    submatrix_delete,
    three_term_residual,
    verify_all_jacobi,
)
from exactdet.randgen import random_matrix, trial_stream

from oracles import det_leibniz

GOLDEN = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
ZERO_INTERIOR = Matrix.from_rows([[1, 2, 3], [4, 0, 6], [7, 8, 9]])


def seeded(seed, n, bound=9):
    return random_matrix(trial_stream(seed, 0), n, n, bound)


def seeded_rational(seed, n, bound=9, cols=None):
    """Entries p/q with p in [-bound, bound] and q in [1, bound], drawn row-major;
    n x n unless ``cols`` is given."""
    gen = trial_stream(seed, 0)
    return Matrix.from_rows(
        [[Fraction(gen.next_int(-bound, bound), gen.next_int(1, bound))
          for _ in range(n if cols is None else cols)]
         for _ in range(n)]
    )


class TestLaplace:
    def test_identity(self):
        assert det_laplace(Matrix.identity(3)) == 1

    def test_two_by_two_closed_form(self):
        assert det_laplace(Matrix.from_rows([[1, 2], [3, 4]])) == -2

    def test_golden_matches_permutation_sum(self):
        assert det_leibniz(GOLDEN) == -3
        assert det_laplace(GOLDEN) == -3

    def test_empty_and_single(self):
        assert det_laplace(Matrix.from_rows([])) == 1
        assert det_laplace(Matrix.from_rows([[7]])) == 7

    def test_non_square(self):
        with pytest.raises(ValueError):
            det_laplace(Matrix.from_rows([[1, 2]]))

    def test_agrees_with_permutation_sum_on_randoms(self):
        for seed in range(8):
            m = seeded(seed, 2 + seed % 4)
            assert det_laplace(m) == det_leibniz(m)


class TestBareiss:
    def test_golden(self):
        assert det_bareiss(GOLDEN) == det_laplace(GOLDEN) == -3

    def test_pivot_swap_path(self):
        assert det_bareiss(Matrix.from_rows([[0, 1], [1, 0]])) == -1

    def test_rank_deficient(self):
        assert det_bareiss(Matrix.from_rows([[1, 2], [2, 4]])) == 0

    def test_rational_entries(self):
        m = Matrix.from_rows([["1/2", "1/3"], ["1/4", "1/5"]])
        assert det_bareiss(m) == det_leibniz(m) == Fraction(1, 60)

    def test_leading_zero_column(self):
        m = Matrix.from_rows([[0, 0, 1], [0, 2, 3], [4, 5, 6]])
        assert det_bareiss(m) == det_leibniz(m)

    def test_singular_with_zero_column(self):
        m = Matrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
        assert det_bareiss(m) == 0

    def test_row_swap_antisymmetry(self):
        m = seeded(3, 5)
        swapped = Matrix.from_rows(
            [m.row_values(2), m.row_values(1)] + [m.row_values(i) for i in range(3, 6)]
        )
        assert det_bareiss(swapped) == -det_bareiss(m)

    def test_row_scaling_multilinearity(self):
        m = seeded(4, 4)
        c = Fraction(7, 3)
        scaled = Matrix.from_rows(
            [tuple(c * v for v in m.row_values(1))]
            + [m.row_values(i) for i in range(2, 5)]
        )
        assert det_bareiss(scaled) == c * det_bareiss(m)

    def test_transpose_invariance(self):
        m = seeded(5, 5)
        assert det_bareiss(m.transpose()) == det_bareiss(m)


class TestDodgson:
    def test_golden_no_fallback(self):
        result = det_dodgson(GOLDEN)
        assert result == DodgsonResult(Fraction(-3), False, 0)

    def test_zero_interior_fallback(self):
        assert det_laplace(ZERO_INTERIOR) == 60
        result = det_dodgson(ZERO_INTERIOR)
        assert result.value == 60
        assert result.fallback_used
        assert result.fallback_depth == 1

    def test_single_entry(self):
        assert det_dodgson(Matrix.from_rows([[5]])) == DodgsonResult(Fraction(5), False, 0)

    def test_zero_matrix_falls_back(self):
        zero = Matrix.from_rows([[0] * 4] * 4)
        result = det_dodgson(zero)
        assert result.value == 0
        assert result.fallback_used

    def test_nested_fallback_depth(self):
        m = Matrix.from_rows(
            [[1, 2, 3, 4], [5, 0, 7, 8], [9, 7, 0, 2], [3, 4, 5, 6]]
        )
        # the top-level interior det [[0,7],[7,0]] = -49 is fine, but the
        # size-3 corner block rows 2-4 / cols 2-4 hits a zero interior, so
        # the fallback fires one level down
        result = det_dodgson(m)
        assert result.value == det_laplace(m)
        assert result.fallback_used
        assert result.fallback_depth == 2

    def test_fallback_flag_invariant(self):
        for seed in range(20):
            m = seeded(100 + seed, 2 + seed % 5, bound=3)
            result = det_dodgson(m)
            if not result.fallback_used:
                assert result.fallback_depth == 0
            assert result.value == det_bareiss(m)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rational_entries_match_bareiss_and_laplace(self, n):
        for seed in range(4):
            m = seeded_rational(400 + 10 * n + seed, n)
            reference = det_laplace(m)
            assert det_bareiss(m) == reference
            assert det_dodgson(m).value == reference

    def test_scaled_zero_interior_fallback(self):
        factors = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]
        scaled = Matrix.from_rows(
            [tuple(c * v for v in ZERO_INTERIOR.row_values(i + 1)) for i, c in enumerate(factors)]
        )
        reference = det_laplace(scaled)
        assert reference == 60 * factors[0] * factors[1] * factors[2]
        assert det_bareiss(scaled) == reference
        assert det_dodgson(scaled) == DodgsonResult(reference, True, 1)

    # (seed, n, bound, fallback_used, fallback_depth): fallback_depth is the
    # level of the first fallback in the recursion's visit order (interior,
    # then m11, mnn, m1n, mn1), so any change of that order moves these levels.
    VISIT_ORDER = [
        (500, 3, 1, True, 1), (501, 4, 2, True, 2), (502, 5, 3, False, 0),
        (503, 6, 1, True, 3), (504, 7, 2, True, 4), (505, 8, 3, True, 6),
        (506, 9, 1, True, 6), (507, 10, 2, True, 8), (508, 11, 3, True, 8),
        (509, 12, 1, True, 10), (510, 3, 2, False, 0), (511, 4, 3, False, 0),
        (512, 5, 1, True, 3), (513, 6, 2, True, 4), (514, 7, 3, True, 5),
        (515, 8, 1, True, 6), (516, 9, 2, True, 7), (517, 10, 3, True, 8),
        (518, 11, 1, True, 9), (519, 12, 2, True, 9), (520, 3, 3, False, 0),
        (521, 4, 1, True, 2), (522, 5, 2, True, 3), (523, 6, 3, True, 4),
    ]

    def test_fallback_visit_order_pinned(self):
        for seed, n, bound, used, depth in self.VISIT_ORDER:
            m = seeded(seed, n, bound)
            result = det_dodgson(m)
            assert (result.fallback_used, result.fallback_depth) == (used, depth), seed
            assert result.value == det_bareiss(m)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            det_dodgson(Matrix.from_rows([]))

    def test_result_invariant_enforced(self):
        with pytest.raises(ValueError):
            DodgsonResult(Fraction(1), False, 2)


def test_engine_agreement_sweep():
    for seed in range(12):
        n = 2 + seed % 6
        m = seeded(200 + seed, n)
        reference = det_laplace(m)
        assert det_bareiss(m) == reference
        assert det_dodgson(m).value == reference


def test_engines_safe_for_concurrent_use():
    matrices = [seeded(300 + i, 4) for i in range(16)]
    sequential = [det_bareiss(m) for m in matrices]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(det_bareiss, matrices))
    assert concurrent == sequential


class TestMinors:
    def test_complementary_minor_single_survivor(self):
        assert complementary_minor(GOLDEN, {1, 2}, {1, 2}) == 10

    def test_complementary_minor_empty_convention(self):
        assert complementary_minor(GOLDEN, {1, 2, 3}, {1, 2, 3}) == 1

    def test_complementary_minor_identity_mismatch(self):
        assert complementary_minor(Matrix.identity(4), {2}, {3}) == 0

    def test_comp_extremes(self):
        m = seeded(7, 4)
        assert complementary_minor(m, (), ()) == det_bareiss(m)
        assert complementary_minor(m, (1, 2, 3, 4), (1, 2, 3, 4)) == 1

    def test_shape_error(self):
        with pytest.raises(ValueError):
            complementary_minor(GOLDEN, {1}, {1, 2})

    def test_first_minor_values(self):
        assert first_minor(GOLDEN, 1, 2) == det_leibniz(Matrix.from_rows([[4, 6], [7, 10]])) == -2
        assert first_minor(GOLDEN, 2, 1) == det_leibniz(Matrix.from_rows([[2, 3], [8, 10]])) == -4
        assert first_minor(Matrix.identity(3), 1, 1) == 1

    def test_first_minor_bounds(self):
        with pytest.raises(IndexError):
            first_minor(GOLDEN, 0, 1)
        with pytest.raises(IndexError):
            first_minor(GOLDEN, 1, 4)

    def test_signed_cofactor(self):
        assert signed_cofactor(Matrix.identity(3), {1}, {2}) == 0
        two = Matrix.from_rows([[1, 2], [3, 4]])
        assert signed_cofactor(two, {1}, {1}) == 4
        assert signed_cofactor(two, {1}, {2}) == -3


class TestRationalMinors:
    """Every minor and half-determinant on p/q entries against the oracles.

    Each row of a p/q matrix clears with its own multiplier, so a minor that
    divides by a deleted row's multiplier is wrong here; integer entries, and
    the residuals, which are homogeneous in the minors, cannot show it.
    """

    N = 5
    SEEDS = (0, 1, 2)

    def test_complementary_minors_match_laplace(self):
        indices = range(1, self.N + 1)
        for seed in self.SEEDS:
            m = seeded_rational(500 + seed, self.N)
            for size in range(3):
                for rows in combinations(indices, size):
                    for cols in combinations(indices, size):
                        expected = det_laplace(submatrix_delete(m, rows, cols))
                        assert complementary_minor(m, rows, cols) == expected, (seed, rows, cols)

    @pytest.mark.parametrize("r", [1, 2])
    def test_pluecker_terms_match_leibniz(self, r):
        for seed in self.SEEDS:
            m = seeded_rational(510 + seed, self.N, cols=self.N - r)
            vectors = seeded_rational(520 + seed, 2 * r, cols=self.N).entries

            def half(positions):
                return det_leibniz(augment_columns(m, [vectors[p - 1] for p in positions]))

            for term, value in pluecker_terms(m, vectors):
                assert value == term.sign * half(term.left) * half(term.right), (seed, term)

    def test_every_residual_family_vanishes(self):
        indices = range(1, self.N + 1)
        for seed in self.SEEDS:
            m = seeded_rational(530 + seed, self.N)
            assert verify_all_jacobi(m).passed
            for rows in combinations(indices, 2):
                for quad in combinations(indices, 4):
                    assert minor_three_term_residual(m, rows, quad) == 0
                    assert generalized_pluecker_residual(m, rows, quad) == 0
            for row in indices:
                for pair in combinations(indices, 2):
                    assert generalized_pluecker_residual(m, (row,), pair) == 0
            core = seeded_rational(540 + seed, self.N, cols=self.N - 2)
            vectors = seeded_rational(550 + seed, 4, cols=self.N).entries
            assert pluecker_sum(core, vectors) == 0
            assert three_term_residual(core, *vectors) == 0
            a = seeded_rational(560 + seed, 6)
            skew = Matrix.from_rows(
                [[a.at(i, j) - a.at(j, i) for j in range(1, 7)] for i in range(1, 7)]
            )
            assert jacobi_recurrence_residual(antisymmetric_from_matrix(skew)) == 0

    def test_column_append_sign_under_odd_fault(self, monkeypatch):
        """An odd, non-linear fault in the elimination (d -> d + d^3) survives a column
        permutation up to sign and breaks every cancellation.  So the residuals that
        read half-determinants as minors of A match those built from the core block
        and the restricted columns only if each half carries its column-append sign."""
        good = engines._bareiss

        def odd_fault(work):
            d = good(work)
            return d + d**3

        monkeypatch.setattr(engines, "_bareiss", odd_fault)
        a = seeded_rational(570, 6)
        indices = range(1, 7)
        residuals = []
        for r in (1, 2, 3):
            for rows in combinations(indices, r):
                for cols in combinations(indices, 2 * r):
                    core = submatrix_delete(a, rows, cols)
                    vectors = [
                        tuple(v for i, v in enumerate(a.column_values(c), 1) if i not in rows)
                        for c in cols
                    ]
                    got = generalized_pluecker_residual(a, rows, cols)
                    assert got == pluecker_sum(core, vectors), (rows, cols)
                    residuals.append(got)
                    if r == 2:
                        got = minor_three_term_residual(a, rows, cols)
                        assert got == three_term_residual(core, *vectors), (rows, cols)
                        residuals.append(got)
        assert len(residuals) == 560
        assert any(residuals)
