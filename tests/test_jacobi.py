import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from exactdet import (
    IdentityReport,
    Matrix,
    augment_columns,
    complementary_minor,
    det_bareiss,
    det_laplace,
    generalized_pluecker_residual,
    jacobi_residual,
    minor_three_term_residual,
    pluecker_terms,
    submatrix_delete,
    three_term_residual,
    verify_all_jacobi,
)
from exactdet import jacobi, pluecker
from exactdet.core import index_set
from exactdet.matfile import parse_matrix
from exactdet.randgen import random_matrix, trial_stream

from oracles import det_leibniz, permutation_parity
from test_golden import CASES

GOLDEN = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])


def seeded(seed, n, bound=9):
    return random_matrix(trial_stream(seed, 0), n, n, bound)


def laplace_minor(matrix, rows, cols):
    return det_laplace(submatrix_delete(matrix, rows, cols))


class TestJacobiResidual:
    def test_identity_matrix(self):
        assert jacobi_residual(Matrix.identity(4), 1, 2) == 0

    def test_golden_adjacent_pair_intermediates(self):
        # every ingredient re-derived through the Laplace oracle
        assert laplace_minor(GOLDEN, {1}, {1}) == 2
        assert laplace_minor(GOLDEN, {2}, {2}) == -11
        assert laplace_minor(GOLDEN, {1}, {2}) == -2
        assert laplace_minor(GOLDEN, {2}, {1}) == -4
        assert laplace_minor(GOLDEN, {1, 2}, {1, 2}) == 10
        assert det_laplace(GOLDEN) == -3
        assert 2 * (-11) - (-2) * (-4) - 10 * (-3) == 0
        assert jacobi_residual(GOLDEN, 1, 2) == 0

    def test_golden_nonadjacent_pair(self):
        assert laplace_minor(GOLDEN, {1}, {1}) == 2
        assert laplace_minor(GOLDEN, {3}, {3}) == -3
        assert laplace_minor(GOLDEN, {1}, {3}) == -3
        assert laplace_minor(GOLDEN, {3}, {1}) == -3
        assert laplace_minor(GOLDEN, {1, 3}, {1, 3}) == 5
        assert jacobi_residual(GOLDEN, 1, 3) == 0

    def test_symmetric_in_the_pair(self):
        m = seeded(21, 5)
        for i, j in combinations(range(1, 6), 2):
            assert jacobi_residual(m, i, j) == jacobi_residual(m, j, i) == 0

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            jacobi_residual(GOLDEN, 2, 2)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            jacobi_residual(GOLDEN, 1, 4)

    @pytest.mark.parametrize("index", [0, True, 1.0])
    def test_indices_read_as_an_index_set(self, index):
        # the index-set check complementary_minor applies, before the range check
        for args in ((index, 3), (3, index)):
            with pytest.raises(ValueError, match=f"positive integers, got {index!r}"):
                jacobi_residual(GOLDEN, *args)

    def test_scaling_invariance(self):
        m = seeded(22, 4)
        scaled = m.scale(Fraction(-5, 7))
        for i, j in combinations(range(1, 5), 2):
            assert jacobi_residual(scaled, i, j) == 0

    def test_random_sweep(self):
        for trial in range(10):
            gen = trial_stream(23, trial)
            n = gen.next_int(2, 7)
            m = random_matrix(gen, n, n, 9)
            i = gen.next_int(1, n)
            j = next(x for x in range(1, n + 1) if x != i)
            assert jacobi_residual(m, i, j) == 0


class TestVerifyAllJacobi:
    def test_singular_two_by_two(self):
        m = Matrix.from_rows([[1, 2], [2, 4]])
        assert det_laplace(m) == 0
        report = verify_all_jacobi(m)
        assert report.passed
        assert report.residuals_checked == 2

    def test_identity_five(self):
        report = verify_all_jacobi(Matrix.identity(5))
        assert report.passed
        assert report.residuals_checked == 20

    def test_seeded_six(self):
        report = verify_all_jacobi(seeded(24, 6))
        assert report.passed
        assert report.residuals_checked == 30
        assert report.witnesses == ()

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            IdentityReport("jacobi", "2x2", 2, 1, witnesses=())


class TestMinorThreeTerm:
    def test_reduces_to_classical_relation_at_n4(self):
        m = seeded(25, 4)
        quad = (1, 2, 3, 4)

        def two_by_two(u, v):
            # rows 3,4 with columns u,v kept: re-derived by the permutation sum
            kept = Matrix.from_rows(
                [[m.at(3, u), m.at(3, v)], [m.at(4, u), m.at(4, v)]]
            )
            return det_leibniz(kept)

        classical = (
            two_by_two(3, 4) * two_by_two(1, 2)
            - two_by_two(2, 4) * two_by_two(1, 3)
            + two_by_two(2, 3) * two_by_two(1, 4)
        )
        assert classical == 0
        assert minor_three_term_residual(m, (1, 2), quad) == 0

    def test_equal_rows_zero_comps(self):
        base = seeded(26, 4)
        rows = [list(base.row_values(i)) for i in range(1, 5)]
        rows[3] = rows[2]
        m = Matrix.from_rows(rows)
        for x, y in combinations((1, 2, 3, 4), 2):
            assert complementary_minor(m, (1, 2), (x, y)) == 0
        assert minor_three_term_residual(m, (1, 2), (1, 2, 3, 4)) == 0

    def test_seeded_six_by_six(self):
        assert minor_three_term_residual(seeded(27, 6), (2, 5), (1, 3, 4, 6)) == 0

    def test_set_size_errors(self):
        with pytest.raises(ValueError):
            minor_three_term_residual(seeded(28, 5), (1,), (1, 2, 3, 4))
        with pytest.raises(ValueError):
            minor_three_term_residual(seeded(28, 5), (1, 2), (1, 2, 3))

    def test_exhaustive_small_sweep(self):
        m = seeded(29, 5)
        for rows in combinations(range(1, 6), 2):
            for cols in combinations(range(1, 6), 4):
                assert minor_three_term_residual(m, rows, cols) == 0


class TestGeneralizedResidual:
    def test_r1_cancellation(self):
        m = seeded(30, 4)
        assert generalized_pluecker_residual(m, (2,), (1, 3)) == 0
        # the smallest matrix that admits r = 1: 2r = 2 columns, one core row
        assert generalized_pluecker_residual(seeded(30, 2), (1,), (1, 2)) == 0

    def test_r2_agrees_with_three_term(self):
        m = seeded(31, 4)
        assert generalized_pluecker_residual(m, (1, 2), (1, 2, 3, 4)) == 0
        assert minor_three_term_residual(m, (1, 2), (1, 2, 3, 4)) == 0

    def test_r3_twenty_terms(self):
        m = seeded(32, 6)
        terms = pluecker_terms(
            submatrix_delete(m, (1, 2, 3), (1, 2, 3, 4, 5, 6)),
            [
                tuple(v for i, v in enumerate(m.column_values(c), start=1) if i > 3)
                for c in range(1, 7)
            ],
        )
        assert len(terms) == 20
        assert generalized_pluecker_residual(m, (1, 2, 3), (1, 2, 3, 4, 5, 6)) == 0

    @staticmethod
    def _exchange_inputs(n):
        """Seeded order-n inputs for the r = 3 exchange relation: integer, p/q, and
        zero-heavy (about four entries in five zero), where cores swap rows or lack a
        pivot and many halves are 0."""
        rng = random.Random(3000 + n)
        integer = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        rational = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                    for _ in range(n)]
        sparse = [[rng.randint(-9, 9) if rng.random() < 0.2 else 0 for _ in range(n)]
                  for _ in range(n)]
        return [Matrix.from_rows(rows) for rows in (integer, rational, sparse)]

    @staticmethod
    def _exchange_choices(n, rng):
        """Every r = 3 choice at order 6, else 40 seeded draws of 3 rows and 6 columns."""
        indices = range(1, n + 1)
        if n == 6:
            return [(rows, tuple(indices)) for rows in combinations(indices, 3)]
        return [
            (tuple(sorted(rng.sample(indices, 3))), tuple(sorted(rng.sample(indices, 6))))
            for _ in range(40)
        ]

    @pytest.mark.parametrize("n", range(6, 13))
    def test_r3_exchange_vanishes(self, n):
        rng = random.Random(n)
        for m in self._exchange_inputs(n):
            choices = self._exchange_choices(n, rng)
            assert jacobi._splitting_residuals(m, choices, pluecker._EXCHANGE) == []
            for rows, cols in choices[:3]:
                assert generalized_pluecker_residual(m, rows, cols) == 0

    @pytest.mark.parametrize("case", ["verify-json-chain-stops", "verify-json-chain-singular-cores"])
    def test_r3_exchange_vanishes_on_ci_inputs(self, case):
        # two added choices: on the stopped-chain input the first one's core keeps the
        # singular leading 2 x 2 block and swaps rows, and on the singular-core input the
        # second one's core keeps the equal columns 3 and 9 and has no pivot
        m = parse_matrix(CASES[case][1])
        choices = self._exchange_choices(m.rows, random.Random(m.rows))
        choices += [((5, 6, 7), (3, 4, 5, 6, 7, 8)), ((1, 2, 4), (1, 2, 5, 6, 7, 10))]
        assert jacobi._splitting_residuals(m, choices, pluecker._EXCHANGE) == []

    def test_dimension_and_size_errors(self):
        with pytest.raises(ValueError):
            generalized_pluecker_residual(seeded(33, 3), (1, 2), (1, 2, 3))
        with pytest.raises(ValueError):
            generalized_pluecker_residual(seeded(33, 3), (1, 2), (1, 2, 3, 4))

    def test_sampled_sweep(self):
        for trial in range(8):
            gen = trial_stream(34, trial)
            n = gen.next_int(4, 7)
            m = random_matrix(gen, n, n, 9)
            assert generalized_pluecker_residual(m, (1, 3), (1, 2, 3, 4)) == 0


def test_cross_module_proof_construction():
    """Deleting the row pair and all four chosen columns, then appending back
    restricted column pairs, reproduces every minor up to a computed column
    permutation sign; the three-term relation holds on the construction."""
    m = seeded(35, 6)
    rows = (2, 5)
    quad = (1, 3, 4, 6)
    core = submatrix_delete(m, rows, quad)
    restricted = {
        c: tuple(v for i, v in enumerate(m.column_values(c), start=1) if i not in rows)
        for c in quad
    }
    assert three_term_residual(core, *(restricted[c] for c in quad)) == 0

    nonquad = [c for c in range(1, 7) if c not in quad]
    for x, y in combinations(quad, 2):
        kept = [c for c in quad if c not in (x, y)]
        augmented = augment_columns(core, [restricted[c] for c in kept])
        comp_value = complementary_minor(m, rows, (x, y))
        comp_cols = [c for c in range(1, 7) if c not in (x, y)]
        aug_cols = nonquad + kept
        sign = permutation_parity([comp_cols.index(c) for c in aug_cols])
        assert comp_value == sign * det_bareiss(augmented)
        assert comp_value == sign * det_leibniz(augmented)


EMPTY = Matrix.from_rows([])
ONE_BY_ONE = Matrix.from_rows([[5]])
TWO_BY_THREE = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize(
    "call, outcome",
    [
        pytest.param(
            lambda: jacobi_residual(ONE_BY_ONE, 1, 2),
            IndexError("rows (1,) or columns (2,) out of range for the 1x1 matrix"),
            id="jacobi-1x1",
        ),
        pytest.param(
            lambda: jacobi_residual(TWO_BY_THREE, 1, 2),
            ValueError("need a square matrix, got 2x3"),
            id="jacobi-2x3",
        ),
        pytest.param(
            # the probe reads M_ij in the caller's order, whichever index is past the matrix
            lambda: jacobi_residual(GOLDEN, 9, 1),
            IndexError("rows (9,) or columns (1,) out of range"),
            id="jacobi-caller-order",
        ),
        pytest.param(
            # orders 0 and 1 have no pair: a passing report with nothing checked
            lambda: [
                (report.passed, report.residuals_checked)
                for report in (verify_all_jacobi(EMPTY), verify_all_jacobi(ONE_BY_ONE))
            ],
            [(True, 0), (True, 0)],
            id="verify-all-1x1",
        ),
        pytest.param(
            lambda: verify_all_jacobi(TWO_BY_THREE),
            ValueError("need a square matrix, got 2x3"),
            id="verify-all-2x3",
        ),
        pytest.param(
            lambda: minor_three_term_residual(seeded(36, 6), (1, 2, 3), (1, 2, 3, 4, 5, 6)),
            ValueError("need 2 deleted rows and 4 chosen columns, got 3"),
            id="three-term-three-rows",
        ),
        pytest.param(
            lambda: generalized_pluecker_residual(TWO_BY_THREE, (1,), (1, 2)),
            ValueError("need a square matrix, got 2x3"),
            id="generalized-2x3",
        ),
        # an index list that cannot be ordered names its first non-integer
        pytest.param(
            lambda: jacobi_residual(GOLDEN, 1, "2"),
            ValueError("index sets hold positive integers, got '2'"),
            id="jacobi-str-index",
        ),
        pytest.param(
            lambda: complementary_minor(GOLDEN, [1, "2"], [1, 2]),
            ValueError("index sets hold positive integers, got '2'"),
            id="minor-str-index",
        ),
        pytest.param(
            lambda: submatrix_delete(GOLDEN, [1, "x"], []),
            ValueError("index sets hold positive integers, got 'x'"),
            id="submatrix-str-index",
        ),
        pytest.param(
            lambda: minor_three_term_residual(Matrix.identity(4), [1, "2"], [1, 2, 3, 4]),
            ValueError("index sets hold positive integers, got '2'"),
            id="three-term-str-index",
        ),
        pytest.param(
            lambda: index_set([1, None]),
            ValueError("index sets hold positive integers, got None"),
            id="index-set-none",
        ),
    ],
)
def test_validation_errors(call, outcome):
    """Each call's error at the check boundary, or its result where an empty order is
    accepted."""
    if isinstance(outcome, Exception):
        with pytest.raises(type(outcome), match=f"^{re.escape(str(outcome))}"):
            call()
    else:
        assert call() == outcome
