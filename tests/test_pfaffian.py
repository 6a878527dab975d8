import re
from fractions import Fraction
from itertools import combinations, product

import pytest

import exactdet.engines as engines
from exactdet import (
    AntisymmetricMatrix,
    Matrix,
    antisymmetric_from_matrix,
    antisymmetric_from_upper,
    complementary_minor,
    det_bareiss,
    det_laplace,
    determinant_embedding,
    embedded_minor,
    embedding_labels,
    first_minor,
    jacobi_recurrence_residual,
    pfaffian,
    pfaffian_square_residual,
    submatrix_delete,
)
from exactdet.randgen import random_antisymmetric, random_matrix, trial_stream

from oracles import det_leibniz, pfaffian_matchings

ORDER4 = antisymmetric_from_upper(4, [1, 2, 3, 4, 5, 6])
# p/q entries whose rows 1 and 2 clear with different multipliers, 6 and 70
SKEW_PQ4 = antisymmetric_from_upper(
    4, [Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 5), Fraction(4, 7), 5]
)


class TestConstruction:
    def test_order_two(self):
        skew = antisymmetric_from_upper(2, [3])
        assert skew.to_matrix() == Matrix.from_rows([[0, 3], [-3, 0]])

    def test_order_four_layout(self):
        assert ORDER4.entry(1, 2) == 1
        assert ORDER4.entry(1, 3) == 2
        assert ORDER4.entry(1, 4) == 3
        assert ORDER4.entry(2, 3) == 4
        assert ORDER4.entry(2, 4) == 5
        assert ORDER4.entry(3, 4) == 6
        assert ORDER4.entry(4, 3) == -6
        assert ORDER4.entry(2, 2) == 0

    def test_zero_upper(self):
        skew = antisymmetric_from_upper(2, [0])
        assert skew.to_matrix() == Matrix.from_rows([[0, 0], [0, 0]])

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            antisymmetric_from_upper(3, [1, 2, 3])

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError):
            antisymmetric_from_upper(4, [1, 2, 3])

    def test_materialized_matrix_is_skew(self):
        skew = random_antisymmetric(trial_stream(40, 0), 6, 9)
        full = skew.to_matrix()
        assert full.transpose() == full.scale(-1)

    def test_from_matrix_round_trip(self):
        skew = random_antisymmetric(trial_stream(41, 0), 8, 9)
        assert antisymmetric_from_matrix(skew.to_matrix()) == skew

    def test_from_matrix_reports_first_violation(self):
        with pytest.raises(ValueError, match=r"\(1,2\)"):
            antisymmetric_from_matrix(Matrix.from_rows([[0, 1], [2, 0]]))
        with pytest.raises(ValueError, match=r"\(2,2\)"):
            antisymmetric_from_matrix(Matrix.from_rows([[0, 1], [-1, 5]]))
        with pytest.raises(ValueError):
            antisymmetric_from_matrix(Matrix.identity(3))


class TestPfaffian:
    def test_base_case(self):
        skew = antisymmetric_from_upper(2, [3])
        assert pfaffian(skew) == 3
        assert det_bareiss(skew.to_matrix()) == 9

    def test_order_four_closed_form(self):
        # a12*a34 - a13*a24 + a14*a23 = 6 - 10 + 12
        assert pfaffian(ORDER4) == 8
        assert det_laplace(ORDER4.to_matrix()) == 64

    def test_zero_matrix(self):
        assert pfaffian(antisymmetric_from_upper(6, [0] * 15)) == 0

    def test_empty_order(self):
        assert pfaffian(AntisymmetricMatrix(0, ())) == 1

    def test_matches_matching_enumeration(self):
        # entry bound 1 leaves zeros in pivot rows, so these inputs also take
        # the elimination's partner-swap and zero-row branches
        for order, bound in product((2, 4, 6, 8), (9, 1)):
            skew = random_antisymmetric(trial_stream(42, order), order, bound)
            expected = pfaffian_matchings(skew.entry, range(1, order + 1))
            assert pfaffian(skew) == expected

    # one prime denominator per row of the upper triangle, so the clearing's
    # per-index multipliers differ; weight 6 of 7 zeros drives the partner-swap
    # and zero-row branches, as do entries in [-1, 1]
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    @pytest.mark.parametrize("zeros, bound", [(0, 9), (3, 1), (6, 9)])
    def test_rational_matches_matching_enumeration(self, order, zeros, bound):
        primes = (2, 3, 5, 7, 11, 13, 17, 19)
        for trial in range(3):
            gen = trial_stream(53, 100 * order + 10 * zeros + trial)
            upper = [
                Fraction(0 if gen.next_int(1, 7) <= zeros else gen.next_int(-bound, bound))
                / primes[i]
                for i, _ in combinations(range(order), 2)
            ]
            skew = antisymmetric_from_upper(order, upper)
            assert pfaffian(skew) == pfaffian_matchings(skew.entry, range(1, order + 1))

    def test_congruent_order_40(self):
        # S = B^T J B with J the block-diagonal standard form, so Pf(S) = det B
        n = 40
        b = random_matrix(trial_stream(51, 0), n, n, 9).entries
        upper = [
            sum(b[k][i] * b[k + 1][j] - b[k + 1][i] * b[k][j] for k in range(0, n, 2))
            for i, j in combinations(range(n), 2)
        ]
        skew = antisymmetric_from_upper(n, upper)
        assert pfaffian(skew) == det_bareiss(Matrix(n, n, b))
        assert pfaffian_square_residual(skew) == 0

    def test_congruent_rational_order_60(self):
        # B = N C^-1 with one denominator c_j per column, so S = B^T J B has
        # entries over c_i c_j and Pf(S) = det B; an inexact // would show here
        n = 60
        entries = random_matrix(trial_stream(54, 0), n, n, 9).entries
        num = [[v.numerator for v in row] for row in entries]
        gen = trial_stream(54, 1)
        c = [gen.next_int(1, 9) for _ in range(n)]
        upper = [
            Fraction(
                sum(num[k][i] * num[k + 1][j] - num[k + 1][i] * num[k][j] for k in range(0, n, 2)),
                c[i] * c[j],
            )
            for i, j in combinations(range(n), 2)
        ]
        b = Matrix.from_rows([[Fraction(num[k][j], c[j]) for j in range(n)] for k in range(n)])
        assert pfaffian(antisymmetric_from_upper(n, upper)) == det_bareiss(b)

    def test_square_residual(self):
        assert pfaffian_square_residual(antisymmetric_from_upper(2, [3])) == 0
        assert pfaffian_square_residual(ORDER4) == 0
        assert pfaffian_square_residual(antisymmetric_from_upper(6, [0] * 15)) == 0

    def test_square_property_random_orders(self):
        for trial in range(12):
            gen = trial_stream(43, trial)
            order = 2 * gen.next_int(1, 5)
            skew = random_antisymmetric(gen, order, 9)
            assert pfaffian_square_residual(skew) == 0

    def test_odd_order_skew_determinant_vanishes(self):
        gen = trial_stream(44, 0)
        for n in (3, 5, 7):
            upper = {(i, j): Fraction(gen.next_int(-9, 9)) for i, j in combinations(range(1, n + 1), 2)}
            full = Matrix.from_rows(
                [
                    [
                        upper[(i, j)] if i < j else (-upper[(j, i)] if j < i else 0)
                        for j in range(1, n + 1)
                    ]
                    for i in range(1, n + 1)
                ]
            )
            assert det_bareiss(full) == 0


class TestRecurrence:
    def test_base_case(self):
        skew = antisymmetric_from_upper(2, [3])
        full = skew.to_matrix()
        assert complementary_minor(full, (1, 2), (1, 2)) == 1
        assert det_laplace(full) == 9
        assert first_minor(full, 1, 2) == -3
        assert jacobi_recurrence_residual(skew) == 0

    def test_order_four_intermediates(self):
        full = ORDER4.to_matrix()
        assert complementary_minor(full, (1, 2), (1, 2)) == det_leibniz(
            Matrix.from_rows([[0, 6], [-6, 0]])
        ) == 36
        assert det_laplace(full) == 64
        minor = det_laplace(submatrix_delete(full, (1,), (2,)))
        assert minor * minor == 2304
        assert jacobi_recurrence_residual(ORDER4) == 0

    def test_zero_matrix(self):
        assert jacobi_recurrence_residual(antisymmetric_from_upper(4, [0] * 6)) == 0

    def test_rows_one_and_two_cleared_differently(self):
        # M_12^2 is over q_1^2, det * comp over q_12 * q: with row multipliers 6 and 70
        # those differ, so one shared denominator for both products would leave
        # M_12^2 * (m_1 / m_2 - 1) != 0 behind
        full = SKEW_PQ4.to_matrix()
        mults, _ = engines._integer_rows(full)
        assert mults[:2] == [6, 70]
        assert first_minor(full, 1, 2) != 0
        assert jacobi_recurrence_residual(SKEW_PQ4) == 0

    def test_rows_one_and_two_cleared_differently_under_a_fault(self, monkeypatch):
        # d -> d + d^3 breaks the identity; the residual must still be the exact
        # difference of the two products, each over its own denominator
        good = engines._bareiss

        def odd_fault(*args):
            d = good(*args)
            return d + d**3

        monkeypatch.setattr(engines, "_bareiss", odd_fault)
        full = SKEW_PQ4.to_matrix()
        m12 = first_minor(full, 1, 2)
        expected = complementary_minor(full, (1, 2), (1, 2)) * det_bareiss(full) - m12 * m12
        assert expected != 0
        assert jacobi_recurrence_residual(SKEW_PQ4) == expected

    def test_skew_minor_structure(self):
        skew = random_antisymmetric(trial_stream(45, 0), 8, 9)
        full = skew.to_matrix()
        assert first_minor(full, 1, 1) == 0
        assert first_minor(full, 2, 2) == 0
        assert first_minor(full, 1, 2) == -first_minor(full, 2, 1)

    def test_recursion_down_to_base(self):
        # the double-deleted minor stays antisymmetric, so the recurrence
        # walks all the way down to order 2
        skew = random_antisymmetric(trial_stream(46, 0), 10, 5)
        while skew.order >= 2:
            assert jacobi_recurrence_residual(skew) == 0
            core = submatrix_delete(skew.to_matrix(), (1, 2), (1, 2))
            if core.rows == 0:
                break
            skew = antisymmetric_from_matrix(core)


class TestEmbedding:
    def test_labels(self):
        assert embedding_labels(3) == ("1", "2", "3", "3*", "2*", "1*")

    def test_single_entry(self):
        embedded = determinant_embedding(Matrix.from_rows([[5]]))
        assert embedded.to_matrix() == Matrix.from_rows([[0, 5], [-5, 0]])
        assert pfaffian(embedded) == 5

    def test_two_by_two_closed_form(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        # labels (1, 2, 2*, 1*): pf = (1,2)(2*,1*) - (1,2*)(2,1*) + (1,1*)(2,2*)
        embedded = determinant_embedding(m)
        b = embedded.entry
        assert (
            b(1, 2) * b(3, 4) - b(1, 3) * b(2, 4) + b(1, 4) * b(2, 3)
            == 0 - 2 * 3 + 1 * 4
            == -2
        )
        assert pfaffian(embedded) == det_leibniz(m) == -2

    def test_matches_oracle_n3(self):
        m = random_matrix(trial_stream(47, 0), 3, 3, 9)
        assert pfaffian(determinant_embedding(m)) == det_laplace(m)

    def test_matches_oracle_up_to_n5(self):
        for n in range(1, 6):
            m = random_matrix(trial_stream(48, n), n, n, 9)
            assert pfaffian(determinant_embedding(m)) == det_laplace(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant_embedding(Matrix.from_rows([[1, 2]]))


class TestEmbeddedMinor:
    def test_first_minor_pair(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert embedded_minor(m, {"1", "2*"}) == first_minor(m, 1, 2) == 3
        assert embedded_minor(m, {"1", "1*"}) == first_minor(m, 1, 1) == 4

    def test_double_minor(self):
        m = random_matrix(trial_stream(49, 0), 3, 3, 9)
        assert embedded_minor(m, {"1", "2", "1*", "2*"}) == complementary_minor(
            m, (1, 2), (1, 2)
        ) == m.at(3, 3)

    @staticmethod
    def _matchings_oracle(m, removal):
        """Pfaffian over the labels left after ``removal``, by perfect matchings.

        The label list and its pair rule (plain i against starred j* is a_ij,
        like kinds are 0) are written out here, apart from the package.
        """
        n = m.rows
        labels = [str(i) for i in range(1, n + 1)] + [f"{i}*" for i in range(n, 0, -1)]

        def pair(p, q):
            x, y = labels[p], labels[q]
            if x.endswith("*") == y.endswith("*"):
                return Fraction(0)
            if x.endswith("*"):
                return -m.at(int(y), int(x[:-1]))
            return m.at(int(x), int(y[:-1]))

        return pfaffian_matchings(pair, [p for p, x in enumerate(labels) if x not in removal])

    def test_all_correspondences_exact(self):
        for n in (1, 2, 3, 4):  # at n = 1, {"1", "1*"} leaves the order-0 Pfaffian, 1
            num = random_matrix(trial_stream(50, n), n, n, 9)
            den = random_matrix(trial_stream(52, n), n, n, 4)
            matrices = [
                num,
                # p/q entries: denominators in [1, 9]
                Matrix.from_rows(
                    [[num.at(i, j) / (5 + den.at(i, j)) for j in range(1, n + 1)]
                     for i in range(1, n + 1)]
                ),
                # entries in [-1, 1]: zero pivots drive the partner swap
                random_matrix(trial_stream(51, n), n, n, 1),
            ]
            for m in matrices:
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        removal = {str(i), f"{j}*"}
                        value = embedded_minor(m, removal)
                        assert value == first_minor(m, i, j)
                        assert value == self._matchings_oracle(m, removal)
                for i, j in combinations(range(1, n + 1), 2):
                    removal = {str(i), str(j), f"{i}*", f"{j}*"}
                    value = embedded_minor(m, removal)
                    assert value == complementary_minor(m, (i, j), (i, j))
                    assert value == self._matchings_oracle(m, removal)

    @pytest.mark.parametrize(
        "removal",
        [
            {"1", "2"},  # two plain labels
            {"1*", "2*"},  # two starred labels
            {"1"},  # wrong size
            {"1", "2", "1*", "3*"},  # quadruple not twinned
            {"1", "5*"},  # out of range for a 2x2
            {"x", "1*"},  # malformed
            {"１", "2*"},  # full-width digit one
            {"²", "2*"},  # superscript two: isdigit() but not int()
        ],
    )
    def test_malformed_removals(self, removal):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            embedded_minor(m, removal)

    @pytest.mark.parametrize(
        "digit", ["１", "²", pytest.param("7" * 4301, id="4301-digit-label")]
    )
    def test_non_ascii_digit_label_is_malformed(self, digit):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="malformed label"):
            embedded_minor(m, {digit, "2*"})


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: ORDER4.entry(0, 1), IndexError, "index (0,1) out of range", id="entry-0"
        ),
        pytest.param(
            lambda: antisymmetric_from_matrix(Matrix.from_rows([[0, 1, 2], [-1, 0, 3]])),
            ValueError,
            "must be square, got 2x3",
            id="from-matrix-2x3",
        ),
        pytest.param(
            lambda: jacobi_recurrence_residual(antisymmetric_from_upper(0, [])),
            ValueError,
            "recurrence needs order >= 2",
            id="recurrence-order-0",
        ),
        pytest.param(
            lambda: embedding_labels(-1),
            ValueError,
            "label count must be >= 0",
            id="labels-negative",
        ),
        pytest.param(
            lambda: embedded_minor(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]), {"1", "1*"}),
            ValueError,
            "embedding requires a square matrix, got 2x3",
            id="embedded-minor-2x3",
        ),
        pytest.param(
            lambda: embedded_minor(Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]]),
                                   {"1", "2", "1*", "3*"}),
            ValueError,
            "must pair two plain labels with their starred twins",
            id="quadruple-not-twinned",
        ),
    ],
)
def test_validation_errors(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
