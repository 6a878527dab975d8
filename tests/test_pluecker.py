import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactdet import (
    Matrix,
    augment_columns,
    complementary_minor,
    generalized_pluecker_residual,
    pluecker_sum,
    pluecker_terms,
    split_enumeration,
    three_term_residual,
)
from exactdet import engines, pluecker
from exactdet.randgen import random_matrix, random_vector, trial_stream

from oracles import det_leibniz, permutation_parity

EMPTY_TWO = Matrix.from_rows([[], []], cols=0)
VEC_A, VEC_B = (1, 0), (0, 1)
VEC_C, VEC_D = (1, 1), (1, -1)


class TestSplitEnumeration:
    def test_r1(self):
        terms = split_enumeration(1)
        assert [(t.left, t.right, t.sign) for t in terms] == [
            ((1,), (2,), -1),
            ((2,), (1,), 1),
        ]

    def test_r2_first_term_and_count(self):
        terms = split_enumeration(2)
        assert len(terms) == 6
        assert (terms[0].left, terms[0].right, terms[0].sign) == ((1, 2), (3, 4), -1)

    def test_r3_count(self):
        assert len(split_enumeration(3)) == 20

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            split_enumeration(0)

    def test_returned_list_is_the_callers_own(self):
        """The splittings are built once per order; mutating a returned list leaves
        the next call and the next sweep unchanged."""
        m = random_matrix(trial_stream(3, 0), 6, 6, 9)
        before = [(t.left, t.right, t.sign) for t in split_enumeration(3)]
        residual = generalized_pluecker_residual(m, (1, 2, 3), (1, 2, 3, 4, 5, 6))
        terms = split_enumeration(3)
        terms.reverse()
        del terms[1:]
        terms.append(pluecker.SplitTerm((1, 2, 3), (1, 2, 3), 1))
        assert [(t.left, t.right, t.sign) for t in split_enumeration(3)] == before
        assert generalized_pluecker_residual(m, (1, 2, 3), (1, 2, 3, 4, 5, 6)) == residual
        assert split_enumeration(3) is not split_enumeration(3)

    def test_lexicographic_order_and_partition(self):
        for r in (1, 2, 3):
            terms = split_enumeration(r)
            lefts = [t.left for t in terms]
            assert lefts == sorted(lefts)
            for t in terms:
                assert tuple(sorted(t.left + t.right)) == tuple(range(1, 2 * r + 1))
                assert t.sign == (-1) ** sum(t.left)

    def test_involution_sign_product(self):
        # pairing each splitting with its mirror multiplies signs to (-1)^(r(2r+1))
        for r in (1, 2, 3):
            expected = (-1) ** (r * (2 * r + 1))
            by_left = {t.left: t for t in split_enumeration(r)}
            for t in by_left.values():
                mirror = by_left[t.right]
                assert t.sign * mirror.sign == expected


class TestPlueckerSum:
    def test_r1_two_term_cancellation(self):
        gen = trial_stream(1, 0)
        m = random_matrix(gen, 3, 2, 9)
        a1 = random_vector(gen, 3, 9)
        a2 = random_vector(gen, 3, 9)
        assert pluecker_sum(m, [a1, a2]) == 0

    def test_empty_core_instance(self):
        # the six half determinants, each re-derived by the permutation sum
        halves = {
            (VEC_A, VEC_B): 1,
            (VEC_C, VEC_D): -2,
            (VEC_A, VEC_C): 1,
            (VEC_B, VEC_D): -1,
            (VEC_A, VEC_D): -1,
            (VEC_B, VEC_C): -1,
        }
        for (u, w), expected in halves.items():
            assert det_leibniz(augment_columns(EMPTY_TWO, [u, w])) == expected
        assert pluecker_sum(EMPTY_TWO, [VEC_A, VEC_B, VEC_C, VEC_D]) == 0

    def test_repeated_vector_vanishes(self):
        gen = trial_stream(2, 0)
        m = random_matrix(gen, 4, 2, 9)
        v = random_vector(gen, 4, 9)
        w = random_vector(gen, 4, 9)
        x = random_vector(gen, 4, 9)
        assert pluecker_sum(m, [v, v, w, x]) == 0

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            pluecker_sum(Matrix.identity(2), [VEC_A, VEC_B])  # cols != n - r
        with pytest.raises(ValueError):
            pluecker_sum(EMPTY_TWO, [VEC_A, VEC_B, VEC_C])  # odd vector count
        with pytest.raises(ValueError):
            pluecker_sum(EMPTY_TWO, [(1, 0, 0), VEC_B, VEC_C, VEC_D])  # bad length

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_vanishes_on_random_integer_instances(self, r):
        for trial in range(10):
            gen = trial_stream(10 + r, trial)
            n = gen.next_int(r, 6)
            m = random_matrix(gen, n, n - r, 9)
            vectors = [random_vector(gen, n, 9) for _ in range(2 * r)]
            assert pluecker_sum(m, vectors) == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pluecker_sum_vanishes_over_rationals(data):
    r = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(r, 4))
    rationals = st.fractions(
        min_value=-4, max_value=4, max_denominator=5
    )
    m = Matrix.from_rows(
        [[data.draw(rationals) for _ in range(n - r)] for _ in range(n)], cols=n - r
    )
    vectors = [
        tuple(data.draw(rationals) for _ in range(n)) for _ in range(2 * r)
    ]
    assert pluecker_sum(m, vectors) == 0


class TestThreeTerm:
    def test_empty_core_instance(self):
        assert three_term_residual(EMPTY_TWO, VEC_A, VEC_B, VEC_C, VEC_D) == 0

    def test_repeated_vector(self):
        gen = trial_stream(3, 0)
        m = random_matrix(gen, 4, 2, 9)
        a = random_vector(gen, 4, 9)
        b = random_vector(gen, 4, 9)
        d = random_vector(gen, 4, 9)
        assert three_term_residual(m, a, b, a, d) == 0

    def test_three_by_one_instance(self):
        m = Matrix.from_rows([[1], [0], [0]])
        a, b = (0, 1, 0), (0, 0, 1)
        c, d = (0, 1, 1), (0, 1, -1)
        assert three_term_residual(m, a, b, c, d) == 0

    def test_exchange_still_vanishes(self):
        gen = trial_stream(4, 0)
        m = random_matrix(gen, 5, 3, 9)
        a, b, c, d = (random_vector(gen, 5, 9) for _ in range(4))
        assert three_term_residual(m, a, b, c, d) == 0
        assert three_term_residual(m, b, a, c, d) == 0

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            three_term_residual(Matrix.identity(3), VEC_A, VEC_B, VEC_C, VEC_D)

    def test_random_sweep(self):
        for trial in range(15):
            gen = trial_stream(5, trial)
            n = gen.next_int(2, 6)
            m = random_matrix(gen, n, n - 2, 9)
            vectors = [random_vector(gen, n, 9) for _ in range(4)]
            assert three_term_residual(m, *vectors) == 0


def test_one_core_elimination_per_choice(monkeypatch):
    """A choice runs one core elimination (``halves``) for all the halves the minor table
    lacks and finishes each of them once, as an r x r block; a choice whose halves are
    all in the table runs none.  At r = 3 each of the C(6, 3) = 20 halves is computed
    once, though it is the left side of one splitting and the right of another."""
    splits = []
    finished = []
    slice_ = engines._Minors._slice
    bareiss = engines._bareiss

    def counted_slice(table, drop_rows, drop_cols, chosen=()):
        if chosen:
            splits.append((drop_rows, drop_cols))
        return slice_(table, drop_rows, drop_cols, chosen)

    def counted_bareiss(work, *args):
        finished.append(len(work))
        return bareiss(work, *args)

    monkeypatch.setattr(engines._Minors, "_slice", counted_slice)
    monkeypatch.setattr(engines, "_bareiss", counted_bareiss)
    m = random_matrix(trial_stream(4, 0), 9, 9, 9)
    rows, cols = (2, 5, 7), (1, 3, 4, 6, 8, 9)
    assert generalized_pluecker_residual(m, rows, cols) == 0
    assert splits == [(rows, cols)]
    assert finished == [3] * 20
    assert generalized_pluecker_residual(m, rows, cols) == 0
    assert len(splits) == 1 and len(finished) == 20
    # two halves read as minors first: the split finishes only the other 18
    m = random_matrix(trial_stream(4, 1), 9, 9, 9)
    complementary_minor(m, rows, (1, 3, 4))
    complementary_minor(m, rows, (6, 8, 9))
    finished.clear()
    assert generalized_pluecker_residual(m, rows, cols) == 0
    assert splits == [(rows, cols)] * 2
    assert finished == [3] * 18


def _kinds(n, rng):
    """Square inputs of order n whose splitting choices take every path of ``halves``:
    integer, p/q, identity and sparse entries; ``repeated``, whose columns 1 and 2 are
    equal, so every core that keeps both is singular and all its halves are 0;
    ``leading``, whose leading 2 x 2 block is zero, so a core elimination that keeps
    its rows and columns has to swap rows; and ``trailing``, its mirror, whose trailing
    2 x 2 block is zero."""
    integer = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    repeated = [row[:] for row in integer]
    for row in repeated:
        row[1] = row[0]
    leading = [row[:] for row in integer]
    for row in leading[:2]:
        row[:2] = [0, 0]
    trailing = [row[:] for row in integer]
    for row in trailing[-2:]:
        row[-2:] = [0, 0]
    return {
        "integer": Matrix.from_rows(integer),
        "rational": Matrix.from_rows(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        ),
        "identity": Matrix.identity(n),
        "sparse": Matrix.from_rows(
            [[rng.choice((0, 0, 0, rng.randint(1, 9))) for _ in range(n)] for _ in range(n)]
        ),
        "repeated": Matrix.from_rows(repeated),
        "leading": Matrix.from_rows(leading),
        "trailing": Matrix.from_rows(trailing),
    }


def _reference(matrix, del_rows, cols):
    """By left position set: the minor a fresh elimination of the index-ordered slice of
    the cleared rows gives, and the column-append sign (the parity of core + appended
    columns); and the kept rows' denominator q."""
    mults, rows = engines._integer_rows(matrix)
    keep = [i for i in range(matrix.rows) if i + 1 not in del_rows]
    core = [j for j in range(1, matrix.cols + 1) if j not in cols]
    minors = {}
    for left in combinations(range(1, len(cols) + 1), len(cols) // 2):
        appended = core + [cols[p - 1] for p in left]
        ordered = [[rows[i][j - 1] for j in sorted(appended)] for i in keep]
        minors[left] = engines._bareiss(ordered), permutation_parity(appended)
    return minors, prod(mults[i] for i in keep)


def _assert_halves(matrix, del_rows, cols):
    """``halves`` is every index-ordered minor times its column-append sign, and the
    minor table holds each of those minors under its deletion key afterwards, over the
    table's denominator for the deleted rows."""
    table = engines._minors(matrix)
    half = table.halves(del_rows, cols)
    minors, q = _reference(matrix, del_rows, cols)
    assert half == {left: sign * minor for left, (minor, sign) in minors.items()}
    for left, (minor, _) in minors.items():
        right = tuple(c for p, c in enumerate(cols, 1) if p not in left)
        assert table.get((del_rows, right)) == minor
    assert table.q(del_rows) == q
    return half


class TestHalvesMatchMinors:
    """Each half a core elimination serves equals the index-ordered minor of its slice
    times the column-append sign, whether the table held it or the split made it."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_exhaustive(self, n):
        indices = range(1, n + 1)
        for matrix in _kinds(n, random.Random(n)).values():
            for r in range(1, n // 2 + 1):
                for rows in combinations(indices, r):
                    for cols in combinations(indices, 2 * r):
                        _assert_halves(matrix, rows, cols)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_sampled(self, n):
        rng = random.Random(100 + n)
        for matrix in _kinds(n, rng).values():
            for r in range(1, min(n // 2, 4) + 1):
                for _ in range(4):
                    rows = tuple(sorted(rng.sample(range(1, n + 1), r)))
                    cols = tuple(sorted(rng.sample(range(1, n + 1), 2 * r)))
                    _assert_halves(matrix, rows, cols)

    @staticmethod
    def _core_signs(monkeypatch):
        """The swap signs of the core eliminations, the only eliminations that stop short
        of the last row."""
        signs = []
        reduce = engines._reduce

        def recorded(work, stop, prev):
            sign, last = reduce(work, stop, prev)
            if stop < len(work):
                signs.append(sign)
            return sign, last

        monkeypatch.setattr(engines, "_reduce", recorded)
        return signs

    def test_singular_core(self, monkeypatch):
        matrix = _kinds(9, random.Random(9))["repeated"]
        # columns 1 and 2 both stay in the core: no pivot in its second column
        rows, cols = (4, 8), (3, 5, 6, 9)
        signs = self._core_signs(monkeypatch)
        assert not any(_assert_halves(matrix, rows, cols).values())
        assert signs == [0]

    def test_core_row_swap(self, monkeypatch):
        matrix = _kinds(9, random.Random(9))["leading"]
        rows, cols = (4, 8), (3, 5, 6, 9)
        signs = self._core_signs(monkeypatch)
        assert all(_assert_halves(matrix, rows, cols).values())
        assert len(signs) == 1 and signs[0] != 0

    @pytest.mark.parametrize("n, r", [(2, 1), (4, 1), (5, 2), (6, 3), (9, 2), (10, 3)])
    def test_appended_vectors(self, n, r):
        """``pluecker_sum(M, vectors)`` reads its halves as minors of M | all vectors,
        where every column-append sign is +."""
        rng = random.Random(200 + n)
        for matrix in _kinds(n, rng).values():
            m = Matrix.from_rows([row[: n - r] for row in matrix.entries], cols=n - r)
            vectors = [matrix.column_values(j) for j in range(n - r + 1, n + 1)]
            vectors += [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
            minors, _ = _reference(augment_columns(m, vectors), (), tuple(range(n - r + 1, n + r + 1)))
            assert all(sign == 1 for _, sign in minors.values())
            assert pluecker._half_dets(m, vectors)[1] == {
                left: minor for left, (minor, _) in minors.items()
            }
            assert pluecker_sum(m, vectors) == 0


@pytest.mark.parametrize("r, vacuous", [(1, True), (2, False), (3, True), (4, False)])
def test_odd_order_splitting_sum_vanishes_for_any_halves(r, vacuous):
    """Each splitting (L, R) pairs with (R, L), with the same product and signs whose
    product is (-1)^(r(2r+1)): the balanced sum cancels identically at odd r, so
    those orders check nothing, and only even orders constrain the halves."""
    gen = trial_stream(90 + r, 0)
    half = {t.left: gen.next_int(-99, 99) for t in split_enumeration(r)}
    assert (pluecker._splitting_sum(r, half) == 0) is vacuous


def test_splitting_sum_is_minus_two_of_three_term():
    """Term-level pin: each unordered splitting pair of the order-2 sum carries
    the matching three-term product twice, with the opposite sign."""
    gen = trial_stream(6, 0)
    m = random_matrix(gen, 4, 2, 9)
    vectors = [random_vector(gen, 4, 9) for _ in range(4)]

    def half(positions):
        return det_leibniz(augment_columns(m, [vectors[p - 1] for p in positions]))

    three_term_products = {
        frozenset([(1, 2), (3, 4)]): half((1, 2)) * half((3, 4)),
        frozenset([(1, 3), (2, 4)]): -half((1, 3)) * half((2, 4)),
        frozenset([(1, 4), (2, 3)]): half((1, 4)) * half((2, 3)),
    }
    paired: dict[frozenset, Fraction] = {}
    for term, value in pluecker_terms(m, vectors):
        key = frozenset([term.left, term.right])
        paired[key] = paired.get(key, Fraction(0)) + value
    assert set(paired) == set(three_term_products)
    for key, signed_product in three_term_products.items():
        assert paired[key] == -2 * signed_product
    assert sum(three_term_products.values()) == three_term_residual(m, *vectors) == 0


def test_matrix_too_short_for_the_splitting():
    with pytest.raises(ValueError, match="cannot host a splitting of order 2"):
        pluecker_sum(Matrix(1, 0, ((),)), [(1,), (2,), (3,), (4,)])
