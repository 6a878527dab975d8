import marshal
import os
import random
import signal
import socket
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import prod

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
    jacobi_residual,
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

    @staticmethod
    def _zero_led(seed, n):
        """p/q entries, with zeros at the first row's odd columns and its last one."""
        rows = [list(row) for row in seeded_rational(seed, n).entries]
        if n:
            for j in [*range(0, n, 2), n - 1]:
                rows[0][j] = Fraction(0)
        return Matrix.from_rows(rows)

    @pytest.mark.parametrize("n", range(8))
    def test_rational_with_zeros_matches_permutation_sum(self, n):
        m = self._zero_led(70 + n, n)
        assert det_laplace(m) == det_leibniz(m)

    def test_order_12_is_within_reach(self):
        # memoized by column subset: 12 * 2^11 products, where the plain
        # expansion would make ~12! = 4.8e8
        m = self._zero_led(82, 12)
        assert m.entries[0][0] == 0
        assert det_laplace(m) == det_bareiss(m) != 0


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

    # order 14 and below: the seeded(seed, n, bound) grid, seeds 0-299 and bounds 0-3;
    # order 30 and below: the structured matrices
    @pytest.mark.parametrize("n", range(1, 31))
    def test_identical_to_global_memo(self, n):
        anti = [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
        inputs = [Matrix.identity(n), Matrix.from_rows(anti),
                  Matrix.from_rows([[1] * n] * n), Matrix.from_rows([[0] * n] * n)]
        if n <= 14:
            inputs += [seeded(seed, n, bound) for seed in range(300) for bound in range(4)]
        seen = set()
        for m in inputs:
            if m.entries not in seen:
                seen.add(m.entries)
                assert det_dodgson(m) == _global_memo_dodgson(m), m.entries

    # beyond the grid: p/q entries, structured zeros, and orders up to the benchmark's
    # (-9..9 integers at 60, p/q with p in -9..9 and q in 1..9 at 48)
    WIDER = [
        *[pytest.param(lambda n=n: seeded_rational(700 + n, n), id=f"rational-{n}")
          for n in range(1, 11)],
        pytest.param(lambda: Matrix.from_rows(
            [[*row, *[0] * 4] for row in seeded(710, 4).entries]
            + [[*[0] * 4, *row] for row in seeded(711, 4).entries]), id="block-diagonal"),
        pytest.param(lambda: Matrix.from_rows(
            [[0] * 8 if i == 3 else row for i, row in enumerate(seeded(712, 8).entries)]),
            id="zero-row"),
        pytest.param(lambda: Matrix.from_rows(
            [[0 if j == 4 else v for j, v in enumerate(row)] for row in seeded(713, 8).entries]),
            id="zero-column"),
        pytest.param(lambda: Matrix.from_rows(
            [[int(j == (3 * i + 1) % 8) for j in range(8)] for i in range(8)]), id="permutation"),
        *[pytest.param(lambda n=n: seeded(n, n, 1), id=f"bound1-{n}") for n in range(20, 41)],
        pytest.param(lambda: seeded(60, 60), id="integer-60"),
        pytest.param(lambda: seeded_rational(48, 48), id="rational-48"),
    ]

    @pytest.mark.parametrize("build", WIDER)
    def test_identical_to_global_memo_beyond_the_grid(self, build):
        m = build()
        assert det_dodgson(m) == _global_memo_dodgson(m)

    # _bareiss calls made by the condensation, recorded with each zero-interior block
    # eliminated only when a condensation reads it as a corner, or as the whole matrix:
    # a block eliminated twice, or one no condensation reads, adds calls
    FALLBACK_CALLS = [((60, 60, 9), 258), ((61, 40, 1), 2207), (None, 1406)]

    @pytest.mark.parametrize("case, calls", FALLBACK_CALLS)
    def test_no_block_computed_twice(self, case, calls, monkeypatch):
        m = Matrix.identity(40) if case is None else seeded(*case)
        expected = det_bareiss(m)
        good = engines._bareiss
        made = []

        def counting(work, *args):
            made.append(len(work))
            return good(work, *args)

        monkeypatch.setattr(engines, "_bareiss", counting)
        assert det_dodgson(m).value == expected
        assert len(made) == calls

    def test_live_blocks_stay_quadratic(self):
        # every block held for the whole run peaked at ~10 MB here
        m = seeded(60, 60)
        tracemalloc.start()
        try:
            det_dodgson(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @pytest.mark.parametrize("n, zero", [(60, False), (400, True)], ids=["identity-60", "zero-400"])
    def test_zero_heavy_blocks_stay_small(self, n, zero):
        # the unknown blocks' flags are one byte each, and a row of unknown blocks is one
        # shared tuple; flags kept as sets of tuples peaked at 7.3 MB on the identity
        m = Matrix.from_rows([[0] * n] * n) if zero else Matrix.identity(n)
        tracemalloc.start()
        try:
            result = det_dodgson(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.value == (0 if zero else 1)
        assert peak < 4_000_000

    def test_rejects_empty(self):
        # the 0 x 0 matrix is not refused: it condenses through the size-0 base case to 1,
        # the value every engine gives it
        empty = Matrix.from_rows([])
        assert det_dodgson(empty) == DodgsonResult(Fraction(1), False, 0)
        assert det_dodgson(empty).value == det_bareiss(empty) == det_laplace(empty)

    def test_condenses_past_the_recursion_limit(self):
        # condensation nests no frames: order 200, which a recursion would nest ~100
        # frames deep, condenses under a limit 60 above this frame
        matrix = random_matrix(trial_stream(200, 0), 200, 200, 9)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            value = det_dodgson(matrix).value
        finally:
            sys.setrecursionlimit(limit)
        assert value == det_bareiss(matrix)

    def test_result_invariant_enforced(self):
        with pytest.raises(ValueError):
            DodgsonResult(Fraction(1), False, 2)


def _global_memo_dodgson(matrix):
    """Reference condensation: the same recursion, visit order and fallback rule, with
    every block memoized for the whole run."""
    n = matrix.rows
    mults, rows = engines._integer_rows(matrix)
    depth = 0

    @cache
    def block(r0, c0, size):
        nonlocal depth
        if size == 0:
            return 1
        if size == 1:
            return rows[r0][c0]
        interior = block(r0 + 1, c0 + 1, size - 2)
        if interior == 0:
            depth = depth or n - size + 1
            return engines._bareiss([row[c0 : c0 + size] for row in rows[r0 : r0 + size]])
        m11 = block(r0 + 1, c0 + 1, size - 1)
        mnn = block(r0, c0, size - 1)
        m1n = block(r0 + 1, c0, size - 1)
        mn1 = block(r0, c0 + 1, size - 1)
        return (m11 * mnn - m1n * mn1) // interior

    value = block(0, 0, n)
    return DodgsonResult(Fraction(value, prod(mults)), depth > 0, depth)


def test_engine_agreement_sweep():
    for seed in range(12):
        n = 2 + seed % 6
        m = seeded(200 + seed, n)
        reference = det_laplace(m)
        assert det_bareiss(m) == reference
        assert det_dodgson(m).value == reference


NON_SQUARE = {
    "det_laplace": det_laplace,
    "det_bareiss": det_bareiss,
    "det_dodgson": det_dodgson,
    "complementary_minor": lambda m: complementary_minor(m, (), ()),
    "first_minor": lambda m: first_minor(m, 1, 1),
}


@pytest.mark.parametrize("name", sorted(NON_SQUARE))
def test_non_square_diagnostic(name):
    with pytest.raises(ValueError, match=r"^determinant requires a square matrix, got 2x3$"):
        NON_SQUARE[name](Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_engines_safe_for_concurrent_use():
    matrices = [seeded(300 + i, 4) for i in range(16)]
    sequential = [det_bareiss(m) for m in matrices]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(det_bareiss, matrices))
    assert concurrent == sequential
    # four readers share one table, so they read and write the same minors; the
    # splitting halves also write back into it while the others read
    pairs = [(i, j) for i in range(1, 13) for j in range(1, 13)]
    rng = random.Random(316)
    choices = [
        (tuple(sorted(rng.sample(range(1, 13), r))), tuple(sorted(rng.sample(range(1, 13), 2 * r))))
        for r in (1, 2, 3)
        for _ in range(8)
    ]
    tasks = [("minor", ij) for ij in pairs] + [("halves", choice) for choice in choices]

    def run(matrix, task):
        kind, args = task
        if kind == "minor":
            return first_minor(matrix, *args)
        return engines._minors(matrix).halves(*args)

    alone = seeded(316, 12)
    sequential = [run(alone, task) for task in tasks]
    shared = Matrix.from_rows(alone.entries)
    table = engines._minors(shared)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(lambda task: run(shared, task), tasks * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == sequential * 4
    # a slice or a split that wrote into the table's cleared rows would change these
    table.clear()
    assert [run(shared, task) for task in tasks] == sequential


ORACLE_ORDER = 7  # the largest slice the Laplace oracle checks, as the CLI's LAPLACE_LIMIT


class TestSharedPrefixes:
    """Every minor the table serves equals the Laplace oracle on its slice, over the
    product of its kept rows' multipliers; and a single Jacobi or splitting selection
    costs one elimination per minor it needs and peaks at one working copy."""

    @staticmethod
    def _deletions(n, rng):
        """Every deletion set of size <= 2 and 20 sampled ones of size 3 up to order 7;
        beyond it, 10 sampled ones of each size that leaves a slice of order <= 7."""

        def sampled(size):
            return tuple(sorted(rng.sample(range(1, n + 1), size)))

        if n > ORACLE_ORDER:
            sizes = range(n - ORACLE_ORDER, n + 1)
            return [(sampled(size), sampled(size)) for size in sizes for _ in range(10)]
        sets = [
            (rows, cols)
            for size in range(min(n, 2) + 1)
            for rows in combinations(range(1, n + 1), size)
            for cols in combinations(range(1, n + 1), size)
        ]
        if n >= 3:
            sets += [(sampled(3), sampled(3)) for _ in range(20)]
        return sets

    def _check(self, matrix, seed):
        table = engines._minors(matrix)
        mults, _ = engines._integer_rows(matrix)
        for rows, cols in self._deletions(matrix.rows, random.Random(seed)):
            value, q = table[rows, cols], table.q(rows)
            assert q == prod(m for i, m in enumerate(mults, 1) if i not in rows), (rows, cols)
            expected = det_laplace(submatrix_delete(matrix, rows, cols))
            assert Fraction(value, q) == expected, (rows, cols)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_seeded(self, n):
        self._check(seeded(700 + n, n), n)
        self._check(seeded_rational(720 + n, n), n)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
    def test_structured(self, n):
        anti = Matrix.from_rows([[int(i + j == n - 1) for j in range(n)] for i in range(n)])
        # singular: the last row is the sum of the others (zero at order 1)
        rows = [list(row) for row in seeded(760 + n, n).entries]
        rows[-1] = [sum(row[j] for row in rows[:-1]) for j in range(n)]
        for m in (Matrix.identity(n), anti, Matrix.from_rows(rows)):
            self._check(m, n)

    def test_jacobi_selection_builds_each_step_once(self, monkeypatch):
        # one elimination of every index but i and j (70209 cell updates) and det's own
        # (70210), not five eliminations of the pair's minors through the table
        good_eliminate = engines._eliminate
        updates = []

        def counted(work, k, stop, prev):
            reached, last = good_eliminate(work, k, stop, prev)
            updates.extend((len(work) - t - 1) * (len(work[t]) - t - 1) for t in range(k, reached))
            return reached, last

        monkeypatch.setattr(engines, "_eliminate", counted)
        assert jacobi_residual(seeded(60, 60), 24, 59) == 0
        assert sum(updates) == 140_419

    def test_jacobi_selection_peaks_at_one_working_copy(self):
        # ~0.19 MB here: the cleared rows and one working copy of them; keeping a snapshot
        # at every step of one elimination would hold ~3 MB
        m = seeded(60, 60)
        tracemalloc.start()
        try:
            assert jacobi_residual(m, 30, 31) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600_000

    def test_splitting_selection_peaks_at_one_working_copy(self):
        # ~0.19 MB here: the cleared rows and one core slice; keeping a snapshot at every
        # step of one elimination would hold ~3 MB
        m = seeded(60, 60)
        tracemalloc.start()
        try:
            assert generalized_pluecker_residual(m, (1, 56), (11, 14, 50, 56)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600_000


class TestPrincipalPairs:
    """The Jacobi recursion writes the five minors of every pair, over the whole sweep
    and as the one-leaf case of a single pair, and every minor it writes, and every pair
    read back, equals a fresh table's, over the same denominator, bit for bit."""

    @staticmethod
    def _inputs(n):
        rows = [list(row) for row in seeded(800 + n, n).entries]
        zero_diagonal = [[v * (i != j) for j, v in enumerate(row)] for i, row in enumerate(rows)]
        leading_zero = [
            [v * (i > 1 or j > 1) for j, v in enumerate(row)] for i, row in enumerate(rows)
        ]
        trailing_zero = [row[::-1] for row in leading_zero[::-1]]
        singular = rows[:-1] + [[sum(col) for col in zip(*rows[:-1])]]
        yield Matrix.from_rows(rows)
        yield seeded_rational(820 + n, n)
        yield Matrix.identity(n)
        for other in (zero_diagonal, leading_zero, trailing_zero, singular):
            yield Matrix.from_rows(other)

    @staticmethod
    def _keys(i, j):
        return ((i,), (i,)), ((j,), (j,)), ((i,), (j,)), ((j,), (i,)), ((i, j), (i, j))

    @pytest.mark.parametrize("n", range(2, 15))
    def test_match_a_fresh_table(self, n, monkeypatch):
        # right after ``pairs``, before any read: a recursion that met no zero pivot
        # (``_eliminate`` reached every step it was asked for) has written the five
        # minors of each of its pairs; the identity never meets one
        good = engines._eliminate
        stopped = []

        def watched(work, k, stop, prev):
            reached, last = good(work, k, stop, prev)
            stopped.append(reached < stop)
            return reached, last

        monkeypatch.setattr(engines, "_eliminate", watched)
        every = tuple(range(1, n + 1))
        for m in self._inputs(n):
            fresh = engines._Minors(m)
            swept = engines._Minors(m)
            single = engines._Minors(m)
            stopped.clear()
            assert swept.pairs(every) is None
            assert any(stopped) or all(
                key in swept for i, j in combinations(every, 2) for key in self._keys(i, j)
            )
            assert m != Matrix.identity(n) or not any(stopped)
            assert all(fresh[key] == value for key, value in swept.items())
            for i, j in combinations(every, 2):
                stopped.clear()
                single.pairs((i, j))
                assert any(stopped) or all(key in single for key in self._keys(i, j)), (i, j)
                expected = fresh.pair(i, j)
                assert swept.pair(i, j) == expected, (i, j)
                assert single.pair(i, j) == expected, (i, j)
            for table in (swept, single):
                assert all(fresh[key] == value for key, value in table.items())


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
        # read as index sets, as complementary_minor reads them: 0 is no index at all
        with pytest.raises(ValueError, match="index sets hold positive integers, got 0"):
            first_minor(GOLDEN, 0, 1)
        with pytest.raises(IndexError):
            first_minor(GOLDEN, 1, 4)

    @pytest.mark.parametrize("index", [True, 1.0])
    def test_first_minor_refuses_non_integer_indices(self, index):
        # the index-set check complementary_minor applies
        for args in ((index, 2), (2, index)):
            with pytest.raises(ValueError, match=f"positive integers, got {index!r}"):
                first_minor(GOLDEN, *args)

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

        def odd_fault(*args):
            d = good(*args)
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


def _one_step(work, k, stop, prev):
    """The one-step Bareiss loop that ``engines._eliminate``'s two-step form replaced,
    kept as the reference it must match: return value and every cell of ``work``."""
    height = len(work)
    for k in range(k, stop):
        row_k = work[k]
        pivot = row_k[k]
        if pivot == 0:
            return k, prev
        width = len(row_k)
        for i in range(k + 1, height):
            row_i = work[i]
            factor = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return stop, prev


class TestTwoStepElimination:
    @staticmethod
    def _inputs(n):
        """20 seeded n x w integer blocks, each with a step to start from: w is n, n + 1
        or n + 2 (a splitting core is wider than high); five have entries in -1..1, where
        zero pivots are common; and in every other one, row z repeats row z - 1 on its
        first z + 1 columns, so the pivot at step z is 0, for z one or two steps past the
        start: the second pivot of the first pair, or the first of the next."""
        for seed in range(20):
            rng = random.Random(1000 * n + seed)
            bound = 1 if seed < 5 else 9
            rows = [[rng.randint(-bound, bound) for _ in range(n + seed % 3)] for _ in range(n)]
            start = rng.randrange(n)
            z = start + 1 + seed // 2 % 2
            if seed % 2 and z < n:
                rows[z][: z + 1] = rows[z - 1][: z + 1]
            yield rows, start

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_one_step(self, n):
        # from the step the reference reaches towards the start, over its last pivot, as
        # ``_pairs`` continues a block, to every stop; ``seen`` names what the grid met
        seen = set()
        for rows, start in self._inputs(n):
            k, prev = _one_step(rows, 0, start, 1)
            for stop in range(k, n + 1):
                expected = [row[:] for row in rows]
                got = [row[:] for row in rows]
                reached, last = _one_step(expected, k, stop, prev)
                assert engines._eliminate(got, k, stop, prev) == (reached, last)
                assert got == expected, (k, stop)
                if k and prev != 1:
                    seen.add("continued")
                if len(rows[0]) > n:
                    seen.add("wide")
                if k < reached < stop:
                    # the zero pivot is the first or the second of a pair of steps
                    seen.add(("first", "second")[(reached - k) % 2])
        if n >= 4:
            assert seen == {"continued", "wide", "first", "second"}


def _serial(rows):
    """The one-process elimination of a copy of ``rows``."""
    sign, last = engines._reduce([row[:] for row in rows], len(rows), 1)
    return sign * last


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_split = pytest.mark.skipif(
    not engines._can_split(), reason="no os.fork or fewer than two usable CPUs"
)


@pytest.fixture
def split(monkeypatch):
    """Every fresh minor of order 2 or more splits; the forks made are counted."""
    monkeypatch.setattr(engines, "_SPLIT_MIN_ORDER", 2)
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


# (rows, determinant, or None for the Laplace oracle's): a zero leading pivot at step 0
# (the caller's column) and at step 1 (the worker's); no pivot in column 0, and none in
# column 1 once column 0 is eliminated; the identity; J - I, whose determinant is
# (-1)^(n-1) (n-1); a circulant with a zero diagonal; at odd order 7, a singular leading
# 2 x 2 block (the second pivot of the first pair, at step 1 in the worker's column, is
# 0, so one step is taken) and rows 4 and 5 equal on their first 5 columns (the same at
# step 4 in the caller's column), which leaves the last column single
SPECIAL = [
    ([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 1, 2], [3, 4, 5, 7]], None),
    ([[1, 2, 3, 4], [2, 4, 5, 6], [3, 7, 1, 2], [4, 1, 5, 9]], None),
    ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),
    ([[1, 2, 3], [2, 4, 5], [3, 6, 7]], 0),
    ([[int(i == j) for j in range(12)] for i in range(12)], 1),
    ([[int(i != j) for j in range(9)] for i in range(9)], 8),
    ([[(i - j) % 5 for j in range(7)] for i in range(7)], None),
    (
        [[1, 2, 3, 4, 5, 6, 7], [2, 4, 1, 5, 9, 2, 6], [3, 1, 4, 1, 5, 9, 2],
         [6, 5, 3, 5, 8, 9, 7], [6, 5, 3, 5, 8, 3, 2], [9, 3, 2, 3, 8, 4, 6],
         [2, 6, 4, 3, 3, 8, 3]],
        None,
    ),
]


@needs_split
class TestSplitElimination:
    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_equals_serial(self, split, n, rational):
        matrix = seeded_rational(n, n) if rational else seeded(n, n)
        _, rows = engines._integer_rows(matrix)
        assert engines._split([row[:] for row in rows]) == _serial(rows)
        assert split == [os.getpid()]
        _no_child_left()

    @pytest.mark.parametrize("rows, det", SPECIAL)
    def test_special_matrices(self, split, rows, det):
        value = engines._split([row[:] for row in rows])
        assert len(split) == 1
        _no_child_left()
        assert value == _serial(rows)
        assert value == (det_laplace(Matrix.from_rows(rows)) if det is None else det)

    @pytest.mark.parametrize("n", range(2, ORACLE_ORDER + 1))
    def test_det_matches_laplace(self, split, n):
        matrix = seeded_rational(40 + n, n)
        assert det_bareiss(matrix) == det_laplace(matrix)
        assert len(split) == 1
        _no_child_left()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_caller_exception_kills_and_reaps_the_worker(self, split, monkeypatch, error):
        caller = os.getpid()
        receive = engines._receive
        calls = []

        def failing(fd):
            if os.getpid() == caller:
                calls.append(fd)
                if len(calls) == 3:
                    raise error("receive failed")
            return receive(fd)

        monkeypatch.setattr(engines, "_receive", failing)
        _, rows = engines._integer_rows(seeded(7, 12))
        with pytest.raises(error, match="receive failed"):
            engines._split([row[:] for row in rows])
        assert len(calls) == 3
        _no_child_left()

    def test_worker_exit_fails_the_caller(self, split, monkeypatch):
        caller = os.getpid()
        send = engines._send

        def dying(fd, column):
            if os.getpid() != caller:
                os._exit(1)
            send(fd, column)

        monkeypatch.setattr(engines, "_send", dying)
        _, rows = engines._integer_rows(seeded(8, 12))
        with pytest.raises(OSError, match="other process of a split elimination exited"):
            engines._split([row[:] for row in rows])
        _no_child_left()

    @pytest.mark.parametrize("seam", ["_send", "_receive"])
    def test_worker_exit_mid_transfer_fails_the_caller(self, split, monkeypatch, seam):
        # the worker exits after a column's 8-byte length but before its body, or at its
        # first read: the caller's next read meets a reset, or its send a broken pipe
        caller = os.getpid()
        good = getattr(engines, seam)

        def dying(*args):
            if os.getpid() != caller:
                if seam == "_send":
                    peer, column = args
                    peer.sendall(len(marshal.dumps(column)).to_bytes(8, "little"))
                os._exit(1)
            return good(*args)

        monkeypatch.setattr(engines, seam, dying)
        _, rows = engines._integer_rows(seeded(8, 12))
        with pytest.raises(OSError, match="other process of a split elimination exited"):
            engines._split([row[:] for row in rows])
        _no_child_left()

    def test_columns_outgrow_the_socket_buffers(self, split, monkeypatch):
        # both sides send one column per pair of steps; if each could wait in a send for
        # the other to read, columns larger than the socket buffers would deadlock them
        good_pair, good_send = socket.socketpair, engines._send
        room, sent = [], []

        def small_pair():
            ends = good_pair()
            for end in ends:
                end.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                end.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            # what one direction holds unread: one end's send buffer, the other's receive
            room.append(sum(end.getsockopt(socket.SOL_SOCKET, size) for end, size in
                            zip(ends, (socket.SO_SNDBUF, socket.SO_RCVBUF))))
            return ends

        def measured(peer, column):
            sent.append(len(marshal.dumps(column)))
            good_send(peer, column)

        def hung(signum, frame):
            raise TimeoutError("the split elimination hung")

        monkeypatch.setattr(socket, "socketpair", small_pair)
        monkeypatch.setattr(engines, "_send", measured)
        rng = random.Random(24)
        rows = [[rng.randint(-(10**400), 10**400) for _ in range(24)] for _ in range(24)]
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            assert engines._split([row[:] for row in rows]) == _serial(rows)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        _no_child_left()
        assert max(sent) > max(room)

    def test_only_a_fresh_minor_forks(self, split):
        # Dodgson's fallback blocks, the halves' core elimination and finishes stay serial
        assert det_dodgson(Matrix.identity(6)).value == 1
        vectors = [(1, 2), (3, 5), (7, 4), (2, 9)]
        assert three_term_residual(Matrix(2, 0, ((), ())), *vectors) == 0
        assert split == []
        matrix = seeded_rational(47, 6)
        assert det_bareiss(matrix) == det_laplace(matrix)
        assert split == [os.getpid()]
        _no_child_left()


def test_split_waits_for_a_lone_thread(monkeypatch):
    # a forked child would hold only the calling thread, so no fork while another runs
    monkeypatch.setattr(engines, "_SPLIT_MIN_ORDER", 2)

    def refuse():
        raise AssertionError("forked while a second thread was alive")

    monkeypatch.setattr(os, "fork", refuse)
    matrix = seeded(9, 12)
    _, rows = engines._integer_rows(matrix)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert engines._Minors(matrix)[(), ()] == _serial(rows)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
