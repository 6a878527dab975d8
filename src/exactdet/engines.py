"""Three determinant engines plus minor and cofactor accessors.

``det_laplace`` is the ground-truth oracle, independent of the workhorses: a
``Fraction`` cofactor expansion memoized by column subset (exponential, n * 2^(n-1)
products; the CLI stops it at n=7).  Every other determinant and minor comes from
``_minors``, one table per matrix that clears its denominators once and caches each
minor as an integer elimination over the product of its kept rows' multipliers;
the public accessors build one ``Fraction`` from that pair, and the residual kernels
combine the integers themselves.  A minor that deletes something does not eliminate
its slice from scratch: it resumes one of two eliminations of the whole matrix, one
in index order and one from the last row and column back, kept at the steps minors
asked for (``_Chain``), from the deepest step that touched only rows and columns the
slice keeps.  Each entry those steps leave is a bordered minor of the slice itself
(Sylvester's identity), so finishing the slice's part gives its determinant bit for
bit.  The table alone serves the half-determinants det(core | r of the 2r chosen
columns) of a splitting choice (``_Minors.halves``): each is a signed minor, and those
it lacks share one core elimination, run at most once per choice, that leaves an
r x 2r block; each finishes as the r x r elimination of its columns of that block.
Minors and core eliminations resume and slice by one rule (``_Minors._resume``).
``det_dodgson`` condenses on the same integer rows and hands a block with a zero
interior to ``_bareiss``; it visits blocks in the order of a memoized recursion but
drops a block once the block it is the interior of has condensed, so O(n^2) blocks
are live, not ~n^3/3.  All engines agree exactly.

Minor conventions: ``first_minor`` and ``complementary_minor`` are unsigned
(plain determinants after deletion); signs live only in ``signed_cofactor``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm, prod
from typing import Iterable

from .core import Matrix, _Record, index_set


class DodgsonResult(_Record):
    """Condensation outcome: value plus fallback instrumentation.

    ``fallback_depth`` is the condensation level at which a zero interior
    divisor first forced a Bareiss fallback (the full matrix sits at level 1,
    a size-s block at level n-s+1); it is 0 when no fallback occurred.
    """

    __slots__ = __match_args__ = ("value", "fallback_used", "fallback_depth")

    def __init__(self, value: Fraction, fallback_used: bool, fallback_depth: int) -> None:
        if not fallback_used and fallback_depth != 0:
            raise ValueError("fallback_depth must be 0 when no fallback occurred")
        super().__init__(value, fallback_used, fallback_depth)


def _require_square(matrix: Matrix) -> int:
    if not matrix.is_square:
        raise ValueError(f"determinant requires a square matrix, got {matrix.rows}x{matrix.cols}")
    return matrix.rows


def det_laplace(matrix: Matrix) -> Fraction:
    """Determinant by first-row cofactor expansion, memoized by column subset.

    Serves as the oracle for the other engines.  The bottom k rows over a column
    set have one determinant, expanded along their first row: n * 2^(n-1) products
    instead of ~n!, still exponential, so callers keep it to
    n <= cli.LAPLACE_LIMIT = 7 by policy.  det of the 0x0 matrix is 1.
    """
    n = _require_square(matrix)
    rows = matrix.entries

    @cache
    def bottom(cols: tuple[int, ...]) -> Fraction:
        if not cols:
            return Fraction(1)
        first = rows[n - len(cols)]
        total = Fraction(0)
        for p, j in enumerate(cols):
            pivot = first[j]
            if pivot == 0:
                continue
            term = pivot * bottom(cols[:p] + cols[p + 1 :])
            total += term if p % 2 == 0 else -term
        return total

    return bottom(tuple(range(n)))


def det_bareiss(matrix: Matrix) -> Fraction:
    """Fraction-free Bareiss determinant, exact over the rationals.

    The minor that deletes nothing: ``_integer_rows`` clears each row's
    denominators, ``_bareiss`` eliminates in pure integer arithmetic with exact
    interior divisions, and the row multipliers are divided back at the end.
    """
    _require_square(matrix)
    return Fraction(*_minors(matrix)[(), ()])


def _integer_rows(matrix: Matrix) -> tuple[list[int], list[list[int]]]:
    """Each row times the lcm of its denominators, and those per-row multipliers."""
    mults: list[int] = []
    rows: list[list[int]] = []
    for row in matrix.entries:
        mult = 1
        for v in row:
            mult = lcm(mult, v.denominator)
        mults.append(mult)
        rows.append([v.numerator * (mult // v.denominator) for v in row])
    return mults, rows


# the last matrix asked about, held strongly so no new object reuses its id, and its table
_held: tuple[Matrix | None, _Minors | None] = (None, None)


def _minors(matrix: Matrix) -> _Minors:
    """The matrix's one minor table, kept while callers ask about this same object (by
    identity: no lookup hashes the entries; a freshly parsed matrix is cleared afresh)."""
    global _held
    held, table = _held
    if held is not matrix:
        table = _Minors(matrix)
        _held = (matrix, table)
    return table


class _Minors(dict):
    """A matrix's minor table.  ``table[drop_rows, drop_cols]`` deletes those ascending
    1-based rows and columns and is the pair (integer elimination of the slice, product
    of its kept rows' multipliers), whose quotient is the minor; the denominator depends
    on the deleted rows alone.  An index past the matrix deletes nothing, so the counts
    expose it (IndexError).  ``halves`` reads, signs and finishes the half-determinants
    of one splitting choice, and writes back as minors those it had to compute.

    A minor and a core elimination both start from one resume step (``_resume``).  It
    resumes a ``_Chain``: the elimination of the cleared rows in index order, or of the
    rows with rows and columns both reversed, whichever has more steps in common with
    the slice's own elimination: the forward chain the steps before the first deleted
    index, the reversed one the steps after the last, each up to its stop.  Deleting
    nothing resumes the forward chain at step 0, the cleared rows themselves: one fresh
    elimination that stores no snapshot.  Each chain is memory the table keeps: about
    n^3 / 3 integers at worst.  Readers on several threads may share a table: at worst
    two of them compute the same minor, with the same value."""

    def __init__(self, matrix: Matrix) -> None:
        self.mults, rows = _integer_rows(matrix)
        self.n_rows = matrix.rows
        self.n_cols = matrix.cols
        self.forward = _Chain(rows, flip=False)
        self.backward = _Chain(rows, flip=True)

    def _resume(
        self, drop_rows: tuple[int, ...], drop_cols: tuple[int, ...], chosen: tuple[int, ...] = ()
    ) -> tuple[int, int, list[list[int]], int]:
        """The slice of the kept rows (all but ``drop_rows``) over the kept columns (all
        but ``drop_cols``), with the ``chosen`` columns appended, as it stands after the
        steps it shares with the deeper chain.  Returns (q, sign, work, prev): the kept
        rows' product of multipliers, the sign (-1)^(s * r) of the permutation that
        moves the s rows and columns the reversed chain eliminated first to the front
        (r = kept rows - kept columns, so +1 for a square minor and for the forward
        chain), a fresh copy of the slice and the chain's last pivot.  Each half of the
        slice, r of the chosen columns appended to the kept ones, must be square."""
        n_rows, n_cols = self.n_rows, self.n_cols
        keep_rows = [i for i in range(n_rows) if i + 1 not in drop_rows]
        keep_cols = [j for j in range(n_cols) if j + 1 not in drop_cols]
        if len(keep_rows) + len(drop_rows) + len(keep_cols) + len(drop_cols) != n_rows + n_cols:
            raise IndexError(
                f"rows {drop_rows} or columns {drop_cols} out of range for "
                f"the {n_rows}x{n_cols} matrix"
            )
        r = len(keep_rows) - len(keep_cols)
        if r != len(chosen) // 2:
            raise ValueError(
                f"the {n_rows}x{n_cols} matrix minus rows {drop_rows}, "
                f"columns {drop_cols} is not square"
            )
        # the steps each chain shares with the slice's own elimination, as far as the chain
        # goes: the indices before the first deleted one, and those after the last (none
        # for either chain if nothing is deleted)
        ahead = min(min(drop_rows + drop_cols, default=1) - 1, self.forward.stop)
        behind = min(
            n_rows - max(drop_rows, default=n_rows),
            n_cols - max(drop_cols, default=n_cols),
            self.backward.stop,
        )
        chain = self.forward if ahead >= behind else self.backward
        step, block, prev = chain[max(ahead, behind)]
        if step < min(ahead, behind):
            # the chain has just found its stop, short of the other chain: ask again (each
            # chain finds its stop once, so this happens at most twice)
            return self._resume(drop_rows, drop_cols, chosen)
        # a block holds the rows and columns from its step on (up to the last minus its
        # step, if reversed), and the slice keeps all the ones before (after) it
        lo = 0 if chain.flip else step
        rows_at = keep_rows[lo : lo + len(keep_rows) - step]
        cols_at = keep_cols[lo : lo + len(keep_cols) - step] + [c - 1 for c in chosen]
        work = [[block[i - lo][j - lo] for j in cols_at] for i in rows_at]
        sign = -1 if chain.flip and step * r % 2 else 1
        return prod(self.mults[i] for i in keep_rows), sign, work, prev

    def __missing__(self, key: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple[int, int]:
        q, sign, work, prev = self._resume(*key)
        value = self[key] = sign * _bareiss(work, prev), q
        return value

    def halves(
        self, drop_rows: tuple[int, ...], cols: tuple[int, ...]
    ) -> tuple[int, dict[tuple[int, ...], int]]:
        """The half-determinants of one splitting choice, over their one denominator.

        The core deletes ``drop_rows`` and all 2r chosen ``cols``.  Returns (q, half):
        ``half[positions]`` = q * det(core | the chosen columns at those positions) as an
        integer, and q the kept rows' product of multipliers, which every half shares, so
        any product of two halves is an integer over q^2.  Each half is the minor that
        deletes the rows and the other chosen columns, times the column-append sign
        (-1)^#{(x, y) : x a core column, y appended, x > y}, and is read from the table.
        Halves the table lacks share one core elimination: the kept rows over the core
        columns with the chosen ones appended, resumed (``_resume``) and eliminated over
        the core columns only, swapping rows at a zero pivot (every half is 0 if a core
        column has no pivot).  Each entry of the r x 2r block left under the chosen
        columns is a bordered minor of the core that reads one chosen column, and the
        core steps and swaps do not depend on which r chosen columns are appended; so
        each half finishes as the r x r elimination of its columns of that block, bit
        for bit, and goes back into the table as a minor.  Each position set is read
        once: in a splitting sum it is the left side of one term and the right of
        another.  The chain's snapshots are copied, never mutated."""
        r = len(cols) // 2
        # the chosen column at position p has n - c_p columns after it, 2r - p of them
        # chosen: the positions that flip the sign an odd number of times
        odd = {p for p, c in enumerate(cols, 1) if (self.n_cols - c - 2 * r + p) % 2}
        half = {}
        missing = []
        # position sets in lexicographic order, and their complements' columns: taking
        # complements reverses that order
        rights = reversed(list(combinations(cols, r)))
        for left, right in zip(combinations(range(1, 2 * r + 1), r), rights):
            key = drop_rows, right
            sign = -1 if len(odd.intersection(left)) % 2 else 1
            found = self.get(key)
            if found is None:
                missing.append((left, key, sign))
            else:
                value, q = found
                half[left] = sign * value
        if missing:
            q, sign, work, prev = self._resume(drop_rows, cols, cols)
            depth = len(work) - r
            swaps, prev = _reduce(work, depth, prev)
            for left, key, append_sign in missing:
                columns = [[row[depth + p - 1] for p in left] for row in work[depth:]]
                value = half[left] = sign * swaps * _bareiss(columns, prev) if swaps else 0
                self[key] = append_sign * value, q
        return q, half


class _Chain(dict):
    """One Bareiss elimination of a matrix's integer ``rows`` (of the rows with rows and
    columns both reversed if ``flip``), kept only at the steps minors asked for.

    ``chain[k]`` is (s, block, prev): the block left after s steps, in index order, and
    its last pivot prev, the leading (trailing, if ``flip``) s x s minor (1 at s = 0,
    where the block is ``rows`` itself).  The block holds rows and columns s onward (all
    but the last s, if ``flip``).  A miss copies the deepest stored snapshot before it
    (reversed while it eliminates, if ``flip``), runs the steps between and stores the
    result only under the step s it reached.  After s steps each entry of the block is a
    bordered minor of the pivot block (Sylvester's identity, which holds for a pivot
    block in either corner), built only from rows and columns that any slice keeping the
    pivot block's rows and columns keeps too.  So those s steps are the ones an
    elimination of such a slice that starts with them makes, with the same values, and
    finishing the slice's part of the block over prev gives its determinant bit for bit:
    this memoizes identical steps and derives no minor through an identity.

    The chain stops at its first zero pivot (``stop``), because the row swap there
    depends on which rows the slice keeps; a deeper request gets that step's snapshot
    (``_Minors._resume`` asks no deeper once the stop is known, so no alias is stored),
    and the slice's own elimination makes the swap.  Snapshots are never mutated, so
    readers on several threads may share a chain; at worst two build the same one.
    """

    def __init__(self, rows: list[list[int]], flip: bool) -> None:
        self.flip = flip
        self.stop = len(rows)
        self[0] = (0, rows, 1)

    def __missing__(self, depth: int) -> tuple[int, list[list[int]], int]:
        base = depth - 1
        while base not in self:
            base -= 1
        step, block, prev = self[base]
        work = [row[::-1] for row in reversed(block)] if self.flip else [row[:] for row in block]
        done, prev = _eliminate(work, 0, depth - base, prev)
        step += done
        if step < depth:
            self.stop = step
        if self.flip:
            block = [row[done:][::-1] for row in reversed(work[done:])]
        else:
            block = [row[done:] for row in work[done:]]
        return self.setdefault(step, (step, block, prev))


def _eliminate(work: list[list[int]], k: int, stop: int, prev: int) -> tuple[int, int]:
    """Bareiss steps k, ..., stop - 1 on ``work`` in place, the last pivot so far being
    ``prev``: each row below the pivot row becomes (row * pivot - factor * pivot row)
    // prev, an exact division, and its pivot-column entry 0, which frees the integer
    there as the elimination goes.  Stops at the first zero pivot; returns the step it
    reached and the last pivot."""
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


def _reduce(work: list[list[int]], stop: int, prev: int) -> tuple[int, int]:
    """Bareiss steps 0, ..., stop - 1 on ``work`` in place, the last pivot so far being
    ``prev``; a zero pivot swaps in the first row below with a nonzero entry there.
    Returns the sign of the swaps, 0 if a column has no pivot, and the last pivot."""
    sign = 1
    k = 0
    while True:
        k, prev = _eliminate(work, k, stop, prev)
        if k == stop:
            return sign, prev
        for i in range(k + 1, len(work)):
            if work[i][k] != 0:
                work[k], work[i] = work[i], work[k]
                sign = -sign
                break
        else:
            return 0, prev


def _bareiss(work: list[list[int]], prev: int = 1) -> int:
    """Determinant of a square integer matrix, eliminated in place (1 if empty).  Given
    the last pivot ``prev`` of a ``_Chain`` snapshot or a core block (``halves``) that
    ``work`` was sliced from, it finishes that slice's elimination instead and returns
    the slice's determinant, det(work) / prev^(order - 1).  A zero pivot swaps rows with sign
    tracking, and a pivotless column gives 0."""
    sign, prev = _reduce(work, len(work), prev)
    return sign * prev


class _Blocks(dict):
    """``det_dodgson``'s block table: ``table[r0, c0, size]`` is the integer determinant
    of the contiguous size x size block at 0-based row r0 and column c0 of ``rows``.

    A miss condenses the block from its interior and its four corners, in that order,
    or hands it to ``_bareiss`` when the interior is zero and records the level of the
    first such fallback in ``depth``.  After a condensation the interior is dropped.
    Besides this block, only the block's four corners read that interior, and the
    block has just asked for all four, so nothing asks for it again.  A zero interior
    stays, because its block never asked for its corners.  Blocks on the border are the
    interior of no block and stay too, so the table holds about 2n^2 blocks plus those
    still being condensed, not all ~n^3/3.
    """

    def __init__(self, rows: list[list[int]]) -> None:
        self.rows = rows
        self.depth = 0

    def __missing__(self, key: tuple[int, int, int]) -> int:
        r0, c0, size = key
        if size < 2:
            value = self.rows[r0][c0] if size else 1
        else:
            r1 = r0 + 1
            c1 = c0 + 1
            inner = (r1, c1, size - 2)
            interior = self[inner]
            if interior == 0:
                self.depth = self.depth or len(self.rows) - size + 1
                value = _bareiss([row[c0 : c0 + size] for row in self.rows[r0 : r0 + size]])
            else:
                corner = size - 1
                m11 = self[r1, c1, corner]
                mnn = self[r0, c0, corner]
                m1n = self[r1, c0, corner]
                mn1 = self[r0, c1, corner]
                value = (m11 * mnn - m1n * mn1) // interior
                del self[inner]
        self[key] = value
        return value


def det_dodgson(matrix: Matrix) -> DodgsonResult:
    """Determinant by condensation on the two-by-two corner-minor recurrence.

    Each square block B of size s >= 2 satisfies

        det B = (M11 * Mnn - M1n * Mn1) / interior

    where the M's are the corner minors of size s-1 and ``interior`` is the
    central minor of size s-2 (det of the 0x0 block is 1).  The recursion visits
    contiguous blocks of the integer rows that ``det_bareiss`` eliminates, so each
    division is an exact ``//``; a block with a zero interior goes to ``_bareiss``
    instead, and the first such fallback is recorded.  Each block is computed once
    and dropped once the block it is the interior of has condensed (``_Blocks``), so
    at most O(n^2) blocks are live.  Each level of the recursion nests a frame; an
    order too deep for the interpreter's recursion limit raises ValueError.
    """
    n = _require_square(matrix)
    if n < 1:
        raise ValueError("condensation requires n >= 1")
    mults, rows = _integer_rows(matrix)
    table = _Blocks(rows)
    try:
        value = table[0, 0, n]
    except RecursionError:
        raise ValueError(
            f"condensation of order {n} nests deeper than the recursion limit allows"
        ) from None
    return DodgsonResult(Fraction(value, prod(mults)), table.depth > 0, table.depth)


def complementary_minor(
    matrix: Matrix, rows: Iterable[int], cols: Iterable[int]
) -> Fraction:
    """Unsigned minor from the matrix's ``_minors`` table, deleting a row and a column set.

    Deleting nothing gives det(A), everything 1 (empty determinant convention).
    The sets must have equal size; an index past the matrix raises IndexError.
    """
    _require_square(matrix)
    return Fraction(*_minors(matrix)[index_set(rows), index_set(cols)])


def first_minor(matrix: Matrix, i: int, j: int) -> Fraction:
    """Unsigned first minor: determinant with row i and column j deleted."""
    _require_square(matrix)
    return Fraction(*_minors(matrix)[(i,), (j,)])


def signed_cofactor(
    matrix: Matrix, rows: Iterable[int], cols: Iterable[int]
) -> Fraction:
    """Generalized cofactor: (-1)^(sum of deleted indices) times the minor."""
    drop_rows = index_set(rows)
    drop_cols = index_set(cols)
    minor = complementary_minor(matrix, drop_rows, drop_cols)
    if (sum(drop_rows) + sum(drop_cols)) % 2:
        return -minor
    return minor
