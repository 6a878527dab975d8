"""Three determinant engines plus minor and cofactor accessors.

``det_laplace`` is the ground-truth oracle, independent of the workhorses: a
``Fraction`` cofactor expansion memoized by column subset (exponential, n * 2^(n-1)
products; the CLI stops it at n=7).  Every other determinant and minor comes from
``_minors``, one table per matrix that clears its denominators once (the one call of
``_integer_rows``) and caches each minor as an integer elimination over the product of
its kept rows' multipliers.  ``complementary_minor`` is the one public accessor that
reads it: ``det_bareiss``, ``first_minor`` and ``signed_cofactor`` delegate to it and
inherit its index checks, and it builds one ``Fraction`` from the pair; the residual
kernels combine the integers themselves.  A minor copies its slice of the cleared rows
and eliminates it (``_Minors._slice``).  The table alone serves the half-determinants
det(core | r of the 2r chosen columns) of a splitting choice (``_Minors.halves``): each
is a signed minor, and those it lacks share one core elimination, run at most once per
choice, that leaves an r x 2r block; each finishes as the r x r elimination of its
columns of that block.  The five minors of a Jacobi pair {i, j} need no slice of
their own: eliminating every other index with principal pivots leaves them in a 2 x 2
block over its last pivot, and one recursion over halves of the indices serves every
pair in O(n^3) cell updates (``_Minors.pairs``), which only writes them into the table;
``_Minors.pair`` reads a pair's five minors, and eliminates as fresh slices those a zero
pivot left unwritten.
``det_dodgson`` condenses the table's own cleared rows and hands a block with a zero
interior to ``_bareiss``; it visits blocks in the order of a memoized recursion but
drops a block once the block it is the interior of has condensed, so O(n^2) blocks
are live, not ~n^3/3.  All engines agree exactly.

A fresh minor (``det_bareiss`` among them) is eliminated in ``_Minors.__missing__``,
the one place that may split an elimination across two processes: from order
``_SPLIT_MIN_ORDER`` = 64 up, when ``os.fork`` exists, two CPUs are usable and no other
thread runs, a forked worker takes every other column, and the two send each other the
next pivot column over one socket pair, so the value is the serial one bit for bit
(``_split``).  Every other elimination is serial: Dodgson's fallback blocks
(``_bareiss``), the splitting cores, the halves' finishes and the pair recursion
(``_pairs``).  The split stays rather than Bareiss's two-step elimination alone, which
was bit-identical but slower on the benchmark's large determinants (about 4.45 against
5.2 operations per second on 2 vCPUs) and peaked higher (19.4 against 17.8 MB RSS).

Minor conventions: ``first_minor`` and ``complementary_minor`` are unsigned
(plain determinants after deletion); signs live only in ``signed_cofactor``.
"""

from __future__ import annotations

import marshal
import os
import threading
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import lcm, prod
from typing import Iterable

from .core import Matrix, _quote_indices, _Record, index_set


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

    The minor that deletes nothing (``complementary_minor``): the table clears each
    row's denominators, ``_bareiss`` eliminates in pure integer arithmetic with exact
    interior divisions, and the row multipliers are divided back at the end.
    """
    return complementary_minor(matrix, (), ())


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
    of one splitting choice, and writes back as minors those it had to compute;
    ``pairs`` writes the five minors of Jacobi pairs, and ``pair`` reads them.

    The table keeps the cleared integer rows.  A minor and a core elimination each copy
    their own slice of them (``_slice``) and eliminate it; nothing mutates the rows, so
    readers on several threads may share a table: at worst two of them compute the same
    minor, with the same value."""

    def __init__(self, matrix: Matrix) -> None:
        self.mults, self.rows = _integer_rows(matrix)
        self.n_rows = matrix.rows
        self.n_cols = matrix.cols

    def _slice(
        self, drop_rows: tuple[int, ...], drop_cols: tuple[int, ...], chosen: tuple[int, ...] = ()
    ) -> tuple[int, list[list[int]]]:
        """The kept rows' product of multipliers, and a fresh copy of the kept rows (all
        but ``drop_rows``) over the kept columns (all but ``drop_cols``) with the
        ``chosen`` columns appended.  Each half of the slice, r of the chosen columns
        appended to the kept ones, must be square."""
        n_rows, n_cols = self.n_rows, self.n_cols
        keep_rows = [i for i in range(n_rows) if i + 1 not in drop_rows]
        keep_cols = [j for j in range(n_cols) if j + 1 not in drop_cols]
        if len(keep_rows) + len(drop_rows) + len(keep_cols) + len(drop_cols) != n_rows + n_cols:
            raise IndexError(
                f"rows {_quote_indices(drop_rows)} or columns {_quote_indices(drop_cols)} out of "
                f"range for the {n_rows}x{n_cols} matrix"
            )
        if len(keep_rows) - len(keep_cols) != len(chosen) // 2:
            raise ValueError(
                f"the {n_rows}x{n_cols} matrix minus rows {_quote_indices(drop_rows)}, "
                f"columns {_quote_indices(drop_cols)} is not square"
            )
        cols = keep_cols + [c - 1 for c in chosen]
        work = [[row[j] for j in cols] for row in [self.rows[i] for i in keep_rows]]
        return prod(self.mults[i] for i in keep_rows), work

    def __missing__(self, key: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple[int, int]:
        q, work = self._slice(*key)
        split = len(work) >= _SPLIT_MIN_ORDER and _can_split()
        value = self[key] = _split(work) if split else _bareiss(work), q
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
        Halves the table lacks share one core elimination: the slice of the kept rows
        over the core columns with the chosen ones appended (``_slice``), eliminated over
        the core columns only, swapping rows at a zero pivot (every half is 0 if a core
        column has no pivot).  Each entry of the r x 2r block left under the chosen
        columns is a bordered minor of the core that reads one chosen column, and the
        core steps and swaps do not depend on which r chosen columns are appended; so
        each half finishes as the r x r elimination of its columns of that block, bit
        for bit, and goes back into the table as a minor.  Each position set is read
        once: in a splitting sum it is the left side of one term and the right of
        another."""
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
            q, work = self._slice(drop_rows, cols, cols)
            depth = len(work) - r
            swaps, prev = _reduce(work, depth, 1)
            for left, key, append_sign in missing:
                columns = [[row[depth + p - 1] for p in left] for row in work[depth:]]
                value = half[left] = swaps * _bareiss(columns, prev) if swaps else 0
                self[key] = append_sign * value, q
        return q, half

    def pair(self, i: int, j: int) -> tuple[int, ...]:
        """The five minors of the pair {i, j}, (M_ii, M_jj, M_ij, M_ji, M_{ij,ij}, q_i *
        q_j): integers as the table holds them, and the one denominator of a product that
        keeps every row twice but i and j once.  The one reader of a pair's minors: those
        ``pairs`` wrote are read back, any other is eliminated as a fresh slice (so an
        index past the matrix raises its IndexError)."""
        m_ij, q_i = self[(i,), (j,)]
        m_ji, q_j = self[(j,), (i,)]
        pair = (i, j) if i < j else (j, i)
        m_pair, _ = self[pair, pair]
        m_ii, _ = self[(i,), (i,)]
        m_jj, _ = self[(j,), (j,)]
        return m_ii, m_jj, m_ij, m_ji, m_pair, q_i * q_j

    def pairs(self, indices: tuple[int, ...]) -> None:
        """Write the five minors of each pair i < j of the ascending ``indices`` into the
        table, for ``pair`` to read.  Recursive principal-pivot elimination (Griffin &
        Tsatsomeros, "Principal minors, Part I", 2006, fraction-free): an index set splits
        in halves, and each half, and the two halves together, get a copy of the block
        with every index outside them eliminated, down to a 2 x 2 block over the last
        pivot p.  A principal pivot order permutes rows and columns alike, so p is
        M_{ij,ij}, the diagonal M_jj and M_ii, and the off-diagonal M_ji and M_ij times
        (-1)^(i+j+1), each bit for bit the last step of its slice's own elimination
        (Sylvester's identity): O(n^3) cell updates for all pairs.  A single pair (i, j)
        is one leaf: its halves (i,) and (j,) hold no pair, so it is one elimination of
        every other index.  A zero pivot writes nothing for the pairs below it; ``pair``
        eliminates their minors as fresh slices."""
        every = tuple(range(1, self.n_rows + 1))
        self._pairs(every, self.rows, 1, (indices,), prod(self.mults))

    def _pairs(self, ix, block, prev, parts, total) -> None:
        """``pairs`` on the block over indices ``ix`` with last pivot ``prev``, for the
        pairs inside the one part of ``parts`` or across its two; ``total`` is the
        product of every row's multiplier."""
        if len(ix) == 2:
            (a, b), (c, d) = block
            i, j = ix
            q_i, q_j = total // self.mults[i - 1], total // self.mults[j - 1]
            sign = (-1) ** (i + j + 1)
            five = (d, a, sign * c, sign * b, prev)
            keys = ((i,), (i,)), ((j,), (j,)), ((i,), (j,)), ((j,), (i,)), ((i, j), (i, j))
            for key, value, q in zip(keys, five, (q_i, q_j, q_i, q_j, q_i // self.mults[j - 1])):
                self.setdefault(key, (value, q))
            return
        halves = [(p[: len(p) // 2], p[len(p) // 2 :]) if len(p) > 1 else (p,) for p in parts]
        if len(parts) == 1:
            # the pairs inside each half, then those across; a part of one index has none
            children = [halves[0][:1], halves[0][1:], halves[0]]
        else:
            children = list(product(*halves))
        for child in children:
            keep = set().union(*child)
            if len(keep) < 2:
                continue
            if len(keep) == len(ix):
                self._pairs(ix, block, prev, child, total)
                continue
            order = [p for p, x in enumerate(ix) if x not in keep]
            drop = len(order)
            order += [p for p, x in enumerate(ix) if x in keep]
            work = [[block[r][c] for c in order] for r in order]
            reached, last = _eliminate(work, 0, drop, prev)
            if reached == drop:
                kept = tuple(ix[p] for p in order[drop:])
                self._pairs(kept, [row[drop:] for row in work[drop:]], last, child, total)


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
    the last pivot ``prev`` of the core elimination (``halves``) that ``work`` was sliced
    from, it finishes that slice's elimination instead and returns the slice's
    determinant, det(work) / prev^(order - 1).  A zero pivot swaps rows with sign
    tracking, and a pivotless column gives 0.  Always serial, for Dodgson's fallback
    blocks and the halves' finishes too: only a fresh minor of order
    ``_SPLIT_MIN_ORDER`` or more splits instead (``_Minors.__missing__``)."""
    sign, prev = _reduce(work, len(work), prev)
    return sign * prev


# the least order of a fresh minor that ``_Minors.__missing__`` splits in two processes.
# Measured on 2 vCPUs (medians of 10 alternating pairs): the split took 1.49x the
# serial time at order 40, 0.91x at 48, 0.77x at 60, 0.78x at 64 and 0.56x at 150,
# faster in 10 of 10 pairs from 56 up; below 64 it saves at most a few milliseconds
_SPLIT_MIN_ORDER = 64


def _can_split() -> bool:
    """Whether a second process can share an elimination: ``os.fork`` exists, two CPUs
    are usable, and no other thread runs (a forked child would hold only this one)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _split(work: list[list[int]]) -> int:
    """``_bareiss(work)`` on two processes.  The forked worker eliminates the odd
    columns and the caller the even ones (``_deal``), each sending the other the
    columns it needs over one socket pair.  The worker leaves only through
    ``os._exit``, so it never returns into the caller's frames or flushes inherited
    stdio, and it exits at its first read or write after the caller is gone.  The
    caller reaps it on every path, killing it first when it leaves on an exception,
    and raises ``OSError`` when the worker is gone early (end of stream, a reset or a
    broken pipe)."""
    import socket

    caller, worker = socket.socketpair()
    with caller, worker:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                caller.close()
                _deal(work, 1, worker.makefile("rb"), worker)
                code = 0
            finally:
                os._exit(code)
        worker.close()
        try:
            with caller.makefile("rb") as reader:
                return _deal(work, 0, reader, caller)
        except (EOFError, ConnectionError):
            raise OSError("the other process of a split elimination exited") from None
        except BaseException:
            import signal  # only this path needs it, and it takes a millisecond to import

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.waitpid(pid, 0)


def _deal(work: list[list[int]], first: int, reader, peer) -> int:
    """One side of ``_split``: ``_reduce``'s steps on the columns ``first``, ``first``
    + 2, ... of ``work``, copied out and each held from the pivot row down.  At step k
    the side that owns column k has it; the other reads it from ``reader`` (column 0
    both sides copy).  Both then pick the same row swap from it, and each updates its
    own columns, column k + 1 first: its owner sends that one to ``peer`` as soon as it
    is done.  Returns the signed last pivot, 0 if a column has no pivot, as both sides
    find it."""
    n = len(work)
    own = {j: [row[j] for row in work] for j in range(first, n, 2)}
    column = [row[0] for row in work]
    sign = prev = 1
    for k in range(n):
        if k in own:
            column = own.pop(k)
        elif k:
            column = _receive(reader)
        if column[0] == 0:
            swap = next((i for i, x in enumerate(column) if x), 0)
            if not swap:
                return 0
            for c in (column, *own.values()):
                c[0], c[swap] = c[swap], c[0]
            sign = -sign
        pivot = column[0]
        factors = column[1:]
        for j, c in own.items():
            head = c[0]
            c = own[j] = [(x * pivot - f * head) // prev for x, f in zip(c[1:], factors)]
            if j == k + 1:
                _send(peer, c)
        prev = pivot
    return sign * prev


def _send(peer, column: list[int]) -> None:
    """Send ``column`` to the socket ``peer``: the length of its ``marshal`` encoding in
    8 bytes, then the encoding."""
    data = marshal.dumps(column)
    peer.sendall(len(data).to_bytes(8, "little") + data)


def _receive(reader) -> list[int]:
    """Read one column that ``_send`` sent, from the buffered ``reader`` of a socket;
    ``EOFError`` if the other side is gone, before the column or inside it."""

    def read(size: int) -> bytes:
        data = reader.read(size)
        if len(data) < size:
            raise EOFError
        return data

    return marshal.loads(read(int.from_bytes(read(8), "little")))


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
    contiguous blocks of the matrix's minor table's cleared rows (``_minors``), the
    rows every minor is sliced from, so each division is an exact ``//`` and the value
    is over the product of the table's multipliers; a block with a zero interior goes
    to ``_bareiss`` on a copy of its rows instead, and the first such fallback is
    recorded.  Neither ``_Blocks`` nor the table writes to those rows.  Each block is
    computed once and dropped once the block it is the interior of has condensed
    (``_Blocks``), so at most O(n^2) blocks are live.  Each level of the recursion nests a frame; an
    order too deep for the interpreter's recursion limit raises ValueError.
    """
    n = _require_square(matrix)
    if n < 1:
        raise ValueError("condensation requires n >= 1")
    minors = _minors(matrix)
    table = _Blocks(minors.rows)
    try:
        value = table[0, 0, n]
    except RecursionError:
        raise ValueError(
            f"condensation of order {n} nests deeper than the recursion limit allows"
        ) from None
    return DodgsonResult(Fraction(value, prod(minors.mults)), table.depth > 0, table.depth)


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
    return complementary_minor(matrix, (i,), (j,))


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
