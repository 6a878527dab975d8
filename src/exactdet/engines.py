"""Three determinant engines plus minor and cofactor accessors.

``det_laplace`` is the ground-truth oracle, independent of the workhorses: a
``Fraction`` cofactor expansion memoized by column subset (exponential, n * 2^(n-1)
products; the CLI stops it at n=7).  Every other determinant and minor comes from
``_minors``, one table per matrix that clears its denominators once (the one call of
``_integer_rows``) and caches each minor as the integer elimination of its slice, over
one denominator that only ``_Minors.q`` computes.  Every reader of the table returns
integers alone (``halves`` a choice's signed halves, ``pair`` a pair's five minors); a
caller that needs a value asks ``q`` for its denominator.  ``complementary_minor`` is
the one public accessor that reads it: ``det_bareiss``, ``first_minor`` and
``signed_cofactor`` delegate to it and inherit its index checks, and it builds one
``Fraction``; the residual batches combine the integers themselves and ask ``q`` only
for a nonzero residual.  A minor copies its slice of the cleared rows and eliminates it
(``_Minors._slice``).  The table alone serves the half-determinants det(core | r of the
2r chosen columns) of a splitting choice that its formula names (``_Minors.halves``):
each is a signed minor, and those it lacks share one core elimination, run at most once
per choice, that leaves an r x 2r block; each finishes as the r x r elimination of its
columns of that block.  The five minors of a Jacobi pair {i, j} need no slice of their
own: eliminating every other index with principal pivots
leaves them in a 2 x 2 block over its last pivot, and one recursion over halves of the
indices serves every pair in O(n^3) cell updates (``_Minors.pairs``), which only writes
them into the table; ``_Minors.pair`` reads a pair's five minors, and eliminates as
fresh slices those a zero pivot left unwritten.
``det_dodgson`` condenses the table's cleared rows level by level and eliminates a
zero-interior block (``_bareiss``) only when a condensation reads it.  All engines agree.

A fresh minor (``det_bareiss`` among them) is eliminated in ``_Minors.__missing__``,
the one place that may split an elimination across two processes: from order
``_SPLIT_MIN_ORDER`` = 64 up, when ``os.fork`` exists, two CPUs are usable and no other
thread runs, the caller and a forked worker each run ``_reduce`` and take alternate
pairs of rows; before each pair of steps the owner of the two pivot rows sends them to
the other over one socket pair, and each side runs ``_eliminate`` on them and its own
rows, so the value is the serial one bit for bit (``_split``).  Every other elimination
is serial: Dodgson's fallback blocks (``_bareiss``), the splitting cores, the halves'
finishes and the pair recursion (``_pairs``).  ``_eliminate`` is the one loop that
takes Bareiss's steps, two at a time, bit for bit what single steps give, and
``_reduce`` the one rule that swaps rows at a zero pivot.

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
from operator import itemgetter
from typing import Iterable

from .core import Matrix, _quote_indices, _Record, index_set


class DodgsonResult(_Record):
    """Condensation outcome: value plus fallback instrumentation.

    ``fallback_depth`` is the level of the first block with a zero interior in the
    top-down recursion's visit order (the full matrix sits at level 1, a size-s block
    at level n-s+1); it is 0 when no interior is zero.
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
    1-based rows and columns and is the integer elimination of the slice; the minor is
    that integer over ``q(drop_rows)``, which depends on the deleted rows alone.  An
    index past the matrix deletes nothing, so the counts expose it (IndexError).
    ``halves`` reads, signs and finishes the half-determinants of one splitting choice,
    and writes back as minors those it had to compute; ``pairs`` writes the five minors
    of Jacobi pairs, and ``pair`` reads them.

    The table keeps the cleared integer rows.  A minor and a core elimination each copy
    their own slice of them (``_slice``) and eliminate it; nothing mutates the rows, so
    readers on several threads may share a table: at worst two of them compute the same
    minor, with the same value."""

    def __init__(self, matrix: Matrix) -> None:
        self.mults, self.rows = _integer_rows(matrix)
        self.n_rows = matrix.rows
        self.n_cols = matrix.cols

    def q(self, drop_rows: tuple[int, ...]) -> int:
        """The denominator of every minor that deletes ``drop_rows``: the product of the
        kept rows' multipliers."""
        return prod(m for i, m in enumerate(self.mults, 1) if i not in drop_rows)

    def _slice(
        self, drop_rows: tuple[int, ...], drop_cols: tuple[int, ...], chosen: tuple[int, ...] = ()
    ) -> list[list[int]]:
        """A fresh copy of the kept rows (all but ``drop_rows``) over the kept columns (all
        but ``drop_cols``) with the ``chosen`` columns appended.  Each half of the slice, r
        of the chosen columns appended to the kept ones, must be square."""
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
        return [[row[j] for j in cols] for row in [self.rows[i] for i in keep_rows]]

    def __missing__(self, key: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
        work = self._slice(*key)
        split = len(work) >= _SPLIT_MIN_ORDER and _can_split()
        value = self[key] = _split(work) if split else _bareiss(work)
        return value

    def halves(
        self,
        drop_rows: tuple[int, ...],
        cols: tuple[int, ...],
        positions: Iterable[tuple[int, ...]] | None = None,
    ) -> dict[tuple[int, ...], int]:
        """The half-determinants of one splitting choice at the position sets
        ``positions`` (every set of r of the positions 1..2r by default), as integers.

        The core deletes ``drop_rows`` and all 2r chosen ``cols``.  ``half[positions]`` =
        q * det(core | the chosen columns at those positions), with q = ``q(drop_rows)``,
        which every half shares, so any product of two halves is an integer over q^2.
        Each half is the minor that deletes the rows and the other chosen columns, times
        the column-append sign (-1)^#{(x, y) : x a core column, y appended, x > y}, and
        is read from the table.  Halves the table lacks share one core elimination: the
        slice of the kept rows over the core columns with the chosen ones appended
        (``_slice``), eliminated over the core columns only, swapping rows at a zero
        pivot (every half is 0 if a core column has no pivot).  Each entry of the r x 2r
        block left under the chosen columns is a bordered minor of the core that reads
        one chosen column, and the core steps and swaps do not depend on which r chosen
        columns are appended; so each half finishes as the r x r elimination of its
        columns of that block, bit for bit, and goes back into the table as a minor.
        The position sets, their bit masks and their complements come from one table per
        order (``_position_sets``)."""
        r = len(cols) // 2
        sets = _position_sets(r)
        # the chosen column c at 0-based position p has n - c columns after it, 2r - p - 1
        # of them chosen: bit p marks an odd count of core columns, which flips the sign
        odd, base = 0, self.n_cols + 1
        for p, c in enumerate(cols):
            if (base - c + p) % 2:
                odd |= 1 << p
        half = {}
        missing = []
        for left in sets if positions is None else positions:
            mask, deleted = sets[left]
            key = drop_rows, deleted(cols)
            found = self.get(key)
            negative = (odd & mask).bit_count() % 2
            if found is None:
                missing.append((left, key, -1 if negative else 1))
            else:
                half[left] = -found if negative else found
        if missing:
            work = self._slice(drop_rows, cols, cols)
            depth = len(work) - r
            swaps, prev = _reduce(work, depth, 1)
            for left, key, append_sign in missing:
                columns = [[row[depth + p - 1] for p in left] for row in work[depth:]]
                value = half[left] = swaps * _bareiss(columns, prev) if swaps else 0
                self[key] = append_sign * value
        return half

    def pair(self, i: int, j: int) -> tuple[int, int, int, int, int]:
        """The five minors of the pair i < j, (M_ii, M_jj, M_ij, M_ji, M_{ij,ij}), as the
        integers the table holds.  The one reader of a pair's minors: those ``pairs``
        wrote are read back, any other is eliminated as a fresh slice."""
        m_ii, m_jj = self[(i,), (i,)], self[(j,), (j,)]
        return m_ii, m_jj, self[(i,), (j,)], self[(j,), (i,)], self[(i, j), (i, j)]

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
        self._pairs(every, self.rows, 1, (indices,))

    def _pairs(self, ix, block, prev, parts) -> None:
        """``pairs`` on the block over indices ``ix`` with last pivot ``prev``, for the
        pairs inside the one part of ``parts`` or across its two."""
        if len(ix) == 2:
            (a, b), (c, d) = block
            i, j = ix
            sign = (-1) ** (i + j + 1)
            five = (d, a, sign * c, sign * b, prev)
            keys = ((i,), (i,)), ((j,), (j,)), ((i,), (j,)), ((j,), (i,)), ((i, j), (i, j))
            for key, value in zip(keys, five):
                self.setdefault(key, value)
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
                self._pairs(ix, block, prev, child)
                continue
            order = [p for p, x in enumerate(ix) if x not in keep]
            drop = len(order)
            order += [p for p, x in enumerate(ix) if x in keep]
            work = [[block[r][c] for c in order] for r in order]
            reached, last = _eliminate(work, 0, drop, prev)
            if reached == drop:
                kept = tuple(ix[p] for p in order[drop:])
                self._pairs(kept, [row[drop:] for row in work[drop:]], last, child)


@cache
def _position_sets(r: int) -> dict[tuple[int, ...], tuple[int, itemgetter]]:
    """Every set of r of the positions 1..2r of a splitting choice's chosen columns, in
    lexicographic order, mapped to its bit mask (bit p - 1 for position p) and a getter of
    the chosen columns at its complement's positions, as a tuple: the columns its half
    deletes (at r = 1 a one-item slice, since a one-index getter returns no tuple)."""
    universe = range(1, 2 * r + 1)
    sets = {}
    for left in combinations(universe, r):
        rest = [p - 1 for p in universe if p not in left]
        getter = itemgetter(*rest) if r > 1 else itemgetter(slice(rest[0], rest[0] + 1))
        sets[left] = sum(1 << (p - 1) for p in left), getter
    return sets


def _eliminate(work: list[list[int]], k: int, stop: int, prev: int) -> tuple[int, int]:
    """Bareiss steps k, ..., stop - 1 on ``work`` in place, the last pivot so far being
    ``prev``, two at a time (Bareiss, Math. Comp. 22, 1968): Sylvester's identity on the
    3 x 3 bordered minors, three products and one exact division per entry where two
    single steps take four and two.  Row k + 1 takes step k, as in one step, and its
    pivot p2 is the next; each row i below it becomes (a_ij p2 - a_{k+1,j} c1 + a_kj c2)
    // prev from the values before the pair, with c1 = (a_kk a_{i,k+1} - a_{k,k+1} a_ik)
    // prev and c2 = (a_{k+1,k} a_{i,k+1} - a_{k+1,k+1} a_ik) // prev.  A zero p2, or an
    odd ``stop`` - k at the end, takes step k alone: each row below the pivot row
    becomes (row * pivot - factor * pivot row) // prev.  Each eliminated entry becomes
    0, which frees its integer as the elimination goes, and ``work`` ends bit for bit as
    single steps leave it.  Stops at the first zero pivot; returns the step it reached
    and the last pivot."""
    height = len(work)
    while k < stop:
        row_k = work[k]
        pivot = row_k[k]
        if pivot == 0:
            return k, prev
        width = len(row_k)
        k1, k2 = k + 1, k + 2
        p2 = 0
        if k1 < stop:
            row_1 = work[k1]
            b0, b1, a1 = row_1[k], row_1[k1], row_k[k1]
            p2 = (b1 * pivot - b0 * a1) // prev
        if p2 == 0:
            for i in range(k1, height):
                row_i = work[i]
                factor = row_i[k]
                for j in range(k1, width):
                    row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
                row_i[k] = 0
            return k1, pivot
        old = row_1[:]
        for j in range(k2, width):
            row_1[j] = (old[j] * pivot - b0 * row_k[j]) // prev
        row_1[k], row_1[k1] = 0, p2
        for i in range(k2, height):
            row_i = work[i]
            x, y = row_i[k], row_i[k1]
            c1 = (y * pivot - x * a1) // prev
            c2 = (y * b0 - x * b1) // prev
            for j in range(k2, width):
                row_i[j] = (row_i[j] * p2 - old[j] * c1 + row_k[j] * c2) // prev
            row_i[k] = row_i[k1] = 0
        k, prev = k2, p2
    return stop, prev


def _reduce(work: list[list[int]], stop: int, prev: int, eliminate=None) -> tuple[int, int]:
    """Bareiss steps 0, ..., stop - 1 on ``work`` in place, the last pivot so far being
    ``prev``, by ``eliminate`` (``_eliminate`` by default; one side of ``_split`` passes
    its share of it); a zero pivot swaps in the first row below with a nonzero entry
    there.  Returns the sign of the swaps, 0 if a column has no pivot, and the last
    pivot."""
    eliminate = eliminate or _eliminate
    sign = 1
    k = 0
    while True:
        k, prev = eliminate(work, k, stop, prev)
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
    """Determinant of a square integer matrix, eliminated in place two steps at a time
    (``_reduce``; 1 if empty).  Given the last pivot ``prev`` of the core elimination
    (``halves``) that ``work`` was sliced from, it finishes that slice's elimination
    instead and returns the slice's determinant, det(work) / prev^(order - 1).  A zero
    pivot swaps rows with sign tracking, and a pivotless column gives 0.  Always serial,
    for Dodgson's fallback blocks and the halves' finishes too: only a fresh minor of
    order ``_SPLIT_MIN_ORDER`` or more splits instead (``_Minors.__missing__``)."""
    sign, prev = _reduce(work, len(work), prev)
    return sign * prev


# the least order of a fresh minor that ``_Minors.__missing__`` splits in two processes.
# Measured on 2 vCPUs (medians of 10 alternating pairs, two steps at a time on both
# sides): the split took 1.56x the serial time at order 40, 1.00x at 48, 0.87x at 56,
# 0.78x at 64 and 0.56x at 150, faster in 0, 5, 9 and 10 of 10 pairs from 40 to 64;
# below 64 it saves at most a few milliseconds
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
    """``_bareiss(work)`` on two processes: the caller and a forked worker each run
    ``_reduce`` on ``work``, the one eliminating the even pairs of rows and the other the
    odd ones (``_halve``), over one socket pair.  The worker leaves only through
    ``os._exit``, so it never returns into the caller's frames or flushes inherited
    stdio, and it exits at its first read or write after the caller is gone.  The
    caller reaps it on every path, killing it first when it leaves on an exception,
    and raises ``OSError`` when the worker is gone early (end of stream, a reset or a
    broken pipe)."""
    import socket

    n = len(work)
    caller, worker = socket.socketpair()
    with caller, worker:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                caller.close()
                _reduce(work, n, 1, _halve(1, worker.makefile("rb"), worker))
                code = 0
            finally:
                os._exit(code)
        worker.close()
        try:
            with caller.makefile("rb") as reader:
                sign, last = _reduce(work, n, 1, _halve(0, reader, caller))
                return sign * last
        except (EOFError, ConnectionError):
            raise OSError("the other process of a split elimination exited") from None
        except BaseException:
            import signal  # only this path needs it, and it takes a millisecond to import

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.waitpid(pid, 0)


def _halve(side: int, reader, peer):
    """The ``eliminate`` of ``_reduce`` for one side of ``_split``: ``_eliminate``'s
    steps k, ..., ``stop`` - 1 = len(work) - 1, shared with the other side.  From step k
    the rows go in pairs, and side p % 2 (the caller 0, the worker 1) keeps the p-th pair
    current.  Each side runs ``_eliminate`` on the two pivot rows and its own rows below,
    so every row ends bit for bit as the serial loop leaves it, and drops the finished
    pivot rows.  The owner of the next pair eliminates it first, over copies of the pivot
    rows, and sends it to ``peer`` at once; the other side reads it from ``reader``
    before the next pair of steps.  Only one side sends at a time, so neither waits on a
    send while the other does.  At a zero pivot each side sends the other its rows
    below, the worker first: both then hold every live row, and ``_reduce``'s swap picks
    the same row on both."""

    def eliminate(work: list[list[int]], k: int, stop: int, prev: int) -> tuple[int, int]:
        start, n = k, len(work)
        owned = [(i - start) // 2 % 2 == side for i in range(n)]
        while k < stop:
            end = min(k + 2, stop)
            if k > start and not owned[k]:
                work[k:end] = _receive(reader)
            mine = [work[i] for i in range(end, n) if owned[i]]
            ahead = 2 if end < stop and owned[end] else 0
            if ahead:
                # the next pivot rows first, over copies of these, and sent at once
                pivots = [row[:] for row in work[k:end]]
                if _eliminate(work[:k] + pivots + mine[:2], k, end, prev)[0] == end:
                    _send(peer, mine[:2])
            reached, prev = _eliminate(work[:end] + mine[ahead:], k, end, prev)
            work[k:reached] = [[]] * (reached - k)
            if reached < end:
                if side:
                    _send(peer, mine)
                theirs = iter(_receive(reader))
                for i in range(end, n):
                    if not owned[i]:
                        work[i] = next(theirs)
                if not side:
                    _send(peer, mine)
                return reached, prev
            k = end
        return k, prev

    return eliminate


def _send(peer, rows: list[list[int]]) -> None:
    """Send ``rows`` to the socket ``peer``: the length of their ``marshal`` encoding in
    8 bytes, then the encoding."""
    data = marshal.dumps(rows)
    peer.sendall(len(data).to_bytes(8, "little") + data)


def _receive(reader) -> list[list[int]]:
    """Read the rows that one ``_send`` sent, from the buffered ``reader`` of a socket;
    ``EOFError`` if the other side is gone, before the rows or inside them."""

    def read(size: int) -> bytes:
        data = reader.read(size)
        if len(data) < size:
            raise EOFError
        return data

    return marshal.loads(read(int.from_bytes(read(8), "little")))


def _condense(rows: list[list[int]], flags: list[bytearray]) -> int | None:
    """The determinant of the order-n ``rows``, n >= 1, condensed level by level (level s
    holds the s x s blocks; levels s - 2 to s are live), or None if it stays unknown.  A
    block with a 0 or unknown interior is unknown (None, a row of them one tuple, a 1 in
    its level's bytearray in ``flags``) until a condensation reads it as a corner and
    ``_bareiss`` fills it in.  Two levels without a condensation leave all above unknown."""
    n = len(rows)
    inner, below = [[1] * (n + 1)] * (n + 1), rows
    for m in range(n - 1, 0, -1):  # m x m blocks of size n - m + 1
        nones, flag, level = (None,) * m, bytearray(m * m), []
        for i in range(m):
            up, down, mid = below[i], below[i + 1], inner[i + 1]
            try:
                row = [(a * d - b * c) // e
                       for a, b, c, d, e in zip(up, up[1:], down, down[1:], mid[1:])]
            except (TypeError, ZeroDivisionError):
                row = [None] * m
                for j, e in enumerate(mid[1 : m + 1]):
                    if not e:
                        flag[i * m + j] = 1
                        continue
                    try:
                        row[j] = (up[j] * down[j + 1] - up[j + 1] * down[j]) // e
                    except TypeError:
                        for r, c in (i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1):
                            if below[r][c] is None:
                                block = [x[c : c + n - m] for x in rows[r : r + n - m]]
                                below[r] = list(below[r])
                                below[r][c] = _bareiss(block)
                        up, down = below[i], below[i + 1]
                        row[j] = (up[j] * down[j + 1] - up[j + 1] * down[j]) // e
                row = nones if row.count(None) == m else row
            level.append(row)
        flags.append(flag)
        if all(type(row) is tuple for row in below + level):  # two levels, no condensation
            return None
        inner, below = below, level
    return below[0][0]


def _first_fallback(flags: list[bytearray], n: int) -> int:
    """The level n - s + 1 of the first flagged block, of size s, in the recursion's order
    (interior, block, then unless flagged corners m11, mnn, m1n, mn1; bit 2 marks one seen),
    walked from the top's interior chain at the last level in ``flags``: all above is flagged."""
    c = (n - len(flags)) // 2
    stack = [(n - 2 * c, c, c, False)]
    while stack:
        s, i, j, check = stack.pop()
        if s < 2:
            continue
        flag, k = flags[s - 2], i * (n - s + 1) + j
        if check and flag[k] & 1:
            return n - s + 1
        if not (check or flag[k] & 2):
            flag[k] |= 2
            stack += [(s - 1, i, j + 1, False), (s - 1, i + 1, j, False), (s - 1, i, j, False),
                      (s - 1, i + 1, j + 1, False), (s, i, j, True), (s - 2, i + 1, j + 1, False)]
    return 2 * c - 1


def det_dodgson(matrix: Matrix) -> DodgsonResult:
    """Determinant by condensation: det B = (M11 * Mnn - M1n * Mn1) / interior for a block
    B of size s >= 2, over its corners of size s-1 and central minor of size s-2 (1 for
    the 0x0 matrix), of the minor table's cleared rows (``_minors``): each ``//`` is exact,
    the value is over ``q(())``.  A fallback is used when some interior reads 0, which the
    top-down recursion meets too (every block is a corner of a larger one)."""
    n = _require_square(matrix)
    minors = _minors(matrix)
    flags: list[bytearray] = []
    value = _condense(minors.rows, flags) if n else 1
    if value is None:
        value = _bareiss([row[:] for row in minors.rows])
    depth = _first_fallback(flags, n) if any(1 in flag for flag in flags) else 0
    return DodgsonResult(Fraction(value, minors.q(())), depth > 0, depth)


def complementary_minor(
    matrix: Matrix, rows: Iterable[int], cols: Iterable[int]
) -> Fraction:
    """Unsigned minor from the matrix's ``_minors`` table, deleting a row and a column set:
    the table's integer over its ``q`` of the deleted rows.

    Deleting nothing gives det(A), everything 1 (empty determinant convention).
    The sets must have equal size; an index past the matrix raises IndexError.
    """
    _require_square(matrix)
    table = _minors(matrix)
    drop_rows = index_set(rows)
    return Fraction(table[drop_rows, index_set(cols)], table.q(drop_rows))


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
