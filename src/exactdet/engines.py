"""Three independent determinant engines plus minor and cofactor accessors.

``det_laplace`` is the ground-truth oracle (exponential; the CLI stops it at n=7).
``det_bareiss`` is the fraction-free workhorse.  ``det_dodgson`` condenses
via the two-by-two minor recurrence and falls back to Bareiss whenever an
interior divisor vanishes.  All engines agree exactly on every square input.

Minor conventions: ``first_minor`` and ``complementary_minor`` are unsigned
(plain determinants after deletion); signs live only in ``signed_cofactor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .core import Matrix, index_set, submatrix_delete


@dataclass(frozen=True)
class DodgsonResult:
    """Condensation outcome: value plus fallback instrumentation.

    ``fallback_depth`` is the condensation level at which a zero interior
    divisor first forced a Bareiss fallback (the full matrix sits at level 1,
    a size-s block at level n-s+1); it is 0 when no fallback occurred.
    """

    value: Fraction
    fallback_used: bool
    fallback_depth: int

    def __post_init__(self) -> None:
        if not self.fallback_used and self.fallback_depth != 0:
            raise ValueError("fallback_depth must be 0 when no fallback occurred")


def _require_square(matrix: Matrix) -> int:
    if not matrix.is_square:
        raise ValueError(f"determinant requires a square matrix, got {matrix.rows}x{matrix.cols}")
    return matrix.rows


def det_laplace(matrix: Matrix) -> Fraction:
    """Determinant by recursive first-row cofactor expansion.

    Serves as the oracle for the other engines; exponential cost, so callers
    keep it to n <= cli.LAPLACE_LIMIT = 7 by policy.  det of the 0x0 matrix is 1.
    """
    _require_square(matrix)
    return _laplace(matrix.entries)


def _laplace(rows: tuple[tuple[Fraction, ...], ...]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    first = rows[0]
    rest = rows[1:]
    for j in range(n):
        pivot = first[j]
        if pivot == 0:
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in rest)
        term = pivot * _laplace(minor)
        total += term if j % 2 == 0 else -term
    return total


def det_bareiss(matrix: Matrix) -> Fraction:
    """Fraction-free Bareiss determinant, exact over the rationals.

    Rational input is cleared to integers row by row (the determinant is
    divided back at the end), so the elimination itself runs in pure integer
    arithmetic with exact interior divisions.  Zero pivots are handled by row
    swaps with sign tracking; a pivotless column means the matrix is singular.
    """
    n = _require_square(matrix)
    if n == 0:
        return Fraction(1)
    scale = 1
    work: list[list[int]] = []
    for row in matrix.entries:
        mult = 1
        for v in row:
            mult = lcm(mult, v.denominator)
        scale *= mult
        work.append([v.numerator * (mult // v.denominator) for v in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = work[k][k]
        for i in range(k + 1, n):
            row_i = work[i]
            row_k = work[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return Fraction(sign * work[n - 1][n - 1], scale)


def det_dodgson(matrix: Matrix) -> DodgsonResult:
    """Determinant by condensation on the two-by-two corner-minor recurrence.

    Each square block B of size s >= 2 satisfies

        det B = (M11 * Mnn - M1n * Mn1) / interior

    where the M's are the corner minors of size s-1 and ``interior`` is the
    central minor of size s-2 (det of the 0x0 block is 1).  The recursion
    only ever visits contiguous blocks of the input, which are memoized.
    Whenever a block's interior divisor is zero, that block's determinant is
    computed by ``det_bareiss`` instead and the fallback is recorded.
    """
    n = _require_square(matrix)
    if n < 1:
        raise ValueError("condensation requires n >= 1")
    memo: dict[tuple[int, int, int], Fraction] = {}
    state = {"used": False, "depth": 0}
    entries = matrix.entries

    def block(r0: int, c0: int, size: int) -> Fraction:
        key = (r0, c0, size)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if size == 0:
            value = Fraction(1)
        elif size == 1:
            value = entries[r0][c0]
        else:
            interior = block(r0 + 1, c0 + 1, size - 2)
            if interior == 0:
                if not state["used"]:
                    state["used"] = True
                    state["depth"] = n - size + 1
                sub = Matrix.from_rows(
                    [row[c0 : c0 + size] for row in entries[r0 : r0 + size]]
                )
                value = det_bareiss(sub)
            else:
                m11 = block(r0 + 1, c0 + 1, size - 1)
                mnn = block(r0, c0, size - 1)
                m1n = block(r0 + 1, c0, size - 1)
                mn1 = block(r0, c0 + 1, size - 1)
                value = (m11 * mnn - m1n * mn1) / interior
        memo[key] = value
        return value

    value = block(0, 0, n)
    return DodgsonResult(value, state["used"], state["depth"])


def complementary_minor(
    matrix: Matrix, rows: Iterable[int], cols: Iterable[int]
) -> Fraction:
    """Unsigned minor: determinant after deleting row set and column set.

    Deleting nothing gives det(A); deleting everything gives 1 (empty
    determinant convention).  Row and column sets must have equal size.
    """
    _require_square(matrix)
    drop_rows = index_set(rows)
    drop_cols = index_set(cols)
    if len(drop_rows) != len(drop_cols):
        raise ValueError(
            f"minor needs equally many deleted rows and columns, "
            f"got {len(drop_rows)} rows and {len(drop_cols)} columns"
        )
    return det_bareiss(submatrix_delete(matrix, drop_rows, drop_cols))


def first_minor(matrix: Matrix, i: int, j: int) -> Fraction:
    """Unsigned first minor: determinant with row i and column j deleted."""
    n = _require_square(matrix)
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"minor index ({i},{j}) out of range for order {n}")
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
