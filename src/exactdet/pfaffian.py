"""Antisymmetric matrices, Pfaffians, and the determinant embedding.

The determinant of an even-order antisymmetric matrix is the perfect square
of its Pfaffian, and the corresponding minor recurrence

    comp(A; {1,2}, {1,2}) * det A = (M_12)^2

drives that perfect-square structure down to the order-2 base case.  A
general n x n determinant (and its first and double minors) also embeds as
an order-2n Pfaffian over the label list (1, ..., n, n*, ..., 2*, 1*) with
pair entries (i, j) = (i*, j*) = 0 and (i, j*) = -(j*, i) = a_ij; the
embedding here reproduces the minors with exact equality, no stray signs
(pinned against the determinant oracle in the tests).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import Iterable, Sequence

from .core import Matrix, ScalarLike, _Record, _parse_count, format_scalar, scalar
from .engines import complementary_minor, det_bareiss, first_minor


class AntisymmetricMatrix(_Record):
    """Even-order skew-symmetric matrix stored as its strict upper triangle.

    Holding only the entries above the diagonal makes antisymmetry true by
    construction: the full matrix is derived as a_ji = -a_ij with a zero
    diagonal.
    """

    __slots__ = __match_args__ = ("order", "upper")

    def __init__(self, order: int, upper: tuple[Fraction, ...]) -> None:
        if order < 0 or order % 2:
            raise ValueError(f"antisymmetric order must be even and >= 0, got {order}")
        expected = order * (order - 1) // 2
        if len(upper) != expected:
            raise ValueError(
                f"order {order} needs {expected} strict-upper entries, got {len(upper)}"
            )
        super().__init__(order, upper)

    def _upper_index(self, i: int, j: int) -> int:
        # row-major strict upper triangle, i < j, 1-based
        return (i - 1) * self.order - i * (i - 1) // 2 + (j - i - 1)

    def entry(self, i: int, j: int) -> Fraction:
        """Entry at 1-based (i, j) of the materialized skew matrix."""
        if not (1 <= i <= self.order and 1 <= j <= self.order):
            raise IndexError(f"index ({i},{j}) out of range for order {self.order}")
        if i == j:
            return Fraction(0)
        if i < j:
            return self.upper[self._upper_index(i, j)]
        return -self.upper[self._upper_index(j, i)]

    def to_matrix(self) -> Matrix:
        n = self.order
        return Matrix(
            n, n, tuple(tuple(self.entry(i, j) for j in range(1, n + 1)) for i in range(1, n + 1))
        )


def antisymmetric_from_upper(
    order: int, upper: Sequence[ScalarLike]
) -> AntisymmetricMatrix:
    """Build from the row-major strict upper triangle (a_12, a_13, ..., a_{n-1,n})."""
    return AntisymmetricMatrix(order, tuple(scalar(v) for v in upper))


def antisymmetric_from_matrix(matrix: Matrix) -> AntisymmetricMatrix:
    """Validate a full matrix as antisymmetric and strip it to its upper triangle.

    The error message names the first violating position: a nonzero diagonal
    entry (i, i), or the first (i, j) with a_ji != -a_ij scanning the upper
    triangle row by row.
    """
    if not matrix.is_square:
        raise ValueError(f"antisymmetric matrix must be square, got {matrix.rows}x{matrix.cols}")
    n = matrix.rows
    if n % 2:
        raise ValueError(f"antisymmetric order must be even, got {n}")
    upper = []
    for i in range(1, n + 1):
        if matrix.at(i, i) != 0:
            raise ValueError(
                f"not antisymmetric: diagonal entry ({i},{i}) is "
                f"{format_scalar(matrix.at(i, i))}, expected 0"
            )
        for j in range(i + 1, n + 1):
            if matrix.at(j, i) != -matrix.at(i, j):
                raise ValueError(
                    f"not antisymmetric at ({i},{j}): a[{j},{i}] = "
                    f"{format_scalar(matrix.at(j, i))} but -a[{i},{j}] = "
                    f"{format_scalar(-matrix.at(i, j))}"
                )
            upper.append(matrix.at(i, j))
    return AntisymmetricMatrix(n, tuple(upper))


def _skew_integer(matrix: AntisymmetricMatrix) -> tuple[list[int], list[list[int]]]:
    """D*A*D as full integer rows, and the multipliers d_i on D's diagonal.

    d_i is the lcm of the denominators in row i, which are those of column i,
    so every d_i * d_j * a_ij is an integer, the result stays skew and
    Pf(D*A*D) = Pf(A) * prod(d_i).  One multiplier per index, not per row as in
    ``engines._integer_rows``, whose clearing would break the skew symmetry.
    """
    n = matrix.order
    pairs = list(zip(combinations(range(n), 2), matrix.upper))
    mults = [1] * n
    for (i, j), v in pairs:
        mults[i] = lcm(mults[i], v.denominator)
        mults[j] = lcm(mults[j], v.denominator)
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in pairs:
        rows[i][j] = v.numerator * (mults[i] // v.denominator) * mults[j]
        rows[j][i] = -rows[i][j]
    return mults, rows


def pfaffian(matrix: AntisymmetricMatrix) -> Fraction:
    """Pfaffian of an even-order antisymmetric matrix; Pf of order 0 is 1.

    Fraction-free skew elimination in O(n^3) integer steps, on the integer
    matrix and per-index multipliers of ``_skew_integer`` (it shares no code
    with the determinant engines' ``_integer_rows`` or ``_bareiss``).  Index k
    pairs with its first nonzero partner j (swapping j into position k+1 flips
    the sign), and with p = a[k][k+1] and prev the previous pivot each entry
    of the trailing block becomes

        a[i][c] = (p*a[i][c] + a[i][k]*a[k+1][c] - a[i][k+1]*a[k][c]) // prev,

    an exact division: after m steps every trailing entry is the Pfaffian of
    the leading 2m indices with i and c (the Pfaffian form of Sylvester's
    identity; Knuth, "Overlapping Pfaffians", 1996), so the last pivot is
    Pf(D*A*D).  The block stays antisymmetric, so each entry above the
    diagonal is computed once and mirrored below it.  Satisfies
    pfaffian(A)**2 == det(A) exactly.
    """
    mults, a = _skew_integer(matrix)
    n = matrix.order
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        row_k = a[k]
        j = next((j for j in range(k + 1, n) if row_k[j] != 0), None)
        if j is None:
            return Fraction(0)
        if j != k + 1:
            a[k + 1], a[j] = a[j], a[k + 1]
            for row in a:
                row[k + 1], row[j] = row[j], row[k + 1]
            sign = -sign
        p = row_k[k + 1]
        row_k1 = a[k + 1]
        for i in range(k + 2, n):
            row_i = a[i]
            x, y = row_i[k], row_i[k + 1]
            for c in range(i + 1, n):
                row_i[c] = (p * row_i[c] + x * row_k1[c] - y * row_k[c]) // prev
                a[c][i] = -row_i[c]
        prev = p
    return Fraction(sign * prev, prod(mults))


def pfaffian_square_residual(matrix: AntisymmetricMatrix) -> Fraction:
    """pfaffian(A)^2 - det(A); identically zero."""
    return pfaffian(matrix) ** 2 - det_bareiss(matrix.to_matrix())


def jacobi_recurrence_residual(matrix: AntisymmetricMatrix) -> Fraction:
    """Residual of comp(A; {1,2}, {1,2}) * det A - (M_12)^2; identically zero.

    This is the two-by-two minor identity specialised to skew symmetry,
    where M_11 = M_22 = 0 and M_21 = -M_12.  The double-deleted minor is
    again antisymmetric (order reduced by 2), which is what makes det A a
    perfect square by recursion.
    """
    if matrix.order < 2:
        raise ValueError("recurrence needs order >= 2")
    full = matrix.to_matrix()
    m12 = first_minor(full, 1, 2)
    return complementary_minor(full, (1, 2), (1, 2)) * det_bareiss(full) - m12 * m12


def embedding_labels(n: int) -> tuple[str, ...]:
    """The ordered label list (1, ..., n, n*, ..., 2*, 1*) as strings."""
    if n < 0:
        raise ValueError("label count must be >= 0")
    return tuple(str(i) for i in range(1, n + 1)) + tuple(
        f"{i}*" for i in range(n, 0, -1)
    )


def _parse_label(label: str, n: int) -> tuple[int, bool]:
    """(i, starred) for a label ``i`` or ``i*``, i in 1..n read as headers and index lists are."""
    text = label.strip()
    starred = text.endswith("*")
    if starred:
        text = text[:-1]
    idx = _parse_count(text, f"malformed label {label!r}")
    if not 1 <= idx <= n:
        raise ValueError(f"label {label!r} out of range for order {n}")
    return idx, starred


def _embedding(matrix: Matrix, kept: Sequence[int]) -> AntisymmetricMatrix:
    """The embedding of a square matrix restricted to the kept positions, in order.

    Position p <= n is the plain label p and position q > n the starred label
    2n+1-q, so a plain p before a starred q holds a_{p,2n+1-q}; every other
    pair is zero.  The strict upper triangle is read straight off the matrix.
    """
    n = matrix.rows
    zero = Fraction(0)
    upper = tuple(
        matrix.at(p, 2 * n + 1 - q) if p <= n < q else zero for p, q in combinations(kept, 2)
    )
    return AntisymmetricMatrix(len(kept), upper)


def determinant_embedding(matrix: Matrix) -> AntisymmetricMatrix:
    """Embed det A as the Pfaffian of an order-2n antisymmetric matrix.

    Positions follow ``embedding_labels(n)``; the pair entry of an unstarred
    i against a starred j* is a_ij, all like-kind pairs are zero.  Then
    pfaffian(result) == det(A) exactly.
    """
    if not matrix.is_square:
        raise ValueError(f"embedding requires a square matrix, got {matrix.rows}x{matrix.cols}")
    return _embedding(matrix, range(1, 2 * matrix.rows + 1))


def embedded_minor(matrix: Matrix, remove: Iterable[str]) -> Fraction:
    """Pfaffian of the embedding's upper triangle restricted to the kept labels.

    The kept labels stay in ``embedding_labels`` order, and the restricted
    triangle is read straight off the matrix, without building the whole
    embedding.  Legal removal sets and what they reproduce, exactly and with
    no hidden sign:

    * ``{"i", "j*"}`` (i = j allowed)  ->  first_minor(A, i, j)
    * ``{"i", "j", "i*", "j*"}`` with i < j  ->  the minor deleting rows
      and columns {i, j}

    A label's index is read as matrix headers and index lists are (``core._parse_count``).
    """
    if not matrix.is_square:
        raise ValueError(f"embedding requires a square matrix, got {matrix.rows}x{matrix.cols}")
    n = matrix.rows
    parsed = {_parse_label(label, n) for label in remove}
    plain = sorted(idx for idx, starred in parsed if not starred)
    starred = sorted(idx for idx, star in parsed if star)
    if len(parsed) == 2:
        if len(plain) != 1 or len(starred) != 1:
            raise ValueError("a removal pair must hold one plain and one starred label")
    elif len(parsed) == 4:
        if len(plain) != 2 or plain != starred:
            raise ValueError(
                "a removal quadruple must pair two plain labels with their starred twins"
            )
    else:
        raise ValueError(f"removal set must have 2 or 4 labels, got {len(parsed)}")

    # position p <= n is the plain label p, position q > n the starred 2n+1-q
    kept = [q for q in range(1, 2 * n + 1) if (min(q, 2 * n + 1 - q), q > n) not in parsed]
    return pfaffian(_embedding(matrix, kept))
