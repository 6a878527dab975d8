"""Plucker relations: signed quadratic sums of half-determinants.

Given a matrix M with r fewer columns than rows and 2r extra column vectors,
the signed sum of products det(M | left half) * det(M | right half) over all
balanced splittings of the vectors vanishes identically.  The three-term
special case (r=2) is the classical relation

    |Mab||Mcd| - |Mac||Mbd| + |Mad||Mbc| = 0.

At odd r each splitting (L, R) cancels its mirror (R, L) whatever the halves are,
so the balanced sum checks nothing there.  At r = 3 the ``generalized`` family
sums the single-exchange Grassmann-Plucker relation with I = (1, 2) and
J = (3, 4, 5, 6) instead, sum over k of (-1)^k |M I j_k| |M J-j_k|: 8 of the 20
halves, every position set ascending, and it fails when the halves are not the
minors of one matrix.

Signs are taken from positions 1..2r within the supplied vector list, never
from any external column numbering.  A constant global factor present in the
underlying Laplace-expansion derivation is dropped throughout: the sums are
asserted against zero, so it carries no information.

Each formula is written once, as its signed terms (sign, left, right), and
``_total`` sums any of them over integer halves.  Every half-determinant of one
sum keeps the same rows, so the minor table gives each as an integer over one
shared denominator q (the product of those rows' multipliers); a minor table of
M | vectors (``engines._Minors``, built directly so the caller's held table
stays) reads, signs and computes them all in ``halves``, which returns the
integers alone; ``_half_dets`` asks that table's ``q`` itself, and each residual
is one ``Fraction(total, q^2)``.  ``jacobi``'s splitting batch sums the same
terms and asks for q only for a nonzero sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Mapping, Sequence

from .core import Matrix, ScalarLike, _Record, augment_columns
from .engines import _Minors

# integer half-determinants by position set, all over one shared denominator
_Half = Mapping[tuple[int, ...], int]
# a splitting formula: its signed terms (sign, left positions, right positions)
_Terms = tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]

# |Mab||Mcd| - |Mac||Mbd| + |Mad||Mbc| at positions a..d = 1..4
_THREE_TERM: _Terms = ((1, (1, 2), (3, 4)), (-1, (1, 3), (2, 4)), (1, (1, 4), (2, 3)))

# the single-exchange relation at r = 3, I = (1, 2) and J = (3, 4, 5, 6): term k is
# (-1)^k |M I j_k| |M J-j_k|, and I + j_k is ascending, so no term needs a reordering sign
_EXCHANGE: _Terms = (
    (-1, (1, 2, 3), (4, 5, 6)),
    (1, (1, 2, 4), (3, 5, 6)),
    (-1, (1, 2, 5), (3, 4, 6)),
    (1, (1, 2, 6), (3, 4, 5)),
)


class SplitTerm(_Record):
    """One balanced splitting of positions {1..2r} with its sign (-1)^(sum of left)."""

    __slots__ = __match_args__ = ("left", "right", "sign")

    def __init__(self, left: tuple[int, ...], right: tuple[int, ...], sign: int) -> None:
        super().__init__(left, right, sign)


def split_enumeration(r: int) -> list[SplitTerm]:
    """All C(2r, r) balanced splittings, ordered lexicographically by left set."""
    if r < 1:
        raise ValueError("splitting order r must be >= 1")
    return [SplitTerm(left, right, sign) for sign, left, right in _splittings(r)]


@cache
def _splittings(r: int) -> _Terms:
    """The balanced splitting sum at order r >= 1 as terms, in ``split_enumeration``'s
    order, built once per order and shared by every sum."""
    universe = range(1, 2 * r + 1)
    terms = []
    for left in combinations(universe, r):
        right = tuple(p for p in universe if p not in left)
        terms.append((-1 if sum(left) % 2 else 1, left, right))
    return tuple(terms)


def _half_dets(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> tuple[int, _Half]:
    """The (q, halves) of M | all vectors over its last 2r columns, where every
    column-append sign is +, from a table of that throwaway augmented matrix alone: it
    never enters the one-slot cache (``engines._minors``), so the caller's held table
    stays."""
    if len(vectors) < 2 or len(vectors) % 2:
        raise ValueError(f"need an even number (2r) of vectors, got {len(vectors)}")
    r = len(vectors) // 2
    n = matrix.rows
    if n < r:
        raise ValueError(f"matrix with {n} rows cannot host a splitting of order {r}")
    if matrix.cols != n - r:
        raise ValueError(
            f"matrix must be {n}x{n - r} for a splitting of order {r}, got {n}x{matrix.cols}"
        )
    table = _Minors(augment_columns(matrix, vectors))
    return table.q(()), table.halves((), tuple(range(n - r + 1, n + r + 1)))


def _generalized(r: int) -> _Terms:
    """The ``generalized`` family's formula at order r: the exchange relation at r = 3,
    where the balanced sum cancels for any halves, and the balanced sum otherwise."""
    return _EXCHANGE if r == 3 else _splittings(r)


def _total(terms: _Terms, half: _Half) -> int:
    """The sum of ``terms`` over the integer halves ``half``."""
    return sum(sign * half[left] * half[right] for sign, left, right in terms)


def pluecker_terms(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> list[tuple[SplitTerm, Fraction]]:
    """Per-splitting signed products sign * det(M|left) * det(M|right)."""
    q, half = _half_dets(matrix, vectors)
    return [
        (SplitTerm(left, right, sign), Fraction(sign * half[left] * half[right], q * q))
        for sign, left, right in _splittings(len(vectors) // 2)
    ]


def pluecker_sum(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> Fraction:
    """The full signed splitting sum; identically zero for every valid input.

    The computed Scalar is returned (rather than asserting zero internally)
    so callers and tests can check the cancellation themselves.
    """
    q, half = _half_dets(matrix, vectors)
    return Fraction(_total(_splittings(len(vectors) // 2), half), q * q)


def three_term_residual(
    matrix: Matrix,
    a: Sequence[ScalarLike],
    b: Sequence[ScalarLike],
    c: Sequence[ScalarLike],
    d: Sequence[ScalarLike],
) -> Fraction:
    """|Mab||Mcd| - |Mac||Mbd| + |Mad||Mbc|; identically zero.

    Equals -1/2 times ``pluecker_sum(M, [a, b, c, d])`` term-structurally:
    each unordered splitting pair contributes the same product twice there.
    """
    q, half = _half_dets(matrix, (a, b, c, d))
    return Fraction(_total(_THREE_TERM, half), q * q)
