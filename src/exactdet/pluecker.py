"""Plucker relations: the signed quadratic sum over column splittings.

Given a matrix M with r fewer columns than rows and 2r extra column vectors,
the signed sum of products det(M | left half) * det(M | right half) over all
balanced splittings of the vectors vanishes identically.  The three-term
special case (r=2) is the classical relation

    |Mab||Mcd| - |Mac||Mbd| + |Mad||Mbc| = 0.

Signs are taken from positions 1..2r within the supplied vector list, never
from any external column numbering.  A constant global factor present in the
underlying Laplace-expansion derivation is dropped throughout: the sums are
asserted against zero, so it carries no information.

Every half-determinant of one sum keeps the same rows, so the minor table gives
each as an integer over one shared denominator q (the product of those rows'
multipliers); a minor table of M | vectors (``engines._Minors``, built directly so
the caller's held table stays) reads, signs and computes them all in ``halves``,
which returns the integers alone; ``_half_dets`` asks that table's ``q`` itself.
This module keeps only the kernels: ``_splitting_sum`` and ``_three_term`` sum
integer products, and each residual is one ``Fraction(total, q^2)``.  ``jacobi``'s
splitting batch runs the same kernels and asks for q only for a nonzero sum.
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


class SplitTerm(_Record):
    """One balanced splitting of positions {1..2r} with its sign (-1)^(sum of left)."""

    __slots__ = __match_args__ = ("left", "right", "sign")

    def __init__(self, left: tuple[int, ...], right: tuple[int, ...], sign: int) -> None:
        super().__init__(left, right, sign)


def split_enumeration(r: int) -> list[SplitTerm]:
    """All C(2r, r) balanced splittings, ordered lexicographically by left set."""
    if r < 1:
        raise ValueError("splitting order r must be >= 1")
    return list(_splittings(r))


@cache
def _splittings(r: int) -> tuple[SplitTerm, ...]:
    """``split_enumeration(r)``, built once per order r >= 1 and shared by every sum."""
    universe = range(1, 2 * r + 1)
    terms = []
    for left in combinations(universe, r):
        right = tuple(p for p in universe if p not in left)
        sign = -1 if sum(left) % 2 else 1
        terms.append(SplitTerm(left, right, sign))
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


def _splitting_sum(r: int, half: _Half) -> int:
    """The full signed splitting sum over ``half``."""
    return sum(t.sign * half[t.left] * half[t.right] for t in _splittings(r))


def _three_term(half: _Half) -> int:
    """|Mab||Mcd| - |Mac||Mbd| + |Mad||Mbc| over ``half`` at positions a..d = 1..4."""
    return (
        half[1, 2] * half[3, 4]
        - half[1, 3] * half[2, 4]
        + half[1, 4] * half[2, 3]
    )


def pluecker_terms(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> list[tuple[SplitTerm, Fraction]]:
    """Per-splitting signed products sign * det(M|left) * det(M|right)."""
    q, half = _half_dets(matrix, vectors)
    return [
        (t, Fraction(t.sign * half[t.left] * half[t.right], q * q))
        for t in _splittings(len(vectors) // 2)
    ]


def pluecker_sum(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> Fraction:
    """The full signed splitting sum; identically zero for every valid input.

    The computed Scalar is returned (rather than asserting zero internally)
    so callers and tests can check the cancellation themselves.
    """
    q, half = _half_dets(matrix, vectors)
    return Fraction(_splitting_sum(len(vectors) // 2, half), q * q)


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
    return Fraction(_three_term(half), q * q)
