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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .core import Matrix, ScalarLike, augment_columns
from .engines import _minors

_Half = Callable[[tuple[int, ...]], Fraction]


@dataclass(frozen=True)
class SplitTerm:
    """One balanced splitting of positions {1..2r} with its sign (-1)^(sum of left)."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    sign: int


def split_enumeration(r: int) -> list[SplitTerm]:
    """All C(2r, r) balanced splittings, ordered lexicographically by left set."""
    if r < 1:
        raise ValueError("splitting order r must be >= 1")
    universe = range(1, 2 * r + 1)
    terms = []
    for left in combinations(universe, r):
        right = tuple(p for p in universe if p not in left)
        sign = -1 if sum(left) % 2 else 1
        terms.append(SplitTerm(left, right, sign))
    return terms


def _halves(matrix: Matrix, del_rows: tuple[int, ...], cols: tuple[int, ...]) -> tuple[int, _Half]:
    """The splitting order r and ``half(positions)`` = det(core | the chosen ``cols`` at
    those positions), the core deleting ``del_rows`` and all of ``cols``: the minor that
    deletes the rows and the other chosen columns, times the column-append sign
    (-1)^#{(x, y) : x a core column, y appended, x > y}."""
    r = len(cols) // 2
    n = matrix.cols
    minor = _minors(matrix)

    def half(positions: tuple[int, ...]) -> Fraction:
        # the chosen column at position p has n - c_p columns after it, 2r - p of them chosen
        flips = sum(n - cols[p - 1] - (2 * r - p) for p in positions)
        value = minor(del_rows, tuple(c for p, c in enumerate(cols, 1) if p not in positions))
        return -value if flips % 2 else value

    return r, half


def _half_dets(matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]) -> tuple[int, _Half]:
    """``_halves`` over M | all vectors and its last 2r columns, where every sign is +."""
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
    return _halves(augment_columns(matrix, vectors), (), tuple(range(n - r + 1, n + r + 1)))


def _signed_products(r: int, half: _Half) -> list[tuple[SplitTerm, Fraction]]:
    """Per-splitting signed products sign * half(left) * half(right)."""
    return [(t, t.sign * half(t.left) * half(t.right)) for t in split_enumeration(r)]


def _splitting_sum(r: int, half: _Half) -> Fraction:
    """The full signed splitting sum over ``half``."""
    return sum((value for _, value in _signed_products(r, half)), Fraction(0))


def _three_term(half: _Half) -> Fraction:
    """|Mab||Mcd| - |Mac||Mbd| + |Mad||Mbc| over ``half`` at positions a..d = 1..4."""
    return (
        half((1, 2)) * half((3, 4))
        - half((1, 3)) * half((2, 4))
        + half((1, 4)) * half((2, 3))
    )


def pluecker_terms(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> list[tuple[SplitTerm, Fraction]]:
    """Per-splitting signed products sign * det(M|left) * det(M|right)."""
    return _signed_products(*_half_dets(matrix, vectors))


def pluecker_sum(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> Fraction:
    """The full signed splitting sum; identically zero for every valid input.

    The computed Scalar is returned (rather than asserting zero internally)
    so callers and tests can check the cancellation themselves.
    """
    return _splitting_sum(*_half_dets(matrix, vectors))


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
    return _three_term(_half_dets(matrix, (a, b, c, d))[1])
