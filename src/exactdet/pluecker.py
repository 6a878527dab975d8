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
multipliers).  The kernels ``_splitting_sum`` and ``_three_term`` sum integer
products, and each residual is one ``Fraction(total, q^2)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Mapping, Sequence

from . import engines
from .core import Matrix, ScalarLike, _Record, augment_columns

# integer half-determinants by position set, all over one shared denominator
_Half = Mapping[tuple[int, ...], int]


class SplitTerm(_Record):
    """One balanced splitting of positions {1..2r} with its sign (-1)^(sum of left)."""

    __slots__ = __match_args__ = ("left", "right", "sign")

    def __init__(self, left: tuple[int, ...], right: tuple[int, ...], sign: int) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "sign", sign)


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


def _halves(
    matrix: Matrix, del_rows: tuple[int, ...], cols: tuple[int, ...]
) -> tuple[int, _Half, int]:
    """The splitting order r, ``half[positions]`` = q * det(core | the chosen ``cols`` at
    those positions) as an integer, and that one denominator q.  The core deletes
    ``del_rows`` and all of ``cols``; each half is the minor that deletes the rows and the
    other chosen columns, times the column-append sign
    (-1)^#{(x, y) : x a core column, y appended, x > y}.  Every half keeps the same rows,
    so q is their one product of row multipliers, and any product of two halves is an
    integer over q^2.  Each position set is read once: in a splitting sum it is the
    left side of one term and the right of another.  Halves the minor table lacks come
    from one core elimination of the choice (``split``), finished per half as an r x r
    block, and go back into the table as minors."""
    r = len(cols) // 2
    n = matrix.cols
    table = engines._minors(matrix)
    # the chosen column at position p has n - c_p columns after it, 2r - p of them chosen:
    # the positions that flip the sign an odd number of times
    odd = {p for p, c in enumerate(cols, 1) if (n - c - 2 * r + p) % 2}
    half = {}
    missing = []
    for term in _splittings(r):
        key = del_rows, tuple([cols[p - 1] for p in term.right])
        sign = -1 if len(odd.intersection(term.left)) % 2 else 1
        found = table.get(key)
        if found is None:
            missing.append((term.left, key, sign))
        else:
            value, q = found
            half[term.left] = sign * value
    if missing:
        q, core_sign, block, prev = table.split(del_rows, cols)
        for left, key, sign in missing:
            columns = [[row[p - 1] for p in left] for row in block]
            value = core_sign * engines._bareiss(columns, prev) if core_sign else 0
            half[left] = value
            table[key] = sign * value, q
    return r, half, q


def _half_dets(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> tuple[int, _Half, int]:
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


def _signed_products(r: int, half: _Half) -> list[tuple[SplitTerm, int]]:
    """Per-splitting signed products sign * half[left] * half[right]."""
    return [(t, t.sign * half[t.left] * half[t.right]) for t in _splittings(r)]


def _splitting_sum(r: int, half: _Half) -> int:
    """The full signed splitting sum over ``half``."""
    return sum(value for _, value in _signed_products(r, half))


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
    r, half, q = _half_dets(matrix, vectors)
    return [(t, Fraction(value, q * q)) for t, value in _signed_products(r, half)]


def pluecker_sum(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> Fraction:
    """The full signed splitting sum; identically zero for every valid input.

    The computed Scalar is returned (rather than asserting zero internally)
    so callers and tests can check the cancellation themselves.
    """
    r, half, q = _half_dets(matrix, vectors)
    return Fraction(_splitting_sum(r, half), q * q)


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
    _, half, q = _half_dets(matrix, (a, b, c, d))
    return Fraction(_three_term(half), q * q)
