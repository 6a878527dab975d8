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
from typing import Sequence

from .core import Matrix, ScalarLike, as_vector, augment_columns
from .engines import det_bareiss


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


def _checked_vectors(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> tuple[int, list[tuple[Fraction, ...]]]:
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
    vecs = [as_vector(v) for v in vectors]
    for v in vecs:
        if len(v) != n:
            raise ValueError(f"vector of length {len(v)} does not match {n} rows")
    return r, vecs


def pluecker_terms(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> list[tuple[SplitTerm, Fraction]]:
    """Per-splitting signed products sign * det(M|left) * det(M|right)."""
    r, vecs = _checked_vectors(matrix, vectors)
    dets: dict[tuple[int, ...], Fraction] = {}

    def half_det(positions: tuple[int, ...]) -> Fraction:
        value = dets.get(positions)
        if value is None:
            value = det_bareiss(augment_columns(matrix, [vecs[p - 1] for p in positions]))
            dets[positions] = value
        return value

    return [
        (term, term.sign * half_det(term.left) * half_det(term.right))
        for term in split_enumeration(r)
    ]


def pluecker_sum(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> Fraction:
    """The full signed splitting sum; identically zero for every valid input.

    The computed Scalar is returned (rather than asserting zero internally)
    so callers and tests can check the cancellation themselves.
    """
    return sum((value for _, value in pluecker_terms(matrix, vectors)), Fraction(0))


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
    _, (va, vb, vc, vd) = _checked_vectors(matrix, (a, b, c, d))

    def det2(u: tuple[Fraction, ...], w: tuple[Fraction, ...]) -> Fraction:
        return det_bareiss(augment_columns(matrix, [u, w]))

    return (
        det2(va, vb) * det2(vc, vd)
        - det2(va, vc) * det2(vb, vd)
        + det2(va, vd) * det2(vb, vc)
    )
