"""Exact-zero residuals for the minor identities of a single square matrix.

Three families, all stated with unsigned minors (the cofactor signs of the
classical statements cancel pairwise or contribute one common factor):

* the two-by-two minor identity
  ``M_ii * M_jj - M_ij * M_ji = comp(A; {i,j}, {i,j}) * det A``,
* its three-term sibling on the minors obtained by deleting one fixed row
  pair and two of four chosen columns,
* the generalized splitting relation over r deleted rows and 2r chosen
  columns, and its r = 2 three-term form, each half-determinant read as a
  minor of A times its column-append sign.

Every function returns the residual as an exact Scalar so callers assert
zero themselves; a nonzero residual always signals an implementation bug,
never a property of the input matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .core import Matrix, index_set
from .engines import _minors
from .pluecker import _Half, _splitting_sum, _three_term


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of a residual sweep; passes iff no nonzero residual was seen."""

    identity: str
    operands: str
    residuals_checked: int
    nonzero_residuals: int
    witnesses: tuple[tuple[tuple[int, ...], Fraction], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.nonzero_residuals != len(self.witnesses):
            raise ValueError("witness list must match the nonzero-residual count")

    @property
    def passed(self) -> bool:
        return self.nonzero_residuals == 0


def jacobi_residual(matrix: Matrix, i: int, j: int) -> Fraction:
    """Residual of the two-by-two minor identity at the ordered pair (i, j).

    Rejects i == j: the left side degenerates to zero but the double-deleted
    minor is undefined under any deletion convention.
    """
    n = matrix.rows
    if not matrix.is_square or n < 2:
        raise ValueError(f"need a square matrix of order >= 2, got {matrix.rows}x{matrix.cols}")
    if i == j:
        raise ValueError("indices i and j must differ")
    minor = _minors(matrix)
    pair = (i, j) if i < j else (j, i)
    return (
        minor((i,), (i,)) * minor((j,), (j,))
        - minor((i,), (j,)) * minor((j,), (i,))
        - minor(pair, pair) * minor((), ())
    )


def verify_all_jacobi(matrix: Matrix) -> IdentityReport:
    """Evaluate the two-by-two minor identity over every ordered pair i != j."""
    n = matrix.rows
    if not matrix.is_square or n < 2:
        raise ValueError(f"need a square matrix of order >= 2, got {matrix.rows}x{matrix.cols}")
    checked = 0
    witnesses = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            residual = jacobi_residual(matrix, i, j)
            checked += 1
            if residual != 0:
                witnesses.append(((i, j), residual))
    return IdentityReport(
        identity="jacobi",
        operands=f"{n}x{n}, all {checked} ordered pairs",
        residuals_checked=checked,
        nonzero_residuals=len(witnesses),
        witnesses=tuple(witnesses),
    )


def minor_three_term_residual(
    matrix: Matrix, row_pair: Iterable[int], cols: Iterable[int]
) -> Fraction:
    """Three-term relation on minors sharing one deleted row pair.

    With comp(x, y) the determinant after deleting ``row_pair`` and columns
    {x, y}, returns comp(k,l)comp(s,r) - comp(k,s)comp(l,r) + comp(k,r)comp(l,s)
    for the four chosen columns k < l < s < r.  The per-term signs of the
    signed-cofactor statement share the common factor (-1)^(k+l+s+r), so the
    unsigned form is identically zero as well.
    """
    rows = index_set(row_pair)
    quad = index_set(cols)
    if len(rows) != 2:
        raise ValueError(f"need exactly 2 rows, got {len(rows)}")
    if len(quad) != 4:
        raise ValueError(f"need exactly 4 columns, got {len(quad)}")
    n = matrix.rows
    if not matrix.is_square or n < 4:
        raise ValueError(f"need a square matrix of order >= 4, got {matrix.rows}x{matrix.cols}")
    k, l, s, r = quad
    minor = _minors(matrix)

    def comp(x: int, y: int) -> Fraction:
        return minor(rows, (x, y))

    return comp(k, l) * comp(s, r) - comp(k, s) * comp(l, r) + comp(k, r) * comp(l, s)


def generalized_pluecker_residual(
    matrix: Matrix, del_rows: Iterable[int], chosen_cols: Iterable[int]
) -> Fraction:
    """Splitting relation over r deleted rows and 2r chosen columns: the splitting sum
    over the core block (the rows and all chosen columns deleted) and the chosen columns
    restricted to the surviving rows, in ascending order, signed by list positions.  The
    raw-index sign prefactor of the signed-cofactor reading is a constant across terms
    and is deliberately not reproduced."""
    return _splitting_sum(*_restricted_halves(matrix, del_rows, chosen_cols))


def restricted_three_term_residual(
    matrix: Matrix, del_rows: Iterable[int], chosen_cols: Iterable[int]
) -> Fraction:
    """``three_term_residual`` on the r = 2 core block and restricted columns."""
    r, half = _restricted_halves(matrix, del_rows, chosen_cols)
    if r != 2:
        raise ValueError(f"need 2 deleted rows and 4 chosen columns, got {r} and {2 * r}")
    return _three_term(half)


def _restricted_halves(
    matrix: Matrix, del_rows: Iterable[int], chosen_cols: Iterable[int]
) -> tuple[int, _Half]:
    """The splitting order r and ``half(positions)`` = det(core | the restricted columns
    at those positions): the minor that deletes the rows and the other chosen columns,
    times the column-append sign (-1)^#{(x, y) : x a core column, y appended, x > y}."""
    rows = index_set(del_rows)
    cols = index_set(chosen_cols)
    r = len(rows)
    if r < 1 or len(cols) != 2 * r:
        raise ValueError(f"need r deleted rows and 2r chosen columns, got {r} and {len(cols)}")
    n = matrix.rows
    if not matrix.is_square:
        raise ValueError(f"need a square matrix, got {matrix.rows}x{matrix.cols}")
    if n < 2 * r:
        raise ValueError(f"order {n} too small for 2r = {2 * r} chosen columns")
    minor = _minors(matrix)

    def half(positions: tuple[int, ...]) -> Fraction:
        # the chosen column at position p has n - c_p columns after it, 2r - p of them chosen
        flips = sum(n - cols[p - 1] - (2 * r - p) for p in positions)
        value = minor(rows, tuple(c for p, c in enumerate(cols, 1) if p not in positions))
        return -value if flips % 2 else value

    return r, half
