"""Exact-zero residuals for the minor identities of a single square matrix.

Two families, both read from the matrix's one minor table:

* the two-by-two minor identity
  ``M_ii * M_jj - M_ij * M_ji = comp(A; {i,j}, {i,j}) * det A`` on unsigned minors,
* the splitting relations over r deleted rows and 2r chosen columns.  Deleting
  the rows and every chosen column leaves a core block; each half-determinant
  det(core | some chosen columns, restricted to the kept rows) is a minor of A
  times its column-append sign, and the table serves all of one choice's halves
  (``_Minors.halves``).  ``generalized_pluecker_residual`` takes the
  full signed splitting sum over those halves, ``minor_three_term_residual``
  the r = 2 three-term formula.

Both sum integers: the table gives each minor as an integer over the product of
its kept rows' multipliers, and every product in one residual keeps the same rows
with the same multiplicity (each row twice but i and j once for the two-by-two
identity; the core rows twice for a splitting), so all its products share one
denominator and one ``Fraction`` is built per residual.

Every function returns the residual as an exact Scalar so callers assert
zero themselves; a nonzero residual always signals an implementation bug,
never a property of the input matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .core import Matrix, _Record, index_set
from .engines import _minors
from .pluecker import _splitting_sum, _three_term


class IdentityReport(_Record):
    """Outcome of a residual sweep; passes iff no nonzero residual was seen."""

    __slots__ = __match_args__ = (
        "identity", "operands", "residuals_checked", "nonzero_residuals", "witnesses"
    )

    def __init__(
        self,
        identity: str,
        operands: str,
        residuals_checked: int,
        nonzero_residuals: int,
        witnesses: tuple[tuple[tuple[int, ...], Fraction], ...] = (),
    ) -> None:
        if nonzero_residuals != len(witnesses):
            raise ValueError("witness list must match the nonzero-residual count")
        super().__init__(identity, operands, residuals_checked, nonzero_residuals, witnesses)

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
    # the minors deleting both i and j first: each chain is then asked its shallower
    # depth first, so no call rebuilds a snapshot from below one it already holds
    m_ij, q_i = minor[(i,), (j,)]
    m_ji, q_j = minor[(j,), (i,)]
    m_pair, _ = minor[pair, pair]
    m_ii, _ = minor[(i,), (i,)]
    m_jj, _ = minor[(j,), (j,)]
    det, _ = minor[(), ()]
    # each product keeps every row twice but i and j once: all are over q_i * q_j
    return Fraction(m_ii * m_jj - m_ij * m_ji - m_pair * det, q_i * q_j)


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
    """Three-term relation on minors sharing one deleted row pair: ``three_term_residual``
    on the core block and the restricted columns k < l < s < r.

    With comp(x, y) the determinant after deleting ``row_pair`` and columns {x, y},
    returns (-1)^(k+l+s+r) * (comp(k,l)comp(s,r) - comp(k,s)comp(l,r) + comp(k,r)comp(l,s)):
    each product of two halves carries that common column-append sign.
    """
    rows, quad = _checked(matrix, row_pair, cols)
    if len(rows) != 2:
        raise ValueError(f"need 2 deleted rows and 4 chosen columns, got {len(rows)}")
    q, half = _minors(matrix).halves(rows, quad)
    return Fraction(_three_term(half), q * q)


def generalized_pluecker_residual(
    matrix: Matrix, del_rows: Iterable[int], chosen_cols: Iterable[int]
) -> Fraction:
    """Splitting relation over r deleted rows and 2r chosen columns: the splitting sum
    over the core block (the rows and all chosen columns deleted) and the chosen columns
    restricted to the surviving rows, in ascending order, signed by list positions.  The
    raw-index sign prefactor of the signed-cofactor reading is a constant across terms
    and is deliberately not reproduced."""
    rows, cols = _checked(matrix, del_rows, chosen_cols)
    q, half = _minors(matrix).halves(rows, cols)
    return Fraction(_splitting_sum(len(rows), half), q * q)


def _checked(
    matrix: Matrix, del_rows: Iterable[int], chosen_cols: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The deleted rows and chosen columns as index sets, once they form a splitting of
    the square matrix: r >= 1 rows, 2r columns and an order of at least 2r."""
    rows = index_set(del_rows)
    cols = index_set(chosen_cols)
    r = len(rows)
    if r < 1 or len(cols) != 2 * r:
        raise ValueError(f"need r deleted rows and 2r chosen columns, got {r} and {len(cols)}")
    if not matrix.is_square:
        raise ValueError(f"need a square matrix, got {matrix.rows}x{matrix.cols}")
    if matrix.rows < 2 * r:
        raise ValueError(f"order {matrix.rows} too small for 2r = {2 * r} chosen columns")
    return rows, cols
