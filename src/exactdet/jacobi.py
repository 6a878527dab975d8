"""Exact-zero residuals for the minor identities of a single square matrix.

Two families, both over the matrix's one minor table, each checked by one batch:

* the two-by-two minor identity
  ``M_ii * M_jj - M_ij * M_ji = comp(A; {i,j}, {i,j}) * det A`` on unsigned minors:
  one recursive principal-pivot elimination (``_Minors.pairs``) writes the minors of
  every pair of an index set into the table: all indices for ``verify_all_jacobi``,
  which the CLI's sweep reads, and the pair itself for ``jacobi_residual``, the
  one-leaf case; each ascending pair's minors are then read back (``_Minors.pair``),
  which eliminates those a zero pivot left unwritten.  det A is the table's own
  elimination in index order, so each residual compares two elimination orders; the
  batch is ``_jacobi_residuals``.  A matrix of order 0 or 1 has no pair and passes,
* the splitting relations over r deleted rows and 2r chosen columns.  Deleting
  the rows and every chosen column leaves a core block; each half-determinant
  det(core | some chosen columns, restricted to the kept rows) is a minor of A
  times its column-append sign, and the table serves all of one choice's halves
  (``_Minors.halves``).  The batch ``_splitting_residuals`` sums each choice's
  integer halves: the full signed splitting sum, or at r = 2 the three-term formula.
  The CLI's splitting sweeps run it over all of an order's choices, and
  ``generalized_pluecker_residual`` and ``minor_three_term_residual`` each on one
  choice, through the one step that validates it (``_one_choice``).

Both families share one check that the matrix is square (``_require_square``).

The two batches are the only code that turns table integers into residuals, and they
share one contract: each returns only the nonzero residuals, and asks ``_Minors.q`` for
a denominator only for those.  Every product in one residual keeps the same rows with
the same multiplicity (each row twice but i and j once for the two-by-two identity; the
core rows twice for a splitting), so all its products share one denominator, and a
passing batch builds no ``Fraction``.

Every function returns the residual as an exact Scalar so callers assert
zero themselves; a nonzero residual always signals an implementation bug,
never a property of the input matrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
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
    minor is undefined under any deletion convention.  The indices are then read as
    an index set, as ``complementary_minor`` reads them: a non-integer, a bool or an
    index below 1 raises ValueError, and one past the matrix the IndexError of the
    table's read of M_ij, which names i and j in the caller's order.
    """
    _require_square(matrix)
    if i == j:
        raise ValueError("indices i and j must differ")
    pair = index_set((i, j))
    if pair[1] > matrix.rows:
        _minors(matrix)[(i,), (j,)]  # an index past the matrix: the table raises IndexError
    return _jacobi_residuals(matrix, pair).get(pair, Fraction(0))


def _jacobi_residuals(
    matrix: Matrix, indices: tuple[int, ...] = ()
) -> dict[tuple[int, int], Fraction]:
    """The nonzero residual of each pair i < j of the ascending ``indices`` (by default
    every pair): one recursion (``_Minors.pairs``) writes their minors into the table, a
    single pair (i, j) being its one-leaf case, and each pair's are read back
    (``_Minors.pair``).  A residual is symmetric in i and j, so it serves both ordered
    pairs."""
    table = _minors(matrix)
    indices = indices or tuple(range(1, matrix.rows + 1))
    table.pairs(indices)
    # det A is the table's own elimination in index order, so each residual compares two
    # elimination orders; each product keeps every row twice but i and j once
    det = table[(), ()]
    residuals = {}
    for i, j in combinations(indices, 2):
        m_ii, m_jj, m_ij, m_ji, m_pair = table.pair(i, j)
        total = m_ii * m_jj - m_ij * m_ji - m_pair * det
        if total:
            residuals[i, j] = Fraction(total, table.q((i,)) * table.q((j,)))
    return residuals


def verify_all_jacobi(matrix: Matrix) -> IdentityReport:
    """Evaluate the two-by-two minor identity over every ordered pair i != j; a matrix
    of order 0 or 1 has none, and passes with 0 residuals checked."""
    _require_square(matrix)
    n = matrix.rows
    residuals = _jacobi_residuals(matrix)
    witnesses = [
        ((i, j), res)
        for i, j in permutations(range(1, n + 1), 2)
        if (res := residuals.get((min(i, j), max(i, j))))
    ]
    checked = n * (n - 1)
    return IdentityReport(
        identity="jacobi",
        operands=f"{n}x{n}, all {checked} ordered pairs",
        residuals_checked=checked,
        nonzero_residuals=len(witnesses),
        witnesses=tuple(witnesses),
    )


def _require_square(matrix: Matrix) -> None:
    if not matrix.is_square:
        raise ValueError(f"need a square matrix, got {matrix.rows}x{matrix.cols}")


def minor_three_term_residual(
    matrix: Matrix, row_pair: Iterable[int], cols: Iterable[int]
) -> Fraction:
    """Three-term relation on minors sharing one deleted row pair: ``three_term_residual``
    on the core block and the restricted columns k < l < s < r.

    With comp(x, y) the determinant after deleting ``row_pair`` and columns {x, y},
    returns (-1)^(k+l+s+r) * (comp(k,l)comp(s,r) - comp(k,s)comp(l,r) + comp(k,r)comp(l,s)):
    each product of two halves carries that common column-append sign.
    """
    return _one_choice(matrix, row_pair, cols, three_term=True)


def generalized_pluecker_residual(
    matrix: Matrix, del_rows: Iterable[int], chosen_cols: Iterable[int]
) -> Fraction:
    """Splitting relation over r deleted rows and 2r chosen columns: the splitting sum
    over the core block (the rows and all chosen columns deleted) and the chosen columns
    restricted to the surviving rows, in ascending order, signed by list positions.  The
    raw-index sign prefactor of the signed-cofactor reading is a constant across terms
    and is deliberately not reproduced."""
    return _one_choice(matrix, del_rows, chosen_cols, three_term=False)


def _splitting_residuals(
    matrix: Matrix, choices: Iterable[tuple[tuple[int, ...], tuple[int, ...]]], three_term: bool
) -> list[tuple[tuple[int, ...], tuple[int, ...], Fraction]]:
    """The nonzero splitting residuals of the square matrix at the ``choices``, in their
    order, each as (rows, cols, residual).  Each choice's halves are read from the table
    once (``_Minors.halves``) and summed as integers, by the three-term formula if
    ``three_term``, else by the full signed splitting sum.  A choice is r ascending
    deleted rows and 2r ascending chosen columns, with 2r at most the order, and r = 2 if
    ``three_term``; the caller has checked that."""
    table = _minors(matrix)
    found = []
    for rows, cols in choices:
        half = table.halves(rows, cols)
        total = _three_term(half) if three_term else _splitting_sum(len(rows), half)
        if total:
            found.append((rows, cols, Fraction(total, table.q(rows) ** 2)))
    return found


def _one_choice(
    matrix: Matrix, del_rows: Iterable[int], chosen_cols: Iterable[int], three_term: bool
) -> Fraction:
    """``_splitting_residuals`` on one choice, once the deleted rows and chosen columns,
    read as index sets, form a splitting of the square matrix: r >= 1 rows, 2r columns,
    an order of at least 2r, and r = 2 if ``three_term``."""
    rows = index_set(del_rows)
    cols = index_set(chosen_cols)
    r = len(rows)
    if r < 1 or len(cols) != 2 * r:
        raise ValueError(f"need r deleted rows and 2r chosen columns, got {r} and {len(cols)}")
    _require_square(matrix)
    if matrix.rows < 2 * r:
        raise ValueError(f"order {matrix.rows} too small for 2r = {2 * r} chosen columns")
    if three_term and r != 2:
        raise ValueError(f"need 2 deleted rows and 4 chosen columns, got {r}")
    found = _splitting_residuals(matrix, [(rows, cols)], three_term)
    return found[0][2] if found else Fraction(0)
