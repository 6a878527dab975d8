"""Exact scalars, dense matrices, and index-set plumbing.

Everything in this package computes over arbitrary-precision rationals
(``fractions.Fraction``), so every algebraic identity holds as an exact-zero
residual rather than a small float.  All public indices are 1-based.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import log10
from typing import Iterable, Sequence, Union

Scalar = Fraction

ScalarLike = Union[int, str, Fraction]

_SCALAR_RE = re.compile(r"[+-]?[0-9]+(?:/[+-]?[0-9]+)?\Z")

# Longest numerator or denominator accepted from text, in digits: Python's
# default integer-string limit (3.11, 3.10.7 and later), enforced here so that
# every version agrees and the diagnostic is the program's own.
MAX_SCALAR_DIGITS = 4300
_TOO_MANY_DIGITS = 10**MAX_SCALAR_DIGITS  # the least integer with more digits


def _quote(value: object) -> str:
    """How a diagnostic quotes input: the repr of text cut to its first 20 characters, or
    the first 20 characters of any other value's repr, with "..." marking a cut.  An int
    of more than 256 bits is read from its leading 40 or so digits, the same first 20
    characters, because the interpreter refuses to convert one past 4300 digits."""
    if isinstance(value, str):
        shown, cut = repr(value[:20]), len(value) > 20
    else:
        if type(value) is int and value.bit_length() > 256:
            lead = abs(value) // 10 ** (int(log10(abs(value))) - 40)
            value = lead if value > 0 else -lead
        shown = repr(value)
        shown, cut = shown[:20], len(shown) > 20
    return shown + "..." if cut else shown


def _quote_indices(indices: tuple[int, ...]) -> str:
    """How a diagnostic quotes an index tuple: as its repr, each index by ``_quote``."""
    shown = ", ".join(map(_quote, indices))
    return f"({shown},)" if len(indices) == 1 else f"({shown})"


def parse_scalar(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into a canonical Fraction.

    The grammar is strict: optional sign, digits, optionally ``/`` and a
    signed nonzero integer.  No whitespace, no decimals, no floats, and at
    most ``MAX_SCALAR_DIGITS`` digits in the numerator and the denominator.
    """
    if not isinstance(text, str) or not _SCALAR_RE.match(text):
        raise ValueError(f"malformed scalar {_quote(text)}")
    num, _, den = text.partition("/")
    if max(len(num.lstrip("+-")), len(den.lstrip("+-"))) > MAX_SCALAR_DIGITS:
        raise ValueError(
            f"scalar {text[:20]}... has more than {MAX_SCALAR_DIGITS} digits "
            "in its numerator or denominator"
        )
    if den:
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in scalar {_quote(text)}")
        return Fraction(int(num), d)
    return Fraction(int(num))


def _parse_count(text: str, error: str) -> int:
    """The count ``text`` spells in at most ``MAX_SCALAR_DIGITS`` ASCII digits, else
    ValueError(error).  int() alone also takes "１", "+1", "1_0" and whitespace, and
    past the interpreter's integer-string limit raises a diagnostic of its own."""
    if text.isascii() and text.isdigit() and len(text) <= MAX_SCALAR_DIGITS:
        return int(text)
    raise ValueError(error)


def format_scalar(value: Fraction) -> str:
    """Canonical text form: ``p`` for integers, ``p/q`` otherwise.  More than
    ``MAX_SCALAR_DIGITS`` digits in either part is refused, like such input."""
    if abs(value.numerator) >= _TOO_MANY_DIGITS or value.denominator >= _TOO_MANY_DIGITS:
        raise ValueError(f"a value has more than {MAX_SCALAR_DIGITS} digits to print")
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, scalar text, or Fraction. Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a scalar: {_quote(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise ValueError(f"not a scalar: {_quote(value)}")


def as_vector(values: Iterable[ScalarLike]) -> tuple[Fraction, ...]:
    return tuple(scalar(v) for v in values)


def index_set(indices: Iterable[int]) -> tuple[int, ...]:
    """Normalize to a strictly increasing tuple of positive 1-based indices.  A list
    that cannot be ordered holds a non-integer, and the first one in input order is
    named."""
    out = tuple(indices)
    try:
        out = tuple(sorted(out))
    except TypeError:
        out = tuple(x for x in out if not isinstance(x, int) or isinstance(x, bool))
    for x in out:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"index sets hold positive integers, got {_quote(x)}")
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValueError(f"duplicate index {_quote(a)} in index set")
    return out


class _Record:
    """An immutable value over the fields its subclass lists in ``__slots__``, in constructor
    order: equality, hash, repr, pickling and copying all go through that field tuple.  A
    subclass ``__init__`` validates, then passes every field to ``_Record.__init__``, which
    sets each once; any later assignment or deletion raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # rebuild through __init__: the default slot-state restore would assign
        return type(self), self._values()


class Matrix(_Record):
    """Immutable dense matrix of Fractions with 1-based public indexing.

    Degenerate shapes (0 rows and/or 0 columns) are legal values; they arise
    as complementary minors and as the empty block in column augmentation.
    """

    __slots__ = __match_args__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[Fraction, ...], ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(entries) != rows:
            raise ValueError("row count does not match entries")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
        super().__init__(rows, cols, entries)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[ScalarLike]], cols: int | None = None
    ) -> "Matrix":
        entries = tuple(tuple(scalar(v) for v in row) for row in rows)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        return cls(len(entries), cols, entries)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(
            n, n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def at(self, i: int, j: int) -> Fraction:
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"index ({i},{j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i - 1][j - 1]

    def row_values(self, i: int) -> tuple[Fraction, ...]:
        if not 1 <= i <= self.rows:
            raise IndexError(f"row {i} out of range for {self.rows}x{self.cols}")
        return self.entries[i - 1]

    def column_values(self, j: int) -> tuple[Fraction, ...]:
        if not 1 <= j <= self.cols:
            raise IndexError(f"column {j} out of range for {self.rows}x{self.cols}")
        return tuple(row[j - 1] for row in self.entries)

    def transpose(self) -> "Matrix":
        entries = tuple(
            tuple(row[j] for row in self.entries) for j in range(self.cols)
        )
        return Matrix(self.cols, self.rows, entries)

    def scale(self, factor: ScalarLike) -> "Matrix":
        c = scalar(factor)
        return Matrix(
            self.rows, self.cols, tuple(tuple(c * v for v in row) for row in self.entries)
        )

    def __str__(self) -> str:
        body = "; ".join(" ".join(format_scalar(v) for v in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def submatrix_delete(
    matrix: Matrix, rows: Iterable[int], cols: Iterable[int]
) -> Matrix:
    """Delete the listed 1-based rows and columns, keeping original order.

    Deleting nothing returns the matrix unchanged; deleting everything yields
    a 0x0 matrix, whose determinant is 1 by convention.
    """
    drop_rows = index_set(rows)
    drop_cols = index_set(cols)
    if drop_rows and drop_rows[-1] > matrix.rows:
        raise IndexError(f"row {drop_rows[-1]} out of range for {matrix.rows}x{matrix.cols}")
    if drop_cols and drop_cols[-1] > matrix.cols:
        raise IndexError(f"column {drop_cols[-1]} out of range for {matrix.rows}x{matrix.cols}")
    rset = set(drop_rows)
    cset = set(drop_cols)
    entries = tuple(
        tuple(v for j, v in enumerate(row, start=1) if j not in cset)
        for i, row in enumerate(matrix.entries, start=1)
        if i not in rset
    )
    return Matrix(matrix.rows - len(drop_rows), matrix.cols - len(drop_cols), entries)


def augment_columns(
    matrix: Matrix, vectors: Sequence[Sequence[ScalarLike]]
) -> Matrix:
    """Append column vectors on the right, in the given order."""
    vecs = [as_vector(v) for v in vectors]
    for v in vecs:
        if len(v) != matrix.rows:
            raise ValueError(
                f"column of length {len(v)} cannot augment a {matrix.rows}-row matrix"
            )
    entries = tuple(
        row + tuple(v[i] for v in vecs) for i, row in enumerate(matrix.entries)
    )
    return Matrix(matrix.rows, matrix.cols + len(vecs), entries)
