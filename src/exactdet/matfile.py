"""Matrix file formats: whitespace text and a structurally equivalent JSON form.

Text format: a header line ``rows cols`` (positive integers) followed by
``rows`` lines of ``cols`` whitespace-separated scalar tokens (``p`` or
``p/q``).  UTF-8, newline-terminated lines.

JSON format: ``{"rows": n, "cols": m, "entries": [[...], ...]}`` with each
entry a scalar string (integers are also accepted on input).  Input format
is sniffed from the first non-blank character, so both forms are accepted
everywhere a matrix file is read.
"""

from __future__ import annotations

import json

from .core import Matrix, _parse_count, _quote, format_scalar, parse_scalar, scalar


def _shaped(rows, cols, body, convert) -> Matrix:
    """The rows x cols matrix whose body is a list of entry lists, each
    entry converted by convert, each distinct string entry once; the one
    shape check for both formats."""
    if any(not isinstance(dim, int) or isinstance(dim, bool) or dim < 1 for dim in (rows, cols)):
        shown = f"{_quote(rows)} {_quote(cols)}"
        raise ValueError(f"matrix dimensions must be positive integers, got {shown}")
    if not isinstance(body, list):
        raise ValueError(f"expected a list of {_quote(rows)} matrix rows, got {_quote(body)}")
    if len(body) != rows:
        raise ValueError(f"expected {_quote(rows)} matrix rows, found {len(body)}")
    for row in body:
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"expected {_quote(cols)} entries per row, got {_quote(row)}")
    seen: dict = {}

    def entry(value):
        if not isinstance(value, str):
            return convert(value)
        if value not in seen:
            seen[value] = convert(value)
        return seen[value]

    return Matrix(rows, cols, tuple(tuple(entry(v) for v in row) for row in body))


def parse_matrix_text(text: str) -> Matrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    error = f"header must be 'rows cols', got {_quote(lines[0])}"
    if len(header) != 2:
        raise ValueError(error)
    rows, cols = (_parse_count(tok, error) for tok in header)
    return _shaped(rows, cols, [line.split() for line in lines[1:]], parse_scalar)


def parse_matrix_json(text: str) -> Matrix:
    try:
        # integer literals obey the scalar digit limit too
        data = json.loads(text, parse_int=lambda literal: parse_scalar(literal).numerator)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON matrix: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("JSON matrix must be an object")
    missing = {"rows", "cols", "entries"} - data.keys()
    if missing:
        raise ValueError(f"JSON matrix missing keys: {sorted(missing)}")
    return _shaped(data["rows"], data["cols"], data["entries"], scalar)


def parse_matrix(text: str) -> Matrix:
    """Parse either format, sniffing JSON from a leading '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_matrix_json(text)
    return parse_matrix_text(text)


def emit_matrix_text(matrix: Matrix) -> str:
    if matrix.rows < 1 or matrix.cols < 1:
        raise ValueError("matrix files require positive dimensions")
    lines = [f"{matrix.rows} {matrix.cols}"]
    for row in matrix.entries:
        lines.append(" ".join(format_scalar(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_matrix_json(matrix: Matrix) -> str:
    if matrix.rows < 1 or matrix.cols < 1:
        raise ValueError("matrix files require positive dimensions")
    payload = {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [[format_scalar(v) for v in row] for row in matrix.entries],
    }
    return json.dumps(payload, indent=2) + "\n"
