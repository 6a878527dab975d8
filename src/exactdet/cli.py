"""Command-line front end: determinants, identity sweeps, Pfaffians, fuzzing.

Each subcommand returns its run report; ``main`` alone prints it, in the
format and on the stream the parser fixes, and maps its verdict to an exit code.

Exit codes: 0 all checks pass, 1 a residual or engine differential failed
(which would mean an implementation bug, the identities are theorems), and
2 for usage, parse, or dimension errors.  Diagnostics go to stderr only.

Sweep policy (fixed constants, also shown in --help): index choices are
enumerated exhaustively for matrices of order <= 6 and sampled with the
seeded generator beyond that; the Laplace engine joins the differential
only up to order 7, and ``det --engine laplace`` refuses larger orders with
exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Sequence, TextIO

from .core import Matrix, _parse_count, _quote, format_scalar
from .engines import (
    DodgsonResult,
    _minors,
    complementary_minor,
    det_bareiss,
    det_dodgson,
    det_laplace,
    first_minor,
)
from .jacobi import (
    _splitting_residuals,
    generalized_pluecker_residual,
    jacobi_residual,
    minor_three_term_residual,
    verify_all_jacobi,
)
from .matfile import emit_matrix_json, emit_matrix_text, parse_matrix
from .pfaffian import (
    antisymmetric_from_matrix,
    determinant_embedding,
    embedded_minor,
    jacobi_recurrence_residual,
    pfaffian,
)
from .randgen import SplitMix64, random_matrix, trial_stream

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

EXHAUSTIVE_LIMIT = 6  # sweep all index choices up to this order, sample beyond
SAMPLE_COUNT = 60  # sampled index choices per identity and splitting order
VERIFY_SAMPLE_SEED = 0  # fixed stream seed for sampled verify sweeps
LAPLACE_LIMIT = 7  # largest order fed to the Laplace oracle

IDENTITY_NAMES = ("jacobi", "three-term", "generalized", "pluecker")

# splitting orders r (r rows, 2r columns) per row-and-column family, the orders a sweep
# covers and the only ones a single selection accepts, each mapped to its formula: True
# for the signed three-term formula, False for the full signed splitting sum
_SPLITTINGS = {
    "three-term": {2: True},
    "generalized": {1: False, 2: False, 3: False},
    "pluecker": {1: False, 2: True},
}

Witness = tuple[str, Fraction]


def _read_square_matrix(args: argparse.Namespace) -> Matrix:
    if args.file == "-":
        matrix = parse_matrix(sys.stdin.read())
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            matrix = parse_matrix(handle.read())
    if not matrix.is_square:
        raise ValueError(f"{args.command} needs a square matrix, got {matrix.rows}x{matrix.cols}")
    return matrix


def _value_record(check: str, operands: str, value: Fraction, passed: bool = True) -> dict:
    return {"check": check, "operands": operands, "value": format_scalar(value), "pass": passed}


def _residual_record(check: str, operands: str, residual: Fraction) -> dict:
    return {
        "check": check,
        "operands": operands,
        "residual": format_scalar(residual),
        "pass": residual == 0,
    }


def _report(command: dict, records: list[dict], seed: int | None = None) -> dict:
    failures = sum(1 for rec in records if not rec["pass"])
    report: dict = {"command": command}
    if seed is not None:
        report["seed"] = seed
    report["results"] = records
    report["summary"] = {
        "checks": len(records),
        "failures": failures,
        "pass": failures == 0,
    }
    return report


def _print_report(report: dict, as_json: bool, out: TextIO) -> None:
    if as_json:
        out.write(json.dumps(report, indent=2) + "\n")
        return
    for rec in report["results"]:
        detail = (
            f"value {rec['value']}" if "value" in rec else f"residual {rec['residual']}"
        )
        status = "pass" if rec["pass"] else "FAIL"
        out.write(f"{rec['check']} [{rec['operands']}]: {detail}: {status}\n")
    summary = report["summary"]
    status = "pass" if summary["pass"] else "FAIL"
    out.write(f"overall: {status} ({summary['checks']} checks, {summary['failures']} failures)\n")


# ---------------------------------------------------------------------------
# identity sweeps


def _sampled_index_set(gen: SplitMix64, n: int, size: int) -> tuple[int, ...]:
    chosen: set[int] = set()
    while len(chosen) < size:
        chosen.add(gen.next_int(1, n))
    return tuple(sorted(chosen))


def _choices(r: int, n: int, gen: SplitMix64) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every index choice of splitting order r a sweep checks at order n: r rows and 2r
    columns, all of them up to EXHAUSTIVE_LIMIT, SAMPLE_COUNT seeded draws beyond."""
    if n <= EXHAUSTIVE_LIMIT:
        indices = range(1, n + 1)
        return list(product(combinations(indices, r), combinations(indices, 2 * r)))
    return [
        (_sampled_index_set(gen, n, r), _sampled_index_set(gen, n, 2 * r))
        for _ in range(SAMPLE_COUNT)
    ]


def _sweep(name: str, matrix: Matrix, gen: SplitMix64) -> tuple[int, list[Witness]]:
    """The number of residuals one family's sweep checks, and its nonzero ones.  The
    Jacobi sweep is ``verify_all_jacobi``, every ordered pair from one batch (a 1 x 1
    matrix has none).  A splitting family's sweep is one batch per order r,
    ``_splitting_residuals`` over all its choices through the formula ``_SPLITTINGS``
    names; only a nonzero residual gets a witness label."""
    if name == "jacobi":
        report = verify_all_jacobi(matrix)
        witnesses = [(f"i={i} j={j}", res) for (i, j), res in report.witnesses]
        return report.residuals_checked, witnesses
    checked, witnesses = 0, []
    for r, three_term in _SPLITTINGS[name].items():
        if 2 * r > matrix.rows:
            break
        choices = _choices(r, matrix.rows, gen)
        checked += len(choices)
        for rows, cols, res in _splitting_residuals(matrix, choices, three_term):
            where = f"rows={rows} cols={cols}"
            witnesses.append((where if name == "three-term" else f"r={r} {where}", res))
    return checked, witnesses


def _sweep_record(name: str, matrix: Matrix, gen: SplitMix64) -> dict:
    checked, witnesses = _sweep(name, matrix, gen)
    operands = f"n={matrix.rows} residuals={checked}"
    if not witnesses:
        return _residual_record(name, operands, Fraction(0))
    shown = "; ".join(f"{where} residual {format_scalar(res)}" for where, res in witnesses[:10])
    suffix = f" (+{len(witnesses) - 10} more)" if len(witnesses) > 10 else ""
    operands += f" nonzero={len(witnesses)} witnesses: {shown}{suffix}"
    return _residual_record(name, operands, witnesses[0][1])


def _selected_identities(selection: str) -> tuple[str, ...]:
    return IDENTITY_NAMES if selection == "all" else (selection,)


# ---------------------------------------------------------------------------
# commands


def _differential(n: int) -> tuple[str, ...]:
    """Engines cross-checked at order n: the Laplace oracle only up to LAPLACE_LIMIT."""
    return ("laplace", "bareiss", "dodgson") if n <= LAPLACE_LIMIT else ("bareiss", "dodgson")


def _determinants(
    matrix: Matrix, engines: Sequence[str]
) -> tuple[dict[str, Fraction], DodgsonResult | None, bool]:
    """Each engine's value, the Dodgson result when that engine ran, and the
    differential's verdict: whether every engine gave the same value."""
    values: dict[str, Fraction] = {}
    dodgson = None
    for engine in engines:
        if engine == "laplace":
            values[engine] = det_laplace(matrix)
        elif engine == "bareiss":
            values[engine] = det_bareiss(matrix)
        else:
            dodgson = det_dodgson(matrix)
            values[engine] = dodgson.value
    return values, dodgson, len(set(values.values())) == 1


def _cmd_det(args: argparse.Namespace) -> dict:
    matrix = _read_square_matrix(args)
    n = matrix.rows
    if args.engine not in _differential(n) + ("all",):
        raise ValueError(f"--engine laplace runs only up to n = {LAPLACE_LIMIT}, got n = {n}")
    engines = _differential(n) if args.engine == "all" else (args.engine,)
    values, dodgson, agree = _determinants(matrix, engines)
    records = []
    for engine, value in values.items():
        operands = f"n={n}"
        if engine == "dodgson":
            operands += f" fallback={str(dodgson.fallback_used).lower()}"
            if dodgson.fallback_used:
                operands += f" depth={dodgson.fallback_depth}"
        records.append(_value_record(engine, operands, value))
    if args.engine == "all":
        records.append(
            _value_record("engines-agree", f"n={n} engines={len(values)}", values["bareiss"], agree)
        )
    return _report({"name": "det", "file": args.file, "engine": args.engine}, records)


def _parse_indices(text: str) -> tuple[int, ...]:
    """Comma-separated counts, each with optional surrounding whitespace."""
    error = f"malformed index list {_quote(text)}"
    return tuple(_parse_count(tok.strip(), error) for tok in text.split(","))


def _integer_option(text: str, signed: bool = False) -> int:
    """An integer option's value: a count as ``_parse_count`` reads it, after one leading
    '-' if ``signed``.  argparse reports the ArgumentTypeError and exits 2."""
    negative = signed and text.startswith("-")
    error = f"malformed {'integer' if signed else 'count'} {_quote(text)}"
    try:
        value = _parse_count(text[negative:], error)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return -value if negative else value


def _cmd_verify(args: argparse.Namespace) -> dict:
    matrix = _read_square_matrix(args)
    # an empty list is a selection too, and _parse_indices refuses it
    selection = {
        key: getattr(args, key) for key in ("pair", "rows", "cols") if getattr(args, key) is not None
    }
    records = []
    if selection:
        if args.identity == "all":
            raise ValueError("index selections require a specific identity")
        records.append(_verify_selection(matrix, args))
    else:
        gen = trial_stream(VERIFY_SAMPLE_SEED, 0)
        for name in _selected_identities(args.identity):
            records.append(_sweep_record(name, matrix, gen))
    command = {"name": "verify", "file": args.file, "identity": args.identity, **selection}
    return _report(command, records)


def _verify_selection(matrix: Matrix, args: argparse.Namespace) -> dict:
    name = args.identity
    if name == "jacobi":
        if args.pair is None or args.rows is not None or args.cols is not None:
            raise ValueError("jacobi selection takes --pair i,j")
        pair = _parse_indices(args.pair)
        if len(pair) != 2:
            raise ValueError("--pair needs exactly two indices")
        operands = f"n={matrix.rows} i={pair[0]} j={pair[1]}"
        residual = jacobi_residual(matrix, *pair)
    else:
        if args.pair is not None or args.rows is None or args.cols is None:
            raise ValueError(f"{name} selection takes --rows and --cols")
        rows = _parse_indices(args.rows)
        cols = _parse_indices(args.cols)
        operands = f"n={matrix.rows} rows={rows} cols={cols}"
        orders = _SPLITTINGS[name]
        if len(rows) not in orders or len(cols) != 2 * len(rows):
            raise ValueError(f"{name} selection needs r rows and 2r columns, r in {set(orders)}")
        check = minor_three_term_residual if orders[len(rows)] else generalized_pluecker_residual
        residual = check(matrix, rows, cols)
    return _residual_record(name, operands, residual)


def _cmd_pfaffian(args: argparse.Namespace) -> dict:
    matrix = _read_square_matrix(args)
    skew = antisymmetric_from_matrix(matrix)
    pf = pfaffian(skew)
    records = [_value_record("pfaffian", f"order={skew.order}", pf)]
    if args.check == "square":
        det = det_bareiss(matrix)
        operands = f"order={skew.order} det={format_scalar(det)}"
        records.append(_residual_record("pfaffian-square", operands, pf * pf - det))
    elif args.check == "recurrence":
        res = jacobi_recurrence_residual(skew)
        records.append(_residual_record("pfaffian-recurrence", f"order={skew.order}", res))
    return _report({"name": "pfaffian", "file": args.file, "check": args.check}, records)


def _embedded_minor_cases(matrix: Matrix) -> Iterator[tuple[str, set[str], Fraction]]:
    """Every first minor, then every principal double minor, with the
    embedding labels whose removal must give the same value."""
    indices = range(1, matrix.rows + 1)
    for i, j in product(indices, repeat=2):
        yield f"minor ({i},{j})", {f"{i}", f"{j}*"}, first_minor(matrix, i, j)
    for i, j in combinations(indices, 2):
        yield (
            f"double minor ({i},{j})",
            {f"{i}", f"{j}", f"{i}*", f"{j}*"},
            complementary_minor(matrix, (i, j), (i, j)),
        )


def _cmd_embed(args: argparse.Namespace) -> dict:
    matrix = _read_square_matrix(args)
    n = matrix.rows
    embedded = determinant_embedding(matrix)
    det = det_bareiss(matrix)
    pf = pfaffian(embedded)
    operands = f"n={n} det={format_scalar(det)} pf={format_scalar(pf)}"
    records = [_residual_record("embedding", operands, pf - det)]
    if args.minors:
        # one recursion writes every first minor and principal double minor the cases
        # read into the table; those a zero pivot leaves out are eliminated as slices
        _minors(matrix).pairs(tuple(range(1, n + 1)))
        mismatch: tuple[str, Fraction] | None = None
        for checked, (label, removal, expected) in enumerate(_embedded_minor_cases(matrix), 1):
            got = embedded_minor(matrix, removal)
            if got != expected and mismatch is None:
                mismatch = (label, got - expected)
        operands = f"n={n} correspondences={checked}"
        if mismatch is not None:
            operands += f" first-mismatch {mismatch[0]}"
        residual = Fraction(0) if mismatch is None else mismatch[1]
        records.append(_residual_record("embedded-minors", operands, residual))
    full = embedded.to_matrix()
    sys.stdout.write(
        emit_matrix_json(full) if args.format == "json" else emit_matrix_text(full)
    )
    return _report({"name": "embed", "file": args.file, "minors": bool(args.minors)}, records)


def _cmd_fuzz(args: argparse.Namespace) -> dict:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.size_max < 2:
        raise ValueError("--size-max must be >= 2")
    if args.entry_bound < 1:
        raise ValueError("--entry-bound must be >= 1")
    identities = _selected_identities(args.identity)
    records = []
    for trial in range(args.trials):
        gen = trial_stream(args.seed, trial)
        n = gen.next_int(2, args.size_max)
        matrix = random_matrix(gen, n, n, args.entry_bound)
        values, dodgson, agree = _determinants(matrix, _differential(n))
        operands = (
            f"trial={trial} n={n} engines={len(values)} "
            f"fallback={str(dodgson.fallback_used).lower()}"
        )
        records.append(_value_record("engines", operands, values["bareiss"], agree))
        for name in identities:
            rec = _sweep_record(name, matrix, gen)
            rec["operands"] = f"trial={trial} " + rec["operands"]
            records.append(rec)
    command = {
        "name": "fuzz",
        "seed": args.seed,
        "trials": args.trials,
        "size_max": args.size_max,
        "entry_bound": args.entry_bound,
        "identity": args.identity,
    }
    return _report(command, records, seed=args.seed)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactdet",
        description=(
            "Exact rational determinants, minors, Pfaffians, and "
            "determinant-identity verification. Matrix files are text "
            "('rows cols' header then scalar rows) or the JSON equivalent; "
            "pass '-' to read standard input. Scalars are 'p' or 'p/q'."
        ),
        epilog=(
            f"Sweeps enumerate all index choices exhaustively for n <= {EXHAUSTIVE_LIMIT} "
            f"and sample {SAMPLE_COUNT} seeded choices per family and splitting order "
            f"beyond (jacobi: all ordered pairs); the Laplace engine joins differentials "
            f"up to n = {LAPLACE_LIMIT}. Exit codes: 0 pass, 1 violation, 2 usage/parse."
        ),
    )
    # the report goes to stdout unless a subcommand fixes another stream
    parser.set_defaults(stream="stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    det = sub.add_parser("det", help="compute a determinant")
    det.add_argument("file", help="matrix file, or - for stdin")
    det.add_argument(
        "--engine",
        choices=("laplace", "bareiss", "dodgson", "all"),
        default="all",
        help=(
            f"engine selection; 'all' cross-checks Bareiss and Dodgson, plus "
            f"Laplace up to n = {LAPLACE_LIMIT} (default); 'laplace' refuses "
            f"n > {LAPLACE_LIMIT}"
        ),
    )
    det.add_argument("--json", action="store_true", help="emit the JSON run report")
    det.set_defaults(func=_cmd_det)

    verify = sub.add_parser("verify", help="verify determinant identities")
    verify.add_argument("file", help="matrix file, or - for stdin")
    verify.add_argument(
        "--identity",
        choices=IDENTITY_NAMES + ("all",),
        default="all",
        help="which identity family to sweep (default: all)",
    )
    verify.add_argument("--pair", help="jacobi only: single pair 'i,j'")
    verify.add_argument("--rows", help="row index list 'i,j' for a single check")
    verify.add_argument("--cols", help="column index list 'k,l,...' for a single check")
    verify.add_argument("--json", action="store_true", help="emit the JSON run report")
    verify.set_defaults(func=_cmd_verify)

    pf = sub.add_parser("pfaffian", help="Pfaffian of an antisymmetric matrix")
    pf.add_argument("file", help="matrix file, or - for stdin")
    pf.add_argument(
        "--check",
        choices=("none", "square", "recurrence"),
        default="none",
        help="also check pf^2 = det, or the minor recurrence",
    )
    pf.add_argument("--json", action="store_true", help="emit the JSON run report")
    pf.set_defaults(func=_cmd_pfaffian)

    embed = sub.add_parser(
        "embed", help="emit the Pfaffian embedding of a determinant"
    )
    embed.add_argument("file", help="matrix file, or - for stdin")
    embed.add_argument(
        "--minors",
        action="store_true",
        help="also verify the minor correspondences for every index pair",
    )
    embed.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="matrix output format on stdout (default text)",
    )
    embed.set_defaults(func=_cmd_embed, json=False, stream="stderr")

    fuzz = sub.add_parser("fuzz", help="seeded differential fuzzing")
    fuzz.add_argument(
        "--seed",
        type=lambda text: _integer_option(text, signed=True),
        required=True,
        help="generator seed",
    )
    fuzz.add_argument(
        "--trials", type=_integer_option, required=True, help="number of trials (>= 1)"
    )
    fuzz.add_argument(
        "--size-max", type=_integer_option, default=6, help="largest matrix order (>= 2)"
    )
    fuzz.add_argument(
        "--entry-bound", type=_integer_option, default=9, help="entries drawn from [-bound, bound]"
    )
    fuzz.add_argument(
        "--identity",
        choices=IDENTITY_NAMES + ("all",),
        default="all",
        help="identity families to sweep per trial (default: all)",
    )
    fuzz.set_defaults(func=_cmd_fuzz, json=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
        _print_report(report, args.json, getattr(sys, args.stream))
    except (ValueError, IndexError, OSError) as exc:
        print(f"exactdet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if report["summary"]["pass"] else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
