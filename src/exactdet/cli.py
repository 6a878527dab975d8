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

from .core import Matrix, format_scalar
from .engines import (
    DodgsonResult,
    complementary_minor,
    det_bareiss,
    det_dodgson,
    det_laplace,
    first_minor,
)
from .jacobi import (
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

# splitting orders r (r rows, 2r columns) per row-and-column family: the
# orders a sweep covers and the only ones a single selection accepts
_SPLITTINGS = {"three-term": (2,), "generalized": (1, 2, 3), "pluecker": (1, 2)}

Witness = tuple[str, Fraction]


def _read_matrix(path: str) -> Matrix:
    if path == "-":
        return parse_matrix(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix(handle.read())


def _read_square_matrix(args: argparse.Namespace) -> Matrix:
    matrix = _read_matrix(args.file)
    if not matrix.is_square:
        raise ValueError(f"{args.command} needs a square matrix, got {matrix.rows}x{matrix.cols}")
    return matrix


def _record(
    check: str,
    operands: str,
    *,
    value: str | None = None,
    residual: str | None = None,
    passed: bool,
) -> dict:
    rec: dict = {"check": check, "operands": operands}
    if value is not None:
        rec["value"] = value
    if residual is not None:
        rec["residual"] = residual
    rec["pass"] = passed
    return rec


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


def _row_col_choices(
    n: int, row_size: int, col_size: int, gen: SplitMix64
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    if n <= EXHAUSTIVE_LIMIT:
        for rows in combinations(range(1, n + 1), row_size):
            for cols in combinations(range(1, n + 1), col_size):
                yield rows, cols
    else:
        for _ in range(SAMPLE_COUNT):
            yield _sampled_index_set(gen, n, row_size), _sampled_index_set(gen, n, col_size)


def _residual(name: str, matrix: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    """One row-and-column family's residual, read from the matrix's one minor table:
    every order-2 splitting of ``three-term`` and ``pluecker`` through the signed
    three-term formula, every other choice through the full signed splitting sum."""
    if name != "generalized" and len(rows) == 2:
        return minor_three_term_residual(matrix, rows, cols)
    return generalized_pluecker_residual(matrix, rows, cols)


def _sweep(name: str, matrix: Matrix, gen: SplitMix64) -> tuple[int, list[Witness]]:
    n = matrix.rows
    if name == "jacobi":
        if n < 2:
            return 0, []
        report = verify_all_jacobi(matrix)
        witnesses = [(f"i={i} j={j}", res) for (i, j), res in report.witnesses]
        return report.residuals_checked, witnesses
    checked = 0
    witnesses: list[Witness] = []
    for r in _SPLITTINGS[name]:
        if 2 * r > n:
            break
        for rows, cols in _row_col_choices(n, r, 2 * r, gen):
            res = _residual(name, matrix, rows, cols)
            checked += 1
            if res != 0:
                where = f"rows={rows} cols={cols}"
                witnesses.append((where if name == "three-term" else f"r={r} {where}", res))
    return checked, witnesses


def _sweep_record(name: str, matrix: Matrix, gen: SplitMix64) -> dict:
    checked, witnesses = _sweep(name, matrix, gen)
    n = matrix.rows
    if witnesses:
        shown = "; ".join(
            f"{where} residual {format_scalar(res)}" for where, res in witnesses[:10]
        )
        suffix = f" (+{len(witnesses) - 10} more)" if len(witnesses) > 10 else ""
        return _record(
            name,
            f"n={n} residuals={checked} nonzero={len(witnesses)} "
            f"witnesses: {shown}{suffix}",
            residual=format_scalar(witnesses[0][1]),
            passed=False,
        )
    return _record(name, f"n={n} residuals={checked}", residual="0", passed=True)


def _selected_identities(selection: str) -> tuple[str, ...]:
    return IDENTITY_NAMES if selection == "all" else (selection,)


# ---------------------------------------------------------------------------
# commands


def _differential(n: int) -> tuple[str, ...]:
    """Engines cross-checked at order n: the Laplace oracle only up to LAPLACE_LIMIT."""
    return ("laplace", "bareiss", "dodgson") if n <= LAPLACE_LIMIT else ("bareiss", "dodgson")


def _determinants(
    matrix: Matrix, engines: Sequence[str]
) -> tuple[dict[str, Fraction], DodgsonResult | None]:
    """Each engine's value, plus the Dodgson result when that engine ran."""
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
    return values, dodgson


def _cmd_det(args: argparse.Namespace) -> dict:
    matrix = _read_square_matrix(args)
    n = matrix.rows
    if args.engine not in _differential(n) + ("all",):
        raise ValueError(f"--engine laplace runs only up to n = {LAPLACE_LIMIT}, got n = {n}")
    engines = _differential(n) if args.engine == "all" else (args.engine,)
    values, dodgson = _determinants(matrix, engines)
    records = []
    for engine, value in values.items():
        operands = f"n={n}"
        if engine == "dodgson":
            operands += f" fallback={str(dodgson.fallback_used).lower()}"
            if dodgson.fallback_used:
                operands += f" depth={dodgson.fallback_depth}"
        records.append(_record(engine, operands, value=format_scalar(value), passed=True))
    if args.engine == "all":
        records.append(
            _record(
                "engines-agree",
                f"n={n} engines={len(values)}",
                value=format_scalar(values["bareiss"]),
                passed=len(set(values.values())) == 1,
            )
        )
    return _report({"name": "det", "file": args.file, "engine": args.engine}, records)


def _parse_indices(text: str) -> tuple[int, ...]:
    """Comma-separated runs of ASCII digits, each with optional surrounding whitespace."""
    tokens = [tok.strip() for tok in text.split(",")]
    # as in the matrix header: int() alone also takes "１", "+1" and "1_0"
    if all(tok.isascii() and tok.isdigit() for tok in tokens):
        try:
            return tuple(map(int, tokens))
        except ValueError:  # past the interpreter's integer-string limit
            pass
    raise ValueError(f"malformed index list {text!r}")


def _cmd_verify(args: argparse.Namespace) -> dict:
    matrix = _read_square_matrix(args)
    has_selection = args.pair or args.rows or args.cols
    records = []
    if has_selection:
        if args.identity == "all":
            raise ValueError("index selections require a specific identity")
        records.append(_verify_selection(matrix, args))
    else:
        gen = trial_stream(VERIFY_SAMPLE_SEED, 0)
        for name in _selected_identities(args.identity):
            records.append(_sweep_record(name, matrix, gen))
    command = {"name": "verify", "file": args.file, "identity": args.identity}
    if args.pair:
        command["pair"] = args.pair
    if args.rows:
        command["rows"] = args.rows
    if args.cols:
        command["cols"] = args.cols
    return _report(command, records)


def _verify_selection(matrix: Matrix, args: argparse.Namespace) -> dict:
    name = args.identity
    if name == "jacobi":
        if not args.pair or args.rows or args.cols:
            raise ValueError("jacobi selection takes --pair i,j")
        pair = _parse_indices(args.pair)
        if len(pair) != 2:
            raise ValueError("--pair needs exactly two indices")
        res = jacobi_residual(matrix, pair[0], pair[1])
        operands = f"n={matrix.rows} i={pair[0]} j={pair[1]}"
    else:
        if args.pair or not (args.rows and args.cols):
            raise ValueError(f"{name} selection takes --rows and --cols")
        rows = _parse_indices(args.rows)
        cols = _parse_indices(args.cols)
        operands = f"n={matrix.rows} rows={rows} cols={cols}"
        orders = _SPLITTINGS[name]
        if len(rows) not in orders or len(cols) != 2 * len(rows):
            raise ValueError(f"{name} selection needs r rows and 2r columns, r in {set(orders)}")
        res = _residual(name, matrix, rows, cols)
    return _record(name, operands, residual=format_scalar(res), passed=res == 0)


def _cmd_pfaffian(args: argparse.Namespace) -> dict:
    matrix = _read_matrix(args.file)
    skew = antisymmetric_from_matrix(matrix)
    pf = pfaffian(skew)
    records = [
        _record("pfaffian", f"order={skew.order}", value=format_scalar(pf), passed=True)
    ]
    if args.check == "square":
        det = det_bareiss(matrix)
        records.append(
            _record(
                "pfaffian-square",
                f"order={skew.order} det={format_scalar(det)}",
                residual=format_scalar(pf * pf - det),
                passed=pf * pf == det,
            )
        )
    elif args.check == "recurrence":
        res = jacobi_recurrence_residual(skew)
        records.append(
            _record(
                "pfaffian-recurrence",
                f"order={skew.order}",
                residual=format_scalar(res),
                passed=res == 0,
            )
        )
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
    records = [
        _record(
            "embedding",
            f"n={n} det={format_scalar(det)} pf={format_scalar(pf)}",
            residual=format_scalar(pf - det),
            passed=pf == det,
        )
    ]
    if args.minors:
        mismatch: tuple[str, Fraction] | None = None
        for checked, (label, removal, expected) in enumerate(_embedded_minor_cases(matrix), 1):
            got = embedded_minor(matrix, removal)
            if got != expected and mismatch is None:
                mismatch = (label, got - expected)
        operands = f"n={n} correspondences={checked}"
        if mismatch is not None:
            operands += f" first-mismatch {mismatch[0]}"
        records.append(
            _record(
                "embedded-minors",
                operands,
                residual="0" if mismatch is None else format_scalar(mismatch[1]),
                passed=mismatch is None,
            )
        )
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
        values, dodgson = _determinants(matrix, _differential(n))
        records.append(
            _record(
                "engines",
                f"trial={trial} n={n} engines={len(values)} "
                f"fallback={str(dodgson.fallback_used).lower()}",
                value=format_scalar(values["bareiss"]),
                passed=len(set(values.values())) == 1,
            )
        )
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
            f"Sweeps enumerate all index choices exhaustively for n <= "
            f"{EXHAUSTIVE_LIMIT} and sample {SAMPLE_COUNT} seeded choices per "
            f"identity beyond; the Laplace engine joins differentials up to "
            f"n = {LAPLACE_LIMIT}. Exit codes: 0 pass, 1 violation, 2 usage/parse."
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
    fuzz.add_argument("--seed", type=int, required=True, help="generator seed")
    fuzz.add_argument("--trials", type=int, required=True, help="number of trials (>= 1)")
    fuzz.add_argument("--size-max", type=int, default=6, help="largest matrix order (>= 2)")
    fuzz.add_argument(
        "--entry-bound", type=int, default=9, help="entries drawn from [-bound, bound]"
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
