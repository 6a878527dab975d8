"""Independent answer checks for every operation, and the checks' own self-test.

An operation ends in one of four states:

* ``ok``       every answer matched the benchmark's own reference;
* ``wrong``    a nonzero exit, a ``"pass": false``, a value or residual count
               that disagrees with the reference, or unreadable output;
* ``late``     the operation missed its deadline and was killed;
* ``overrun``  the answers are right, but the report shows the Laplace oracle
               run above the documented order limit (the cost behind the
               missed deadlines of default-engine ``det``).

Everything but ``ok`` counts as a failed operation; only ``wrong`` makes the
run's ``correct`` flag false, since it is the only state in which the program
printed a wrong answer.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction

from plan import IDENTITY_NAMES, LAPLACE_LIMIT, PRIMES, Op, residue, sweep_counts


@dataclass(frozen=True)
class Outcome:
    """What one operation left behind."""

    exit_code: int | None
    stdout: str
    stderr: str
    timed_out: bool = False


@dataclass(frozen=True)
class Verdict:
    status: str  # ok | wrong | late | overrun
    reason: str = ""
    residuals: int = 0


class _Wrong(Exception):
    pass


class _Overrun(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise _Wrong(message)


def _scalar(text: str) -> Fraction:
    _expect(isinstance(text, str) and re.fullmatch(r"-?\d+(/\d+)?", text) is not None,
            f"malformed scalar {text!r}")
    return Fraction(text)


def _congruent(text: str, ref: tuple[int, ...], what: str) -> None:
    value = _scalar(text)
    try:
        got = tuple(residue(value, p) for p in PRIMES)
    except ZeroDivisionError:
        got = None
    shown = text if len(text) <= 40 else text[:37] + "..."
    _expect(got == ref, f"{what} {shown} disagrees with the modular reference")


def _json_report(out: Outcome) -> dict:
    try:
        report = json.loads(out.stdout)
        results, summary = report["results"], report["summary"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise _Wrong(f"unreadable report: {exc}") from None
    _records_pass(results, summary["checks"], summary["failures"], summary["pass"])
    return report


def _records_pass(results: list[dict], checks: int, failures: int, passed: bool) -> None:
    _expect(checks == len(results), f"summary counts {checks} checks for {len(results)} records")
    _expect(failures == 0 and passed is True, "summary reports a failure")
    for rec in results:
        _expect(rec.get("pass") is True, f"record {rec.get('check')} did not pass")


_TEXT_RECORD = re.compile(r"(?P<check>[\w-]+) \[(?P<operands>[^\]]*)\]: (?P<key>value|residual) "
                          r"(?P<x>\S+): (?P<status>pass|FAIL)")
_TEXT_OVERALL = re.compile(r"overall: (?P<status>pass|FAIL) \((?P<checks>\d+) checks, "
                           r"(?P<failures>\d+) failures\)")


def _text_report(text: str) -> list[dict]:
    lines = text.splitlines()
    _expect(bool(lines), "empty report")
    records = []
    for line in lines[:-1]:
        m = _TEXT_RECORD.fullmatch(line)
        _expect(m is not None, f"unreadable report line {line!r}")
        records.append({"check": m["check"], "operands": m["operands"], m["key"]: m["x"],
                        "pass": m["status"] == "pass"})
    m = _TEXT_OVERALL.fullmatch(lines[-1])
    _expect(m is not None, f"unreadable summary line {lines[-1]!r}")
    _records_pass(records, int(m["checks"]), int(m["failures"]), m["status"] == "pass")
    return records


def _names(results: list[dict]) -> list[str]:
    return [rec.get("check") for rec in results]


def _zero_residual(rec: dict) -> None:
    _expect(rec.get("residual") == "0", f"{rec.get('check')} residual {rec.get('residual')!r}")


def _sweep_records(results: list[dict], n: int, prefix: str) -> int:
    counts = sweep_counts(n)
    _expect(_names(results) == list(IDENTITY_NAMES), f"sweep families {_names(results)}")
    for rec in results:
        _zero_residual(rec)
        want = f"{prefix}n={n} residuals={counts[rec['check']]}"
        _expect(rec["operands"] == want, f"{rec['operands']!r}, expected {want!r}")
    return sum(counts.values())


def _check_det(op: Op, out: Outcome) -> int:
    ref = op.ref
    n, engine = ref["n"], ref["engine"]
    results = _json_report(out)["results"]
    if engine == "all":
        engines = (["laplace"] if n <= LAPLACE_LIMIT else []) + ["bareiss", "dodgson"]
        overrun = n > LAPLACE_LIMIT and _names(results)[:1] == ["laplace"]
        if overrun:
            engines = ["laplace"] + engines
        _expect(_names(results) == engines + ["engines-agree"], f"records {_names(results)}")
        _expect(results[-1]["operands"] == f"n={n} engines={len(engines)}",
                f"agreement operands {results[-1]['operands']!r}")
    else:
        overrun = False
        _expect(_names(results) == [engine], f"records {_names(results)}")
    for rec in results:
        _expect(rec["operands"].split()[0] == f"n={n}", f"operands {rec['operands']!r}")
        _congruent(rec.get("value"), ref["det"], rec["check"])
    if overrun:
        raise _Overrun(f"laplace ran at order {n} > {LAPLACE_LIMIT}")
    return 0


def _check_sweep(op: Op, out: Outcome) -> int:
    return _sweep_records(_json_report(out)["results"], op.ref["n"], "")


def _check_select(op: Op, out: Outcome) -> int:
    results = _json_report(out)["results"]
    _expect(_names(results) == [op.ref["identity"]], f"records {_names(results)}")
    _zero_residual(results[0])
    _expect(results[0]["operands"].startswith(f"n={op.ref['n']} "), "selection operands")
    return 1


def _check_pfaffian(op: Op, out: Outcome) -> int:
    ref = op.ref
    results = _json_report(out)["results"]
    names = ["pfaffian", "pfaffian-square" if ref["check"] == "square" else "pfaffian-recurrence"]
    _expect(_names(results) == names, f"records {_names(results)}")
    pf, check = results
    _expect(pf["operands"] == f"order={ref['order']}", f"operands {pf['operands']!r}")
    if ref["pf"] is not None:
        _congruent(pf.get("value"), ref["pf"], "pfaffian")
    else:
        value = _scalar(pf.get("value"))
        squares = tuple(residue(value, p) ** 2 % p for p in PRIMES)
        _expect(squares == ref["det"], "pfaffian squared disagrees with the modular determinant")
    _zero_residual(check)
    if ref["check"] == "square":
        head, _, det = check["operands"].partition(" det=")
        _expect(head == f"order={ref['order']}", f"operands {check['operands']!r}")
        _congruent(det, ref["det"], "determinant")
    return 1


def _emitted_matrix(text: str, fmt: str) -> list[list[Fraction]]:
    try:
        if fmt == "json":
            data = json.loads(text)
            rows = [[_scalar(v) for v in row] for row in data["entries"]]
            _expect(data["rows"] == len(rows) and all(data["cols"] == len(r) for r in rows),
                    "embedding dimensions")
            return rows
        lines = text.splitlines()
        n_rows, n_cols = map(int, lines[0].split())
        rows = [[_scalar(tok) for tok in line.split()] for line in lines[1:]]
        _expect(n_rows == len(rows) and all(n_cols == len(r) for r in rows), "embedding dimensions")
        return rows
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise _Wrong(f"unreadable embedding: {exc}") from None


def _check_embed(op: Op, out: Outcome) -> int:
    ref = op.ref
    n = ref["n"]
    _expect(_emitted_matrix(out.stdout, ref["format"]) == ref["embedding"],
            "emitted embedding differs from the documented construction")
    results = _text_report(out.stderr)
    names = ["embedding"] + (["embedded-minors"] if ref["minors"] else [])
    _expect(_names(results) == names, f"records {_names(results)}")
    m = re.fullmatch(rf"n={n} det=(\S+) pf=(\S+)", results[0]["operands"])
    _expect(m is not None, f"operands {results[0]['operands']!r}")
    _congruent(m[1], ref["det"], "determinant")
    _expect(m[2] == m[1], "embedding Pfaffian differs from the determinant")
    checked = 1
    for rec in results:
        _zero_residual(rec)
    if ref["minors"]:
        expected = n * n + n * (n - 1) // 2
        _expect(results[1]["operands"] == f"n={n} correspondences={expected}",
                f"operands {results[1]['operands']!r}, expected {expected} correspondences")
        checked += expected
    return checked


def _check_fuzz(op: Op, out: Outcome) -> int:
    ref = op.ref
    report = _json_report(out)
    results = report["results"]
    _expect(report.get("seed") == ref["seed"], "report seed")
    trials = ref["trials"]
    width = 1 + len(IDENTITY_NAMES)
    _expect(len(results) == width * len(trials), f"{len(results)} records for {len(trials)} trials")
    checked = 0
    for t, (n, det) in enumerate(trials):
        engines, *sweeps = results[width * t : width * (t + 1)]
        _expect(engines["check"] == "engines", "engines record")
        head = f"trial={t} n={n} engines={3 if n <= LAPLACE_LIMIT else 2} fallback="
        _expect(engines["operands"].startswith(head), f"operands {engines['operands']!r}")
        _congruent(engines.get("value"), det, f"trial {t} determinant")
        checked += _sweep_records(sweeps, n, f"trial={t} ")
    return checked


_CHECKERS = {
    "det": _check_det,
    "sweep": _check_sweep,
    "select": _check_select,
    "pfaffian": _check_pfaffian,
    "embed": _check_embed,
    "fuzz": _check_fuzz,
}


def judge(op: Op, out: Outcome) -> Verdict:
    """Check one operation's outcome against the benchmark's own reference."""
    if out.timed_out:
        return Verdict("late", "missed the deadline")
    if out.exit_code != 0:
        return Verdict("wrong", f"exit code {out.exit_code}")
    try:
        return Verdict("ok", residuals=_CHECKERS[op.kind](op, out))
    except _Overrun as exc:
        return Verdict("overrun", str(exc))
    except _Wrong as exc:
        return Verdict("wrong", str(exc))
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        return Verdict("wrong", f"malformed report: {exc!r}")


# ---------------------------------------------------------------------------
# self-check: corrupt a good outcome in every way the checks claim to catch


def _bump(m: re.Match) -> str:
    return f"{m[1]}{int(m[2]) + 1}"


_CORRUPTIONS = {
    "pass flag": (r'"pass": true', '"pass": false'),
    "text pass flag": (r": pass\n", ": FAIL\n"),
    "value": (r'("value": "-?)(\d+)', _bump),
    "determinant": (r"(det=-?)(\d+)", _bump),
    "residual": (r'("residual": ")0"', r'\g<1>1"'),
    "text residual": (r"(residual )0:", r"\g<1>1:"),
    "residual count": (r"(residuals=)(\d+)", _bump),
    "correspondence count": (r"(correspondences=)(\d+)", _bump),
    "embedding entry": (r'(\n\s*"?)(\d+)', _bump),
}


def corruptions(out: Outcome) -> list[tuple[str, Outcome]]:
    """Every corrupted variant of ``out`` that differs from it."""
    variants = [("exit status", replace(out, exit_code=1)),
                ("deadline", replace(out, timed_out=True))]
    for name, (pattern, repl) in _CORRUPTIONS.items():
        for stream in ("stdout", "stderr"):
            text = getattr(out, stream)
            changed = re.sub(pattern, repl, text, count=1)
            if changed != text:
                variants.append((f"{name} on {stream}", replace(out, **{stream: changed})))
    return variants


def self_check(samples: list[tuple[Op, Outcome]]) -> tuple[int, list[str]]:
    """Feed each checker corrupted copies of real good outcomes.

    Returns the number of corruptions tried and the ones that slipped through.
    """
    tried, missed = 0, []
    for op, out in samples:
        for name, bad in corruptions(out):
            tried += 1
            if judge(op, bad).status == "ok":
                missed.append(f"{op.label}: {name}")
    return tried, missed
