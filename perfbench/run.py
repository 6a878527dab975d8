"""Closed-loop CLI benchmark for exactdet.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

One client runs the workload's operations one after another; each is a fresh
``python -m exactdet ...`` process, started only after the previous one has
exited, so every figure includes start-up, parsing, computation and report
formatting.  A run makes whole passes over the operation list, at least
``MIN_PASSES``, and starts another only if it should end within ``--seconds``
of the first.  Every output is checked against references the benchmark
computes itself (see ``plan`` and ``checks``); an operation that misses its
deadline is killed and counts as failed at the deadline value.

The host this runs on is shared, and its speed drifts by a third or more
over tens of seconds.  So a fixed pure-Python reference loop runs between
consecutive operations, and each operation's wall time is scaled to a host
on which that loop takes ``REFERENCE_S``, by the mean of the loop times just
before and just after it.  The metrics pool the scaled times of every
execution; the raw wall times are printed next to them.

``--trace 1`` makes the separate per-layer run instead: the same operations
run in-process through ``exactdet.cli.main``, once plain and once with the
layer spans of ``tracer`` installed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list each
metric with its unit and workload, and the inputs' SHA-256.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import plan
import tracer

DEADLINE_S = 5.0  # per operation; a default-engine det at order 10 takes ~23 s
# Set-up is timed in batches of back-to-back set-ups, each batch at least
# SETUP_BATCH_S long and scaled by the reference loop around it; a run times
# at least SETUP_REPEATS batches and SETUP_MIN_S of set-up.
SETUP_REPEATS = 3
SETUP_BATCH_S = 0.1
SETUP_MIN_S = 1.0
# Every run makes at least this many passes.
MIN_PASSES = 3
# The reference loop: REFERENCE_LOOPS iterations of integer arithmetic, about
# REFERENCE_S seconds on a quiet 2-vCPU x86 host with CPython 3.11.
REFERENCE_LOOPS = 300_000
REFERENCE_S = 0.025
IMPORT_PROBES = 5
WORK_DIR = ".perfbench-work"

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import exactdet.cli as m; "
    "print(time.perf_counter() - t); print(m.__file__)"
)


@dataclass
class Sample:
    """One operation as the client saw it."""

    op: plan.Op
    seconds: float
    verdict: checks.Verdict
    outcome: checks.Outcome
    rss_kb: int = 0
    scale: float = 1.0  # REFERENCE_S / the reference loop's time around this operation

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


class _Deadline(BaseException):
    """Raised in-process when an operation misses its deadline."""


def _fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def _terminated(signum, frame) -> None:
    """Unwind on SIGTERM so that started processes are stopped."""
    sys.exit(128 + signum)


def _reference() -> float:
    """Seconds the fixed reference loop takes now: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def _environment(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def _import_probe(env: dict[str, str], src: Path) -> float:
    """Seconds to import exactdet.cli in a fresh process that does nothing else."""
    try:
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
    except (subprocess.SubprocessError, OSError) as exc:
        _fail(f"cannot import exactdet.cli from {src}: {exc}")
    seconds, location = done.stdout.split("\n")[:2]
    if not Path(location).resolve().is_relative_to(src.resolve()):
        _fail(f"exactdet.cli was imported from {location}, not from {src}")
    return float(seconds)


class Launcher:
    """Starts operations through ``launch.py`` and collects their outcomes."""

    def __init__(self, env: dict[str, str], scratch: Path) -> None:
        self.env = env
        self.out_path, self.err_path = scratch / "op.out", scratch / "op.err"
        script = Path(__file__).with_name("launch.py")
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", str(script)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        """Stop the launcher, and with it any operation still running."""
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def run(self, op: plan.Op) -> Sample:
        """Run one operation as its own process under the deadline."""
        request = {"argv": [sys.executable, "-m", "exactdet", *op.argv], "env": self.env,
                   "stdout": str(self.out_path), "stderr": str(self.err_path),
                   "deadline": DEADLINE_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            _fail("the operation launcher exited")
        done = json.loads(reply)
        outcome = checks.Outcome(
            done["exit"],
            self.out_path.read_text(encoding="utf-8", errors="replace"),
            self.err_path.read_text(encoding="utf-8", errors="replace"),
            done["timed_out"],
        )
        seconds = DEADLINE_S if done["timed_out"] else done["seconds"]
        return Sample(op, seconds, checks.judge(op, outcome), outcome, done["rss_kb"])


def _in_process(op: plan.Op, cli, tracing: tracer.Tracer | None, index: int) -> Sample:
    """Run one operation through ``exactdet.cli.main`` in this process."""

    def expire(signum, frame):
        raise _Deadline

    out, err = io.StringIO(), io.StringIO()
    timed_out, code = False, None
    if tracing is not None:
        tracing.begin_op(index)
    previous = signal.signal(signal.SIGALRM, expire)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except _Deadline:
        timed_out = True
    finally:
        signal.signal(signal.SIGALRM, previous)
    seconds = DEADLINE_S if timed_out else time.perf_counter() - start
    outcome = checks.Outcome(code, out.getvalue(), err.getvalue(), timed_out)
    return Sample(op, seconds, checks.judge(op, outcome), outcome)


def _median(values: list[float]) -> float:
    """The Harrell-Davis estimate of the median.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)/2, (n+1)/2) distribution.  Where operation times fall into
    clusters with gaps between them, the plain median jumps across a gap
    with a little noise; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    steps = 64 * n  # midpoint rule, 64 steps in each order statistic's slice
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        # the Beta density up to a constant, scaled to at most 1 at t = 1/2
        weights[k // 64] += math.exp((n - 1) / 2 * math.log(4 * t * (1 - t)))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten operations beyond it, and its value."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)  # 1-based nearest rank
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def _setup(workload: str, seed: int, directory: Path) -> tuple[plan.Plan, list[float], float]:
    """Generate the inputs many times; each must come out identical.

    Returns the plan, the scaled time of one set-up in each batch, and the
    raw wall time of all set-ups.
    """
    per_batch, built, total = [], None, 0.0
    reference = _reference()
    while len(per_batch) < SETUP_REPEATS or total < SETUP_MIN_S:
        count, batch = 0, 0.0
        while batch < SETUP_BATCH_S:
            shutil.rmtree(directory, ignore_errors=True)
            start = time.perf_counter()
            fresh = plan.build(workload, seed, directory)
            batch += time.perf_counter() - start
            count += 1
            if built is not None and fresh.hashes != built.hashes:
                _fail("input generation is not deterministic")
            built = fresh
        after = _reference()
        per_batch.append(batch / count * REFERENCE_S / ((reference + after) / 2))
        reference, total = after, total + batch
    return built, per_batch, total


def _representative(attempts: list[Sample]) -> Sample:
    """An operation's first failed attempt if it has one, else its first."""
    failed = [s for s in attempts if s.verdict.status != "ok"]
    return failed[0] if failed else attempts[0]


def _counts(per_op: list[Sample], samples: list[Sample]) -> tuple[int, int, bool]:
    failed = sum(s.verdict.status != "ok" for s in per_op)
    return len(per_op), failed, all(s.verdict.status != "wrong" for s in samples)


def _report_failures(per_op: list[Sample]) -> None:
    for s in per_op:
        if s.verdict.status != "ok":
            print(f"failed {s.op.label}: {s.verdict.status}: {s.verdict.reason}")


def _self_check(samples: list[Sample]) -> None:
    """Show the answer checks reject corrupted copies of this run's good outputs."""
    firsts: dict[tuple, Sample] = {}
    for s in samples:
        key = (s.op.kind, *(a for a in s.op.argv[2:] if not a[:1].isdigit()))
        if s.verdict.status == "ok":
            firsts.setdefault(key, s)
    if not firsts:
        print("self-check: skipped, no operation passed")
        return
    tried, missed = checks.self_check([(s.op, s.outcome) for s in firsts.values()])
    if missed:
        _fail(f"answer checks accepted corrupted outputs: {missed}")
    print(f"self-check: {tried} corrupted outputs of {len(firsts)} operation kinds, all rejected")


def _timed_run(args, built: plan.Plan, env: dict[str, str], scratch: Path, src: Path,
               setup_s: float):
    _import_probe(env, src)  # also compiles the package's bytecode before timing
    attempts: list[list[Sample]] = [[] for _ in built.ops]
    passes, last = 0, 0.0
    launcher = Launcher(env, scratch)
    try:
        reference = _reference()
        start = time.perf_counter()
        # whole passes only, so that every run weighs the operations alike
        while passes < MIN_PASSES or time.perf_counter() - start + last <= args.seconds:
            begun = time.perf_counter()
            for op, tries in zip(built.ops, attempts):
                # a failed operation is not repeated
                if all(s.verdict.status == "ok" for s in tries):
                    sample = launcher.run(op)
                    after = _reference()
                    sample.scale = REFERENCE_S / ((reference + after) / 2)
                    reference = after
                    tries.append(sample)
            last = time.perf_counter() - begun
            passes += 1
        elapsed = time.perf_counter() - start
    finally:
        launcher.close()
    per_op = [_representative(tries) for tries in attempts]
    samples = [s for tries in attempts for s in tries]
    # A failed operation ran once; the timings count the executions of the
    # operations that passed, and failures show in `failed` and in the tail.
    passed = [tries for tries, first in zip(attempts, per_op) if first.verdict.status == "ok"]
    timed = [s for tries in passed for s in tries]
    busy = sum(s.scaled for s in timed)
    percentile, tail = _tail([s.seconds for s in samples])
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(timed) / busy if timed else 0.0, "1/s"),
        "op_p50_s": (_median([s.scaled for s in timed]) if timed else 0.0, "s"),
        "residuals_per_s": (sum(s.verdict.residuals for s in timed) / busy if timed else 0.0, "1/s"),
        "peak_rss_mb": (max(s.rss_kb for s in samples) / 1024, "MB"),
    }
    scaled = "scaled to the reference host"
    notes = {
        "ops_per_s": f"{len(timed)} executions in {busy:.3f} s {scaled}; raw wall "
                     f"{sum(s.seconds for s in timed):.3f} s" if timed else None,
        "op_p50_s": f"Harrell-Davis median of {len(timed)} executions, {scaled}; plain median "
                    f"of raw wall times {statistics.median(s.seconds for s in timed):.4f} s"
                    if timed else None,
    }
    # Printed but not part of the result line: failed_ratio is 0 on most
    # workloads, and the tail of all executions moves with the host's noise.
    failed = len(per_op) - len(passed)
    print(f"metric {args.workload} failed_ratio {failed / len(per_op)} ratio "
          f"({failed} of {len(per_op)} operations; {len(samples)} executions in {elapsed:.3f} s)")
    print(f"metric {args.workload} op_tail_s {tail} s "
          f"(p{percentile:.1f} of all {len(samples)} executions)")
    return per_op, samples, metrics, notes


def _traced_run(args, built: plan.Plan, env: dict[str, str], work: Path, src: Path, setup_s: float):
    import_s = statistics.median(_import_probe(env, src) for _ in range(IMPORT_PROBES))
    sys.path.insert(0, str(src))
    import exactdet.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        _fail(f"exactdet.cli was imported from {cli.__file__}, not from {src}")
    spans_path = work / "spans.jsonl"
    spans_path.unlink(missing_ok=True)
    attempts: list[list[Sample]] = [[] for _ in built.ops]
    per_pass: list[dict[str, float]] = []
    start, last = time.perf_counter(), 0.0
    # like the timed run: another pass only if it should end within --seconds
    while not per_pass or time.perf_counter() - start + last <= args.seconds:
        begun = time.perf_counter()
        plain = [_in_process(op, cli, None, i) for i, op in enumerate(built.ops)]
        tracing = tracer.Tracer()
        undo = tracer.install(tracing)
        try:
            traced = [_in_process(op, cli, tracing, i) for i, op in enumerate(built.ops)]
        finally:
            tracer.uninstall(undo)
        tracing.write(spans_path, len(per_pass))
        both = [(a.seconds, b.seconds) for a, b in zip(plain, traced)
                if not (a.outcome.timed_out or b.outcome.timed_out)]
        layer = tracing.metrics()
        layer["trace.overhead_ratio"] = sum(b for _, b in both) / sum(a for a, _ in both)
        per_pass.append(layer)
        for tries, a, b in zip(attempts, plain, traced):
            tries += [a, b]
        last = time.perf_counter() - begun
    units = tracer.layer_units()
    metrics = {"cli.import_s": (import_s, "s")}
    for name, (unit, _) in units.items():
        if name != "cli.import_s":
            metrics[name] = (statistics.median(p[name] for p in per_pass), unit)
    print(f"spans {spans_path} ({len(per_pass)} traced passes)")
    per_op = [_representative(tries) for tries in attempts]
    return per_op, [s for tries in attempts for s in tries], metrics, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)

    root = Path.cwd()
    src = root / "src"
    if not (src / "exactdet" / "cli.py").is_file():
        _fail(f"no exactdet sources under {src}; run from the root of a checkout")
    work = root / WORK_DIR / args.workload
    built, setup_times, setup_raw = _setup(args.workload, args.seed, work / "inputs")
    env = _environment(src)

    print(f"perfbench workload={args.workload} seed={args.seed} python={platform.python_version()} "
          f"nproc={os.cpu_count()} deadline_s={DEADLINE_S} operations={len(built.ops)} "
          f"trace={args.trace} reference_s={REFERENCE_S}")
    for name, digest in sorted(built.hashes.items()):
        print(f"input {name} sha256={digest}")

    run = _traced_run if args.trace else _timed_run
    setup_s = statistics.median(setup_times)
    per_op, samples, metrics, notes = run(args, built, env, work, src, setup_s)
    notes.setdefault("setup_s", f"median of {len(setup_times)} batches, scaled to the reference "
                                f"host; raw wall {setup_raw:.3f} s in all")
    _self_check(samples)
    _report_failures(per_op)
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"metric {args.workload} {name} {value} {unit}" + (f" ({note})" if note else ""))
    attempted, failed, correct = _counts(per_op, samples)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
