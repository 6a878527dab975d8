"""Seeded inputs, operation lists and independent reference values.

Everything here is computed without importing ``exactdet``: inputs come from
``random.Random`` streams named after the seed and the input, determinants
are recomputed by modular elimination, and the fuzz trials are regenerated
from the generator specification the project documents (SplitMix64).  A
change to the library can therefore change neither the inputs nor the
answers they are checked against.

Matrix orders are fixed per workload; only the entries depend on the seed.
That keeps the work done by one pass the same from seed to seed, so that
the spread between runs measures the program rather than the draw.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

# Two primes below 2**30, so residues stay single-digit Python ints; a wrong
# determinant agrees with the reference modulo both with odds of about 1e-18.
PRIMES = (1_000_000_007, 998_244_353)

# The sweep and engine policy the project documents (README "Sweep policy",
# `exactdet --help`).  Hard-coded here on purpose: a report that drifts from
# the documented policy is a finding, not a new reference.
EXHAUSTIVE_LIMIT = 6
SAMPLE_COUNT = 60
LAPLACE_LIMIT = 7
IDENTITY_NAMES = ("jacobi", "three-term", "generalized", "pluecker")

ENTRY_BOUND = 9
FUZZ_SIZE_MAX = 7
FUZZ_SIZES = list(range(2, FUZZ_SIZE_MAX + 1))  # each fuzz operation: one trial per order
FUZZ_TRIALS = len(FUZZ_SIZES)


@dataclass
class Op:
    """One CLI invocation plus what its output must say."""

    kind: str
    label: str
    argv: list[str]
    ref: dict = field(default_factory=dict)


@dataclass
class Plan:
    ops: list[Op]
    hashes: dict[str, str]


# ---------------------------------------------------------------------------
# modular references


def residue(value: Fraction, p: int) -> int:
    """value mod p; raises ZeroDivisionError when p divides the denominator."""
    if value.denominator == 1:
        return value.numerator % p
    return value.numerator * pow(value.denominator, -1, p) % p


def det_mod(rows: list[list[Fraction]], p: int) -> int:
    """Determinant mod p by Gaussian elimination over GF(p).

    After step k only columns k+1.. matter, so each row keeps just those.
    """
    a = [[residue(v, p) for v in row] for row in rows]
    det = 1
    while a:
        pivot = next((i for i, row in enumerate(a) if row[0]), None)
        if pivot is None:
            return 0
        if pivot:
            a[0], a[pivot] = a[pivot], a[0]
            det = -det
        head, *rest = a
        det = det * head[0] % p
        inv = pow(head[0], -1, p)
        tail = head[1:]
        a = []
        for row in rest:
            f = row[0] * inv % p
            a.append([(x - f * y) % p for x, y in zip(row[1:], tail)] if f else row[1:])
    return det % p


def det_residues(rows: list[list[Fraction]]) -> tuple[int, ...]:
    return tuple(det_mod(rows, p) for p in PRIMES)


def sweep_counts(n: int) -> dict[str, int]:
    """Residual count per identity family under the documented sweep policy."""

    def choices(row_size: int, col_size: int) -> int:
        if n <= EXHAUSTIVE_LIMIT:
            return comb(n, row_size) * comb(n, col_size)
        return SAMPLE_COUNT

    return {
        "jacobi": n * (n - 1) if n >= 2 else 0,
        "three-term": choices(2, 4) if n >= 4 else 0,
        "generalized": sum(choices(r, 2 * r) for r in (1, 2, 3) if 2 * r <= n),
        "pluecker": (choices(1, 2) if n >= 2 else 0) + (choices(2, 4) if n >= 4 else 0),
    }


# ---------------------------------------------------------------------------
# the documented fuzz generator, reimplemented from its specification

_MASK = (1 << 64) - 1


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class _SplitMix64:
    def __init__(self, seed: int, trial: int) -> None:
        self.state = (_mix64(seed) + trial) & _MASK

    def next_int(self, lo: int, hi: int) -> int:
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
            u = _mix64(self.state)
            if u < limit:
                return lo + u % span


def fuzz_order(seed: int, trial: int) -> int:
    """The matrix order that trial ``trial`` of ``fuzz --seed seed`` draws."""
    return _SplitMix64(seed, trial).next_int(2, FUZZ_SIZE_MAX)


def fuzz_trial(seed: int, trial: int) -> list[list[Fraction]]:
    """The matrix that trial ``trial`` of ``fuzz --seed seed`` draws."""
    gen = _SplitMix64(seed, trial)
    n = gen.next_int(2, FUZZ_SIZE_MAX)
    return [
        [Fraction(gen.next_int(-ENTRY_BOUND, ENTRY_BOUND)) for _ in range(n)] for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# input generation


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _square(rng: random.Random, n: int, frac: bool) -> list[list[Fraction]]:
    def entry() -> Fraction:
        num = rng.randint(-ENTRY_BOUND, ENTRY_BOUND)
        return Fraction(num, rng.randint(1, ENTRY_BOUND)) if frac else Fraction(num)

    return [[entry() for _ in range(n)] for _ in range(n)]


def _skew_random(rng: random.Random, n: int) -> list[list[Fraction]]:
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = Fraction(rng.randint(-ENTRY_BOUND, ENTRY_BOUND))
            a[j][i] = -a[i][j]
    return a


Rows = list[list[Fraction]]


def _skew_congruent(rng: random.Random, n: int) -> tuple[Rows, Rows]:
    """S = B^T J B with J the standard symplectic form, so Pf(S) = det(B)."""
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s[i][j] = Fraction(sum(b[2 * k][i] * b[2 * k + 1][j] - b[2 * k + 1][i] * b[2 * k][j]
                                   for k in range(n // 2)))
    return s, [[Fraction(v) for v in row] for row in b]


def _embedding(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """The documented order-2n embedding over labels (1..n, n*..1*)."""
    n = len(a)
    m = 2 * n
    out = [[Fraction(0)] * m for _ in range(m)]
    for p in range(n):
        for q in range(n, m):
            out[p][q] = a[p][m - 1 - q]
            out[q][p] = -out[p][q]
    return out


def _text(rows: list[list[Fraction]]) -> str:
    n = len(rows)
    return f"{n} {n}\n" + "".join(" ".join(str(v) for v in row) + "\n" for row in rows)


def _json(rows: list[list[Fraction]]) -> str:
    n = len(rows)
    entries = [[str(v) for v in row] for row in rows]
    return json.dumps({"rows": n, "cols": n, "entries": entries}) + "\n"


class _Writer:
    def __init__(self, seed: int, directory: Path) -> None:
        self.seed = seed
        self.directory = directory
        self.ops: list[Op] = []
        self.hashes: dict[str, str] = {}

    def write(self, name: str, rows: list[list[Fraction]], as_json: bool = False) -> str:
        body = (_json if as_json else _text)(rows).encode()
        path = self.directory / name
        path.write_bytes(body)
        self.hashes[name] = hashlib.sha256(body).hexdigest()
        return str(path)

    def add(self, kind: str, label: str, argv: list[str], **ref) -> None:
        self.ops.append(Op(kind, label, argv, ref))


# Each pass visits these lists in order.  Sizes are chosen so that one pass
# takes about 4-5 s on a 2-core x86 host (the first pass of `engines` also
# carries its failing default-engine operations, ~9 s more), short enough
# for several passes per run.

# Four operations at order 6 put the median operation time inside a cluster
# of like operations rather than at the gap between orders 5 and 6.
SWEEP = [(2, False), (3, False), (4, True), (5, False), (6, False), (6, True), (6, False),
         (6, True), (12, False), (12, True), (18, False)]


def _sweep(b: _Writer) -> None:
    for idx, (n, frac) in enumerate(SWEEP):
        name = f"sweep{idx:02d}_n{n}{'q' if frac else ''}"
        rows = _square(_rng(b.seed, name), n, frac)
        as_json = idx % 5 == 4  # some inputs in the JSON matrix format
        path = b.write(name + (".json" if as_json else ".txt"), rows, as_json)
        b.add("sweep", name, ["verify", path, "--json"], n=n)


ENGINE_ONE = [("bareiss", 100, False), ("bareiss", 100, True), ("bareiss", 150, False),
              ("dodgson", 60, False), ("dodgson", 48, True)]
ENGINE_ALL = (8, 9, 10)  # default --engine all; Laplace is documented to stop at 7
SELECT_ORDER = 60
# single index selections: identity and deleted-row count r (2r columns).  They
# cost about the same, which keeps the median operation steady.
SELECTIONS = [("jacobi", 1), ("three-term", 2), ("generalized", 2), ("pluecker", 2), ("jacobi", 1)]


def _engines(b: _Writer) -> None:
    for engine, n, frac in ENGINE_ONE:
        name = f"{engine}_n{n}{'q' if frac else ''}"
        rows = _square(_rng(b.seed, name), n, frac)
        path = b.write(name + ".txt", rows, as_json=n == 150)
        b.add("det", name, ["det", path, "--engine", engine, "--json"], n=n, engine=engine,
              det=det_residues(rows))
    for n in ENGINE_ALL:
        name = f"all_n{n}"
        rows = _square(_rng(b.seed, name), n, False)
        path = b.write(name + ".txt", rows)
        b.add("det", name, ["det", path, "--json"], n=n, engine="all", det=det_residues(rows))
    name = f"select_n{SELECT_ORDER}"
    path = b.write(name + ".txt", _square(_rng(b.seed, name), SELECT_ORDER, False))
    rng = _rng(b.seed, "selections")

    def pick(k: int) -> str:
        return ",".join(map(str, sorted(rng.sample(range(1, SELECT_ORDER + 1), k))))

    for idx, (identity, r) in enumerate(SELECTIONS):
        if identity == "jacobi":
            extra = ["--pair", pick(2)]
        else:
            extra = ["--rows", pick(r), "--cols", pick(2 * r)]
        argv = ["verify", path, "--identity", identity, *extra, "--json"]
        b.add("select", f"select{idx:02d}_{identity}", argv, n=SELECT_ORDER, identity=identity)


PFAFFIAN_OPS = [(18, "congruent", "square"), (18, "random", "recurrence"), (20, "random", "square"),
                (22, "congruent", "recurrence")]
# order, --minors, output format, p/q entries
EMBED_OPS = [(8, True, "text", False), (12, False, "json", True), (14, False, "json", False)]


def _pfaffian(b: _Writer) -> None:
    for idx, (order, build, check) in enumerate(PFAFFIAN_OPS):
        name = f"pf{idx:02d}_o{order}_{build}"
        rng = _rng(b.seed, name)
        if build == "congruent":
            skew, factor = _skew_congruent(rng, order)
            pf = det_residues(factor)
            det = tuple(v * v % p for v, p in zip(pf, PRIMES))
        else:
            skew = _skew_random(rng, order)
            pf, det = None, det_residues(skew)
        path = b.write(name + ".txt", skew)
        b.add("pfaffian", name, ["pfaffian", path, "--check", check, "--json"], order=order,
              check=check, pf=pf, det=det)
    for idx, (n, minors, fmt, frac) in enumerate(EMBED_OPS):
        name = f"embed{idx:02d}_n{n}"
        rows = _square(_rng(b.seed, name), n, frac)
        path = b.write(name + ".txt", rows)
        argv = ["embed", path, "--format", fmt] + (["--minors"] if minors else [])
        b.add("embed", name, argv, n=n, minors=minors, format=fmt, det=det_residues(rows),
              embedding=_embedding(rows))


FUZZ_OPS = 9


def _fuzz(b: _Writer) -> None:
    """Fuzz seeds come from the workload seed; a candidate is kept only when
    its trials draw every order 2..7 once, so each fuzz operation does the
    same mix of work whatever the workload seed."""
    rng = _rng(b.seed, "fuzz")
    seeds = []
    for idx in range(FUZZ_OPS):
        while True:
            fuzz_seed = rng.getrandbits(31)
            if sorted(fuzz_order(fuzz_seed, t) for t in range(FUZZ_TRIALS)) == FUZZ_SIZES:
                break
        seeds.append(fuzz_seed)
        trials = [fuzz_trial(fuzz_seed, t) for t in range(FUZZ_TRIALS)]
        b.add("fuzz", f"fuzz{idx:02d}_s{fuzz_seed}",
              ["fuzz", "--seed", str(fuzz_seed), "--trials", str(FUZZ_TRIALS), "--size-max",
               str(FUZZ_SIZE_MAX)],
              seed=fuzz_seed, trials=[(len(m), det_residues(m)) for m in trials])
    b.hashes["fuzz-seeds"] = hashlib.sha256(" ".join(map(str, seeds)).encode()).hexdigest()


WORKLOADS = {"sweep": _sweep, "engines": _engines, "pfaffian": _pfaffian, "fuzz": _fuzz}


def build(workload: str, seed: int, directory: Path) -> Plan:
    """Write the workload's inputs into ``directory`` and return its operations."""
    directory.mkdir(parents=True, exist_ok=True)
    writer = _Writer(seed, directory)
    WORKLOADS[workload](writer)
    return Plan(writer.ops, writer.hashes)
