"""Deterministic seeded generation for fuzzing and sampled sweeps.

The generator is SplitMix64, fixed bit-exactly so reports are reproducible
across implementations:

* state update:  state = (state + 0x9E3779B97F4A7C15) mod 2^64
* output:        mix64(state), where mix64(z) is
                 z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2^64)
                 z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2^64)
                 z ^= z >> 31
* trial stream:  trial t (0-based) of seed s starts from
                 state0 = (mix64(s mod 2^64) + t) mod 2^64
* bounded ints:  uniform in [lo, hi] by rejection: with m = hi - lo + 1,
                 m <= 2^64 (a wider range is refused with ValueError),
                 draw 64-bit u until u < 2^64 - (2^64 mod m), return
                 lo + (u mod m)
* matrices:      entries are drawn row-major; where a size is random it is
                 drawn first, before any entry

Every value produced depends only on (seed, trial) and the draw sequence.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Matrix, _quote
from .pfaffian import AntisymmetricMatrix

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Tiny deterministic PRNG; see the module docstring for the exact rules."""

    def __init__(self, state: int) -> None:
        self.state = state & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi], of at most 2^64 values: past
        that, 2^64 - (2^64 mod span) is 0 and would reject every draw."""
        if lo > hi:
            raise ValueError(f"empty range [{_quote(lo)}, {_quote(hi)}]")
        span = hi - lo + 1
        if span > 1 << 64:
            raise ValueError(f"range [{_quote(lo)}, {_quote(hi)}] holds more than 2^64 values")
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)


def trial_stream(seed: int, trial: int) -> SplitMix64:
    """Independent per-trial stream; depends only on (seed, trial)."""
    if trial < 0:
        raise ValueError("trial index must be >= 0")
    return SplitMix64((mix64(seed) + trial) & _MASK)


def random_matrix(gen: SplitMix64, rows: int, cols: int, bound: int) -> Matrix:
    """Matrix with integer entries uniform in [-bound, bound], drawn row-major."""
    if bound < 0:
        raise ValueError("entry bound must be >= 0")
    entries = tuple(
        tuple(Fraction(gen.next_int(-bound, bound)) for _ in range(cols))
        for _ in range(rows)
    )
    return Matrix(rows, cols, entries)


def random_vector(gen: SplitMix64, length: int, bound: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(gen.next_int(-bound, bound)) for _ in range(length))


def random_antisymmetric(gen: SplitMix64, order: int, bound: int) -> AntisymmetricMatrix:
    """Skew matrix with strict-upper entries uniform in [-bound, bound]."""
    count = order * (order - 1) // 2
    upper = tuple(Fraction(gen.next_int(-bound, bound)) for _ in range(count))
    return AntisymmetricMatrix(order, upper)
