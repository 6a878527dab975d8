"""Per-layer tracing from outside the program.

``install`` replaces each listed ``exactdet`` function, in every
``exactdet.*`` module namespace that binds it, with a wrapper that records a
span (name, start, end, parent span, operation id).  Nested calls through
module globals, such as ``first_minor -> complementary_minor -> det_bareiss``,
therefore become child spans.  A span's self time is its duration minus the
time its child spans cover.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

# function -> statistics reported for it, as "<module>.<function>.<stat>"
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.main": ("calls", "self_s"),
    "matfile.parse_matrix": ("calls", "self_s", "bytes"),
    "matfile.emit_matrix_text": ("self_s", "bytes"),
    "matfile.emit_matrix_json": ("self_s", "bytes"),
    "core.submatrix_delete": ("calls", "self_s"),
    "core.augment_columns": ("calls", "self_s"),
    "engines.det_bareiss": ("calls", "self_s", "order_mean", "out_bits_max", "distinct_ratio"),
    "engines.det_dodgson": ("calls", "self_s", "fallback_ratio", "fallback_depth_mean"),
    "engines.det_laplace": ("calls", "self_s", "order_max"),
    "engines.complementary_minor": ("calls", "self_s", "distinct_ratio"),
    "engines.first_minor": ("calls",),
    "jacobi.verify_all_jacobi": ("calls", "self_s"),
    "jacobi.jacobi_residual": ("calls", "self_s"),
    "jacobi.minor_three_term_residual": ("calls", "self_s"),
    "jacobi.generalized_pluecker_residual": ("calls", "self_s"),
    "pluecker.pluecker_sum": ("calls", "self_s"),
    "pluecker.three_term_residual": ("calls", "self_s"),
    "pfaffian.pfaffian": ("calls", "self_s", "order_max"),
    "pfaffian.embedded_minor": ("calls", "self_s"),
    "pfaffian.determinant_embedding": ("calls", "self_s"),
    "pfaffian.jacobi_recurrence_residual": ("calls", "self_s"),
    "pfaffian.antisymmetric_from_matrix": ("calls", "self_s"),
    "randgen.trial_stream": ("calls",),
    "randgen.random_matrix": ("calls", "self_s"),
    "randgen.SplitMix64.next_int": ("calls",),
}

# layers whose arguments or results feed counters beyond calls and self time
_OBSERVED = {"matfile.parse_matrix", "matfile.emit_matrix_text", "matfile.emit_matrix_json",
             "engines.det_bareiss", "engines.det_dodgson", "engines.det_laplace",
             "engines.complementary_minor", "pfaffian.pfaffian"}

# unit and direction of each statistic
STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "bytes": ("bytes", "lower"),
    "order_mean": ("order", "lower"),
    "order_max": ("order", "lower"),
    "out_bits_max": ("bits", "lower"),
    "distinct_ratio": ("ratio", "higher"),
    "fallback_ratio": ("ratio", "lower"),
    "fallback_depth_mean": ("level", "higher"),
}


def _arguments(names: tuple[str, ...], args: tuple, kwargs: dict) -> dict:
    bound = dict(zip(names, args))
    bound.update(kwargs)
    return bound


def _bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _index_key(indices) -> tuple | None:
    return tuple(sorted(indices)) if isinstance(indices, (tuple, list)) else None


class Tracer:
    """Spans and layer counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = 0
        self.sums: Counter = Counter()
        self.maxima: Counter = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.clear()  # a deadline may have cut the previous operation short

    def _max(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def _observe(self, layer: str, arg: dict, result) -> None:
        """Layer-specific counters, taken from arguments and results."""
        if layer == "matfile.parse_matrix":
            self.sums[layer + ".bytes"] += len(arg["text"])
        elif layer.startswith("matfile.emit_"):
            self.sums[layer + ".bytes"] += len(result)
        elif layer == "engines.det_bareiss":
            matrix = arg["matrix"]
            self.sums[layer + ".order"] += matrix.rows
            self._max(layer + ".out_bits_max", _bits(result))
            self.keys[layer].add((self.op, hash(matrix.entries)))
        elif layer == "engines.det_dodgson":
            if result.fallback_used:
                self.sums[layer + ".fallbacks"] += 1
                self.sums[layer + ".depth"] += result.fallback_depth
        elif layer == "engines.det_laplace":
            self._max(layer + ".order_max", arg["matrix"].rows)
        elif layer == "engines.complementary_minor":
            rows, cols = _index_key(arg["rows"]), _index_key(arg["cols"])
            self.keys[layer].add((self.op, id(arg["matrix"]), rows, cols))
        elif layer == "pfaffian.pfaffian":
            self._max(layer + ".order_max", arg["matrix"].order)

    def wrap(self, layer: str, fn: Callable, names: tuple[str, ...]) -> Callable:
        spans, stack = self.spans, self.stack
        observed = layer in _OBSERVED

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stack and stack[-1] == index:
                    stack.pop()
                spans[index] = (layer, start, end, parent, self.op)
            if observed:
                self._observe(layer, _arguments(names, args, kwargs), result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer statistics of this pass, named as in ``LAYERS``."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        calls: Counter = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span is not None:
                calls[span[0]] += 1
                self_s[span[0]] += span[2] - span[1] - covered[index]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for layer, stats in LAYERS.items():
            for stat in stats:
                name = f"{layer}.{stat}"
                if stat == "calls":
                    value = calls[layer]
                elif stat == "self_s":
                    value = self_s[layer]
                elif stat == "bytes":
                    value = self.sums[name]
                elif stat == "order_mean":
                    value = ratio(self.sums[layer + ".order"], calls[layer])
                elif stat == "distinct_ratio":
                    value = ratio(len(self.keys[layer]), calls[layer])
                elif stat == "fallback_ratio":
                    value = ratio(self.sums[layer + ".fallbacks"], calls[layer])
                elif stat == "fallback_depth_mean":
                    value = ratio(self.sums[layer + ".depth"], self.sums[layer + ".fallbacks"])
                else:
                    value = self.maxima[name]
                out[name] = value
        return out

    def write(self, path: Path, pass_index: int) -> None:
        with path.open("a", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, op = span
                    record = {"pass": pass_index, "id": index, "name": name, "start": start,
                              "end": end, "parent": parent, "op": op}
                    handle.write(json.dumps(record) + "\n")


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every listed function wherever an ``exactdet`` module binds it.

    Returns the replaced bindings for ``uninstall``.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "exactdet" or name.startswith("exactdet.")]
    undo: list[tuple[object, str, object]] = []
    for layer in LAYERS:
        module_name, _, qualname = layer.partition(".")
        home = sys.modules[f"exactdet.{module_name}"]
        if "." in qualname:  # a method: wrap it on its class
            class_name, method = qualname.split(".")
            owner = getattr(home, class_name)
            original = owner.__dict__[method]
            names = original.__code__.co_varnames[: original.__code__.co_argcount]
            setattr(owner, method, tracer.wrap(layer, original, names))
            undo.append((owner, method, original))
            continue
        original = getattr(home, qualname)
        names = original.__code__.co_varnames[: original.__code__.co_argcount]
        wrapper = tracer.wrap(layer, original, names)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and better direction."""
    units = {"cli.import_s": ("s", "lower")}
    for layer, stats in LAYERS.items():
        for stat in stats:
            units[f"{layer}.{stat}"] = STAT_UNITS[stat]
    units["trace.overhead_ratio"] = ("ratio", "lower")
    return units
