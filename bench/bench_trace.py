"""Span tracing around commlab's public functions, for the traced benchmark run.

The wrappers live in the benchmark, not in commlab.  `Tracer` rebinds each
traced function in every commlab module namespace that holds it, because the
modules import one another by name: `commlab.qau.gauge_norm` and
`commlab.gauges.gauge_norm` are two bindings of one function, and wrapping
only the home module would miss every call made from the other.  Leaving the
`with` block puts every original binding back.

A span records its name, start, end and parent span; spans are kept in
memory.  A span opened on a worker thread with nothing open on that thread is
parented to the innermost span open on the thread that installed the
tracer, which is the call that started the pool (`k_estimate --jobs`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

# layer -> functions wrapped, exactly those the per-layer metrics name.
TRACED = {
    "gauges": ("gauge_norm", "norm_subgradient", "operator_norm"),
    "idealops": ("commutator_tuple", "e_norm_max", "instantiate_model"),
    "qau": ("k_estimate", "optimize_unit", "ramp_unit", "build_schedule"),
    "functionals": ("quotient_norm_bounds", "eval_functional", "eval_trace_part"),
    "lebesgue": ("decompose", "recover_ac_part", "recovery_error_bound"),
    "sampling": ("generate_test_set",),
    "config": ("load_config",),
    "runner": ("run_experiment", "stage_gauge_check", "stage_k_estimate",
               "stage_schedule", "stage_decompose", "write_json", "write_csv"),
    "cli": ("main",),
}
# Both artifact writers report as one span name.
_SPAN_NAMES = {("runner", "write_json"): "runner.write",
               ("runner", "write_csv"): "runner.write"}


def span_name(layer: str, fname: str) -> str:
    return _SPAN_NAMES.get((layer, fname), f"{layer}.{fname}")


SPANS = frozenset(span_name(layer, f) for layer, names in TRACED.items() for f in names)


def _n3(arguments) -> dict:
    """Sum of n**3 over the square matrices among the arguments (computed)."""
    total = 0
    for value in arguments.values():
        shape = getattr(value, "shape", ())
        if len(shape) == 2 and shape[0] == shape[1]:
            total += int(shape[0]) ** 3
    return {"n3_sum": total}


def _dense(arguments) -> dict:
    """1 when the operand's support plus the bandwidth reaches the dimension."""
    from commlab.idealops import support_size
    tau = arguments["tau"]
    reach = support_size(np.asarray(arguments["s"])) + tau.bandwidth
    return {"dense_calls": int(reach >= tau.dimension)}


# span name -> hook(bound arguments, result) giving counts for the span.
_HOOKS = {
    "gauges.gauge_norm": lambda a, r: _n3(a),
    "gauges.norm_subgradient": lambda a, r: _n3(a),
    "gauges.operator_norm": lambda a, r: _n3(a),
    "idealops.commutator_tuple": lambda a, r: _dense(a),
    "qau.optimize_unit": lambda a, r: {
        "iterations": len(r.trace) - 1,
        "improved": int(r.value < r.trace[0][1])},
    "functionals.quotient_norm_bounds": lambda a, r: {"iterations": r.iterations},
    "runner.write": lambda a, r: {"bytes": Path(a["path"]).stat().st_size},
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict


def commlab_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "commlab" or name.startswith("commlab.")}


class Tracer:
    """Context manager that wraps the TRACED functions while it is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._root_thread = None
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:  # outermost span of a thread; a worker's parent is the pool's caller
                parent = self._root_stack[-1] if self._root_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append(Span(span_id, name, start, perf_counter(), parent, {}))
                raise
            finally:
                stack.pop()
            end = perf_counter()
            counts = {}
            if hook is not None:
                counts = hook(signature.bind(*args, **kwargs).arguments, result)
            self.spans.append(Span(span_id, name, start, end, parent, counts))
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        importlib.import_module("commlab.cli")  # loads every layer module
        modules = commlab_modules()
        self._root_thread = threading.get_ident()
        try:
            for layer, names in TRACED.items():
                home = modules[f"commlab.{layer}"]
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self._wrap(span_name(layer, fname), original)
                    for mod in modules.values():
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._saved.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def sorted_spans(self) -> list[Span]:
        return sorted(self.spans)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return [sp.end - sp.start - covered(children.get(sp.id, ()), sp.start, sp.end)
            for sp in spans]


def span_stats(spans: list[Span]) -> dict:
    """Per span name: calls, summed self time and summed counts."""
    stats: dict = {}
    for sp, own in zip(spans, self_times(spans)):
        entry = stats.setdefault(sp.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in sp.counts.items():
            entry[key] = entry.get(key, 0) + value
    return stats


def layer_value(stats: dict, metric: str) -> float:
    """Value of a per-layer metric named `<layer>.<function>.<field>`."""
    span, field = metric.rsplit(".", 1)
    if span not in SPANS:
        raise KeyError(f"per-layer metric {metric!r} names no traced function")
    entry = stats.get(span, {})
    if field == "improved_frac":
        calls = entry.get("calls", 0)
        return entry.get("improved", 0) / calls if calls else 0.0
    return entry.get(field, 0)


def median_layer_values(per_rep_stats: list[dict], metrics) -> dict:
    """Median over traced repetitions of each per-layer metric (a measured value)."""
    return {m: statistics.median_low(layer_value(s, m) for s in per_rep_stats)
            for m in metrics}
