"""Declarative experiment configuration.

A single JSON document drives the pipeline.  Parsing and validation are
strict: unknown keys are rejected and every error names the offending field
by its dotted path, so a bad config fails fast and legibly.

Shape (entries marked * are required):

    {
      "seed"*: 7,
      "model"*: {"name": "lap-pos", "n": 2, "parameters": [1.0, 400]},
      "dimension"*: 64,
      "gauges"*: [{"family": "schatten", "p": 2.0, "label": "p2"}, ...],
      "solver": {"max_iterations": 2000, "step_scale": 1.0, ...},
      "windows": {"floors": [...], "caps": [...],
                  "schedule": [[m, r], ...], "mode": "ramp"},
      "functionals": [{"label": "phi-0",
                       "trace_part": {"x": M | null, "ys": [M | null, ...]},
                       "singular_part": {"windows": [[lo, hi], ...],
                                         "states": "uniform" | [M, ...],
                                         "rule": "plain",
                                         "detection_tol": 1e-9} | null}, ...],
      "test_set": {"count": 6, "kinds": [...], "support": 6, "bandwidth": 3,
                   "include_identity": true, "normalize": true},
      "outputs": {"formats": ["json", "csv"]}
    }

Matrices are lists of rows; each entry is a real number or a [re, im] pair.
The first gauge is the primary one used by the k-estimate, schedule, and
decompose stages.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .functionals import FunctionalSpec, TailStateSpec, TracePart
from .gauges import GaugeSpec
from .idealops import OperatorModelSpec, instantiate_model
from .qau import SolverParams
from .sampling import KINDS, SampleSpec

FORMATS = ("json", "csv")
SCHEDULE_MODES = ("ramp", "optimized-then-monotonized")


class ConfigError(Exception):
    """Invalid configuration; `path` is the dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}")


def _expect_map(value, path) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value

def _expect_list(value, path) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected an array, got {type(value).__name__}")
    return value

def _expect_int(value, path, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value

def _expect_number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, "expected a finite number")
    return number

def _expect_str(value, path, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"must be one of {sorted(choices)}, got {value!r}")
    return value

def _expect_bool(value, path) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {value!r}")
    return value

def _reject_unknown(mapping: dict, known, path):
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


def _parse_entry(value, path) -> complex:
    if isinstance(value, list) and len(value) == 2:
        re = _expect_number(value[0], f"{path}[0]")
        im = _expect_number(value[1], f"{path}[1]")
        return complex(re, im)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "matrix entries must be numbers or [re, im] pairs")
    return complex(_expect_number(value, path), 0.0)


def parse_matrix(value, path) -> np.ndarray:
    """A square complex matrix from nested lists; null means empty."""
    if value is None:
        return np.zeros((0, 0), dtype=np.complex128)
    rows = _expect_list(value, path)
    if not rows:
        return np.zeros((0, 0), dtype=np.complex128)
    dim = len(rows)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        row = _expect_list(row, f"{path}[{i}]")
        if len(row) != dim:
            raise ConfigError(f"{path}[{i}]", f"expected {dim} entries for a square matrix")
        for j, entry in enumerate(row):
            out[i, j] = _parse_entry(entry, f"{path}[{i}][{j}]")
    return out


def _parse_gauge(value, path) -> GaugeSpec:
    d = _expect_map(value, path)
    _reject_unknown(d, {"family", "p", "k", "label"}, path)
    if "family" not in d:
        raise ConfigError(f"{path}.family", "required")
    family = _expect_str(d["family"], f"{path}.family")
    kwargs = {}
    if "p" in d:
        kwargs["p"] = _expect_number(d["p"], f"{path}.p")
    if "k" in d:
        kwargs["k"] = _expect_int(d["k"], f"{path}.k", minimum=1)
    if "label" in d:
        kwargs["label"] = _expect_str(d["label"], f"{path}.label")
    try:
        return GaugeSpec(family=family, **kwargs)
    except ValueError as err:
        # name the field that broke: the family when it is unrecognized,
        # otherwise the parameter the family objects to
        detail = str(err)
        field = "family" if "family" in detail else ("k" if " k" in detail else "p")
        raise ConfigError(f"{path}.{field}", detail) from None


def _parse_model(value, path) -> OperatorModelSpec:
    d = _expect_map(value, path)
    _reject_unknown(d, {"name", "n", "parameters"}, path)
    if "name" not in d:
        raise ConfigError(f"{path}.name", "required")
    name = _expect_str(d["name"], f"{path}.name")
    n = _expect_int(d.get("n", 0), f"{path}.n", minimum=0)
    params = tuple(_expect_number(v, f"{path}.parameters[{i}]")
                   for i, v in enumerate(_expect_list(d.get("parameters", []),
                                                      f"{path}.parameters")))
    try:
        return OperatorModelSpec(name=name, n=n, parameters=params)
    except ValueError as err:
        raise ConfigError(path, str(err)) from None


def _parse_solver(value, path) -> SolverParams:
    d = _expect_map(value, path)
    known = {"max_iterations", "step_scale", "stop_tolerance", "patience"}
    _reject_unknown(d, known, path)
    kwargs = {}
    if "max_iterations" in d:
        kwargs["max_iterations"] = _expect_int(d["max_iterations"], f"{path}.max_iterations", 1)
    if "step_scale" in d:
        kwargs["step_scale"] = _expect_number(d["step_scale"], f"{path}.step_scale")
    if "stop_tolerance" in d:
        kwargs["stop_tolerance"] = _expect_number(d["stop_tolerance"], f"{path}.stop_tolerance")
    if "patience" in d:
        kwargs["patience"] = _expect_int(d["patience"], f"{path}.patience", 1)
    try:
        return SolverParams(**kwargs)
    except ValueError as err:
        # SolverParams names the field that broke first in its message
        raise ConfigError(f"{path}.{str(err).split()[0]}", str(err)) from None


def _parse_window_pairs(value, path) -> tuple[tuple[int, int], ...]:
    """1-based [start, end] pairs: schedule [floor, cap] and tail [lo, hi] windows."""
    pairs = []
    for i, item in enumerate(_expect_list(value, path)):
        pair = _expect_list(item, f"{path}[{i}]")
        if len(pair) != 2:
            raise ConfigError(f"{path}[{i}]", "expected a [start, end] pair")
        m = _expect_int(pair[0], f"{path}[{i}][0]", minimum=1)
        r = _expect_int(pair[1], f"{path}[{i}][1]", minimum=1)
        if m > r:
            raise ConfigError(f"{path}[{i}]", f"start {m} exceeds end {r}")
        pairs.append((m, r))
    return tuple(pairs)


def _parse_tail(value, path, dimension: int) -> TailStateSpec:
    d = _expect_map(value, path)
    _reject_unknown(d, {"windows", "states", "rule", "detection_tol"}, path)
    if "windows" not in d:
        raise ConfigError(f"{path}.windows", "required")
    windows = _parse_window_pairs(d["windows"], f"{path}.windows")
    for i, (_, hi) in enumerate(windows):
        if hi > dimension:
            raise ConfigError(f"{path}.windows[{i}]",
                              f"window end {hi} exceeds dimension {dimension}")
    states_field = d.get("states", "uniform")
    if states_field == "uniform":
        states = []
        for lo, hi in windows:
            w = hi - lo + 1
            states.append(np.eye(w, dtype=np.complex128) / w)
    else:
        items = _expect_list(states_field, f"{path}.states")
        states = [parse_matrix(v, f"{path}.states[{i}]") for i, v in enumerate(items)]
    rule = _expect_str(d.get("rule", "plain"), f"{path}.rule", {"plain", "cesaro"})
    tol = _expect_number(d.get("detection_tol", 1e-9), f"{path}.detection_tol")
    try:
        return TailStateSpec(windows=windows, states=tuple(states),
                             limit_rule=rule, detection_tol=tol)
    except ValueError as err:
        raise ConfigError(path, str(err)) from None


def _parse_functional(value, path, n_ops: int, gauge: GaugeSpec,
                      dimension: int, bandwidth: int, index: int) -> FunctionalSpec:
    d = _expect_map(value, path)
    _reject_unknown(d, {"label", "trace_part", "singular_part"}, path)
    label = _expect_str(d.get("label", f"phi-{index}"), f"{path}.label")
    trace_part = None
    if d.get("trace_part") is not None:
        t = _expect_map(d["trace_part"], f"{path}.trace_part")
        _reject_unknown(t, {"x", "ys"}, f"{path}.trace_part")
        x = parse_matrix(t.get("x"), f"{path}.trace_part.x")
        ys_field = _expect_list(t.get("ys", []), f"{path}.trace_part.ys")
        ys = [parse_matrix(v, f"{path}.trace_part.ys[{i}]") for i, v in enumerate(ys_field)]
        while len(ys) < n_ops:
            ys.append(np.zeros((0, 0), dtype=np.complex128))
        if len(ys) > n_ops:
            raise ConfigError(f"{path}.trace_part.ys",
                              f"got {len(ys)} blocks for a tuple of {n_ops} operators")
        support = max([x.shape[0]] + [y.shape[0] + bandwidth for y in ys])
        if support > dimension:
            raise ConfigError(f"{path}.trace_part",
                              f"supports need dimension {support}, have {dimension}")
        trace_part = TracePart(x=x, ys=tuple(ys), gauge=gauge)
    singular_part = None
    if d.get("singular_part") is not None:
        singular_part = _parse_tail(d["singular_part"], f"{path}.singular_part", dimension)
    if trace_part is None and singular_part is None:
        raise ConfigError(path, "functional needs a trace part or a singular part")
    return FunctionalSpec(trace_part=trace_part, singular_part=singular_part, label=label)


def _parse_sample(value, path, seed: int) -> SampleSpec:
    d = _expect_map(value, path)
    known = {"count", "kinds", "support", "bandwidth", "include_identity", "normalize"}
    _reject_unknown(d, known, path)
    kwargs = {"seed": seed, "count": _expect_int(d.get("count", 6), f"{path}.count", 0)}
    if "kinds" in d:
        kinds = tuple(_expect_str(v, f"{path}.kinds[{i}]", set(KINDS))
                      for i, v in enumerate(_expect_list(d["kinds"], f"{path}.kinds")))
        kwargs["kinds"] = kinds
    if "support" in d:
        kwargs["support"] = _expect_int(d["support"], f"{path}.support", 1)
    if "bandwidth" in d:
        kwargs["bandwidth"] = _expect_int(d["bandwidth"], f"{path}.bandwidth", 0)
    if "include_identity" in d:
        kwargs["include_identity"] = _expect_bool(d["include_identity"], f"{path}.include_identity")
    if "normalize" in d:
        kwargs["normalize"] = _expect_bool(d["normalize"], f"{path}.normalize")
    try:
        return SampleSpec(**kwargs)
    except ValueError as err:
        raise ConfigError(path, str(err)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    model: OperatorModelSpec
    dimension: int
    gauges: tuple[GaugeSpec, ...]
    solver: SolverParams
    floors: tuple[int, ...]
    caps: tuple[int, ...]
    schedule_windows: tuple[tuple[int, int], ...]
    schedule_mode: str
    functionals: tuple[FunctionalSpec, ...]
    sample: SampleSpec
    formats: tuple[str, ...]

    @property
    def primary_gauge(self) -> GaugeSpec:
        return self.gauges[0]

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed, sample=replace(self.sample, seed=seed))

    def instantiate(self):
        return instantiate_model(self.model, self.dimension)


_TOP_KEYS = {"seed", "model", "dimension", "gauges", "solver", "windows",
             "functionals", "test_set", "outputs"}


def parse_config(data) -> ExperimentConfig:
    d = _expect_map(data, "<config>")
    _reject_unknown(d, _TOP_KEYS, "")
    for key in ("seed", "model", "dimension", "gauges"):
        if key not in d:
            raise ConfigError(key, "required")
    seed = _expect_int(d["seed"], "seed", minimum=0)
    model = _parse_model(d["model"], "model")
    dimension = _expect_int(d["dimension"], "dimension", minimum=2)
    if dimension < 2 * model.bandwidth + 2:
        raise ConfigError("dimension",
                          f"model {model.name!r} needs dimension >= {2 * model.bandwidth + 2}")
    need = model.n * 16 * dimension ** 2
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise ConfigError("dimension", f"{model.n} dense operators need {need} bytes, "
                                       f"more than the {memory} bytes of physical memory")

    gauge_items = _expect_list(d["gauges"], "gauges")
    if not gauge_items:
        raise ConfigError("gauges", "at least one gauge is required")
    gauges = tuple(_parse_gauge(v, f"gauges[{i}]") for i, v in enumerate(gauge_items))

    solver = _parse_solver(d.get("solver", {}), "solver")

    floors: tuple[int, ...] = ()
    caps: tuple[int, ...] = ()
    schedule_windows: tuple[tuple[int, int], ...] = ()
    mode = "ramp"
    if "windows" in d:
        w = _expect_map(d["windows"], "windows")
        _reject_unknown(w, {"floors", "caps", "schedule", "mode"}, "windows")
        if "floors" in w:
            floors = tuple(_expect_int(v, f"windows.floors[{i}]", 1)
                           for i, v in enumerate(_expect_list(w["floors"], "windows.floors")))
        if "caps" in w:
            caps = tuple(_expect_int(v, f"windows.caps[{i}]", 1)
                         for i, v in enumerate(_expect_list(w["caps"], "windows.caps")))
        if "schedule" in w:
            schedule_windows = _parse_window_pairs(w["schedule"], "windows.schedule")
        mode = _expect_str(w.get("mode", "ramp"), "windows.mode", set(SCHEDULE_MODES))
        band = model.bandwidth
        for i, r in enumerate(caps):
            if r + band > dimension:
                raise ConfigError(f"windows.caps[{i}]",
                                  f"cap {r} plus bandwidth {band} exceeds dimension {dimension}")
        for i, (_, r) in enumerate(schedule_windows):
            if r + band > dimension:
                raise ConfigError(f"windows.schedule[{i}]",
                                  f"cap {r} plus bandwidth {band} exceeds dimension {dimension}")

    functionals = tuple(
        _parse_functional(v, f"functionals[{i}]", model.n,
                          gauges[0], dimension, model.bandwidth, i)
        for i, v in enumerate(_expect_list(d.get("functionals", []), "functionals")))

    sample = _parse_sample(d.get("test_set", {}), "test_set", seed)

    formats: tuple[str, ...] = FORMATS
    if "outputs" in d:
        o = _expect_map(d["outputs"], "outputs")
        _reject_unknown(o, {"formats"}, "outputs")
        if "formats" in o:
            formats = tuple(_expect_str(v, f"outputs.formats[{i}]", set(FORMATS))
                            for i, v in enumerate(_expect_list(o["formats"], "outputs.formats")))
            if not formats:
                raise ConfigError("outputs.formats", "at least one format is required")

    return ExperimentConfig(seed=seed, model=model, dimension=dimension,
                            gauges=gauges, solver=solver, floors=floors, caps=caps,
                            schedule_windows=schedule_windows, schedule_mode=mode,
                            functionals=functionals, sample=sample, formats=formats)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError("<config>", f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError("<config>", f"invalid JSON: {err}") from None
    return parse_config(data)
