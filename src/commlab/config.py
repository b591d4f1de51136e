"""Declarative experiment configuration.

A single JSON document drives the pipeline.  Parsing and validation are
strict: unknown keys are rejected and every error names the offending field
by its dotted path, so a bad config fails fast and legibly.  Each section is
one table from its keys to their parsers; an absent key takes the default of
the dataclass or solver argument that receives it.

Shape (entries marked * are required):

    {
      "seed"*: 7,
      "model"*: {"name": "lap-pos", "n": 2, "parameters": [1.0, 400]},
      "dimension"*: 64,
      "gauges"*: [{"family": "schatten", "p": 2.0, "label": "p2"}, ...],
      "solver": {"max_iterations": 2000},
      "windows": {"floors": [...], "caps": [...],
                  "schedule": [[m, r], ...], "mode": "ramp"},
      "functionals": [{"label": "phi-0",
                       "trace_part": {"x": M | null, "ys": [M | null, ...]},
                       "singular_part": {"windows": [[lo, hi], ...],
                                         "states": "uniform" | [M, ...],
                                         "rule": "plain",
                                         "detection_tol": 1e-9} | null}, ...],
      "test_set": {"count": 6, "kinds": [...], "support": 6, "bandwidth": 3},
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
from functools import partial

import numpy as np

from .functionals import FunctionalSpec, TailStateSpec, TracePart
from .gauges import GaugeSpec
from .idealops import OperatorModelSpec, instantiate_model
from .qau import MAX_ITERATIONS
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

def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, "expected a finite number")
    return number

def _str(value, path) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def _int(minimum: int):
    """A parser of integers at least `minimum`."""
    def parse(value, path) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(path, f"must be >= {minimum}, got {value}")
        return value
    return parse


def _choice(options):
    """A parser of strings from `options`."""
    def parse(value, path) -> str:
        if _str(value, path) not in options:
            raise ConfigError(path, f"must be one of {sorted(options)}, got {value!r}")
        return value
    return parse


def _items(parse):
    """A parser of arrays whose i-th item `parse` reads at `<path>[i]`."""
    return lambda value, path: tuple(parse(v, f"{path}[{i}]")
                                     for i, v in enumerate(_expect_list(value, path)))


def _nullable(parse):
    """`parse`, or None for a null value."""
    return lambda value, path: None if value is None else parse(value, path)


def _section(value, path, fields, required=()) -> dict:
    """The keys present in an object, each read by its parser in `fields`.

    A key outside `fields` is refused as unknown and a missing key of
    `required` as required; both name `<path>.<key>` (just `<key>` at the
    top level, whose path is empty).
    """
    d = _expect_map(value, path or "<config>")
    prefix = f"{path}." if path else ""
    for key in d:
        if key not in fields:
            raise ConfigError(f"{prefix}{key}", "unknown field")
    for key in required:
        if key not in d:
            raise ConfigError(f"{prefix}{key}", "required")
    return {key: parse(d[key], f"{prefix}{key}") for key, parse in fields.items() if key in d}


def _make(cls, path, kwargs, field=None):
    """cls(**kwargs), refusing its ValueError at `path`, or at the field `field` reads off it."""
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{path}.{field(str(err))}" if field else path, str(err)) from None


def require_memory(need: int, what: str, path: str = "dimension"):
    """Refuse at `path` an allocation of `need` bytes beyond physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise ConfigError(path, f"{what} need {need} bytes, "
                                f"more than the {memory} bytes of physical memory")


def _entry(value, path) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "matrix entries must be numbers or [re, im] pairs")
    return complex(_number(value, path), 0.0)


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
            out[i, j] = _entry(entry, f"{path}[{i}][{j}]")
    return out


def _window(value, path) -> tuple[int, int]:
    """A 1-based [start, end] pair: a schedule [floor, cap] or a tail [lo, hi] window."""
    pair = _expect_list(value, path)
    if len(pair) != 2:
        raise ConfigError(path, "expected a [start, end] pair")
    m, r = _items(_int(1))(pair, path)
    if m > r:
        raise ConfigError(path, f"start {m} exceeds end {r}")
    return m, r


def _gauge(value, path) -> GaugeSpec:
    # name the field that broke: the family when it is unrecognized,
    # otherwise the parameter the family objects to
    return _make(GaugeSpec, path, _section(value, path, _GAUGE, ("family",)),
                 lambda err: "family" if "family" in err else ("k" if " k" in err else "p"))


def _model(value, path) -> OperatorModelSpec:
    return _make(OperatorModelSpec, path, _section(value, path, _MODEL, ("name",)))


_GAUGE = {"family": _str, "p": _number, "k": _int(1), "label": _str}
_MODEL = {"name": _str, "n": _int(0), "parameters": _items(_number)}
_SOLVER = {"max_iterations": _int(1)}
_WINDOWS = {"floors": _items(_int(1)), "caps": _items(_int(1)), "schedule": _items(_window),
            "mode": _choice(SCHEDULE_MODES)}
# "states" stays "uniform" until the window ends are checked against the dimension
_TAIL = {"windows": _items(_window),
         "states": lambda v, path: v if v == "uniform" else _items(parse_matrix)(v, path),
         "rule": _choice(("plain", "cesaro")), "detection_tol": _number}
_TRACE_PART = {"x": parse_matrix, "ys": _items(parse_matrix)}
_FUNCTIONAL = {"label": _str,
               "trace_part": _nullable(partial(_section, fields=_TRACE_PART)),
               "singular_part": _nullable(partial(_section, fields=_TAIL, required=("windows",)))}
_TEST_SET = {"count": _int(0), "kinds": _items(_choice(KINDS)), "support": _int(1),
             "bandwidth": _int(0)}
_OUTPUTS = {"formats": _items(_choice(FORMATS))}
_TOP = {"seed": _int(0), "model": _model, "dimension": _int(2), "gauges": _items(_gauge),
        "solver": partial(_section, fields=_SOLVER),
        "windows": partial(_section, fields=_WINDOWS),
        "functionals": _items(partial(_section, fields=_FUNCTIONAL)),
        "test_set": partial(_section, fields=_TEST_SET),
        "outputs": partial(_section, fields=_OUTPUTS)}


def _tail(t: dict, path, dimension: int) -> TailStateSpec:
    """A parsed tail section; its window ends are checked before a uniform state is built."""
    for i, (_, hi) in enumerate(t["windows"]):
        if hi > dimension:
            raise ConfigError(f"{path}.windows[{i}]",
                              f"window end {hi} exceeds dimension {dimension}")
    kwargs = dict(t)
    if kwargs.get("states", "uniform") == "uniform":
        kwargs["states"] = tuple(np.eye(hi - lo + 1, dtype=np.complex128) / (hi - lo + 1)
                                 for lo, hi in t["windows"])
    if "rule" in kwargs:
        kwargs["limit_rule"] = kwargs.pop("rule")
    return _make(TailStateSpec, path, kwargs, lambda err: "detection_tol" if "tolerance" in err
                 else "states" if "state" in err else "windows")


def _functional(f: dict, path, n_ops: int, gauge: GaugeSpec,
                dimension: int, bandwidth: int) -> FunctionalSpec:
    """A parsed functional section, checked against the tuple it acts on."""
    trace_part = singular_part = None
    if f.get("trace_part") is not None:
        ys = f["trace_part"].get("ys", ())
        if len(ys) > n_ops:
            raise ConfigError(f"{path}.trace_part.ys",
                              f"got {len(ys)} blocks for a tuple of {n_ops} operators")
        empty = np.zeros((0, 0), dtype=np.complex128)
        trace_part = TracePart(x=f["trace_part"].get("x", empty),
                               ys=ys + (empty,) * (n_ops - len(ys)), gauge=gauge)
        reach = trace_part.reach(bandwidth)
        if reach > dimension:
            raise ConfigError(f"{path}.trace_part",
                              f"supports need dimension {reach}, have {dimension}")
    if f.get("singular_part") is not None:
        singular_part = _tail(f["singular_part"], f"{path}.singular_part", dimension)
    if trace_part is None and singular_part is None:
        raise ConfigError(path, "functional needs a trace part or a singular part")
    return FunctionalSpec(trace_part=trace_part, singular_part=singular_part,
                          label=f.get("label", ""))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    model: OperatorModelSpec
    dimension: int
    gauges: tuple[GaugeSpec, ...]
    max_iterations: int
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


def parse_config(data) -> ExperimentConfig:
    top = _section(data, "", _TOP, ("seed", "model", "dimension", "gauges"))
    model, dimension, gauges = top["model"], top["dimension"], top["gauges"]
    band = model.bandwidth
    if dimension < 2 * band + 2:
        raise ConfigError("dimension", f"model {model.name!r} needs dimension >= {2 * band + 2}")
    require_memory(model.n * (2 * band + 1) * dimension * 16,
                   f"{model.n} operators of {2 * band + 1} complex diagonals")
    if not gauges:
        raise ConfigError("gauges", "at least one gauge is required")

    windows = top.get("windows", {})
    caps, schedule = windows.get("caps", ()), windows.get("schedule", ())
    for key, ends in (("caps", caps), ("schedule", [r for _, r in schedule])):
        for i, r in enumerate(ends):
            if r + band > dimension:
                raise ConfigError(f"windows.{key}[{i}]",
                                  f"cap {r} plus bandwidth {band} exceeds dimension {dimension}")
    if caps or schedule:  # the unit solver's (n, c, c) stack of corners, c = cap + b
        c = max([*caps, *(r for _, r in schedule)]) + band
        require_memory(model.n * c * c * 16, f"{model.n} operator corners of size {c}", "model.n")

    functionals = tuple(_functional(f, f"functionals[{i}]", model.n, gauges[0], dimension, band)
                        for i, f in enumerate(top.get("functionals", ())))
    sample = _make(SampleSpec, "test_set", {"seed": top["seed"], **top.get("test_set", {})})
    formats = top.get("outputs", {}).get("formats", FORMATS)
    if not formats:
        raise ConfigError("outputs.formats", "at least one format is required")

    iterations = top.get("solver", {}).get("max_iterations", MAX_ITERATIONS)
    return ExperimentConfig(seed=top["seed"], model=model, dimension=dimension, gauges=gauges,
                            max_iterations=iterations,
                            floors=windows.get("floors", ()), caps=caps,
                            schedule_windows=schedule, schedule_mode=windows.get("mode", "ramp"),
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
