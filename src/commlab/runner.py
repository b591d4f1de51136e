"""Config-driven pipeline: run stages, write artifacts, summarize.

Artifacts are deterministic: JSON is dumped with sorted keys, complex values
are encoded as [re, im] pairs, floats in CSV carry 17 significant digits, and
no artifact embeds a timestamp.  Re-running with an identical config and seed
reproduces every payload byte for byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .config import ConfigError, ExperimentConfig, require_memory
from .gauges import (GaugeSpec, conjugate_gauge, gauge_norm, holder_check,
                     norm_subgradient, operator_norm)
from .idealops import HermitianTuple
from .lebesgue import DecompositionReport, decompose
from .qau import UnitSchedule, build_schedule, k_estimate
from .sampling import generate_test_set

SCHEMA_VERSION = 2
_CHECK_DIMS = (2, 3, 4, 5, 6, 7, 8)
_CHECK_SAMPLES = 24
_REL_TOL = 1e-9
_FAILURE_KINDS = ("triangle", "unitary", "ideal", "holder", "involution", "subgradient")


def _c(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _non_finite_path(value, path: str = "") -> str | None:
    """Path of the first non-finite float in sorted-key order, or None."""
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return path if isinstance(value, float) and not np.isfinite(value) else None
    return next(filter(None, (_non_finite_path(v, sub) for sub, v in items)), None)


def write_json(path: Path, payload: dict):
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as err:
        where = _non_finite_path(payload)
        if where is None:
            raise
        raise ValueError(f"{where}: {err}") from None
    path.write_text(text + "\n", encoding="utf-8")


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def _random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _gauge_battery(gauge: GaugeSpec, seed: int) -> dict:
    """Axiom and duality checks on seeded matrices; returns failure counts."""
    rng = np.random.default_rng(seed)
    failures = dict.fromkeys(_FAILURE_KINDS, 0)
    back = conjugate_gauge(conjugate_gauge(gauge))
    # p -> p/(p-1) -> p is exact only up to rounding
    if (back.family, back.k) != (gauge.family, gauge.k) or (
            gauge.p is not None and abs(back.p - gauge.p) > _REL_TOL * gauge.p):
        failures["involution"] = 1
    dual = conjugate_gauge(gauge)
    for i in range(_CHECK_SAMPLES):
        dim = _CHECK_DIMS[i % len(_CHECK_DIMS)]
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

        lhs = gauge_norm(gauge, a + b)
        rhs = gauge_norm(gauge, a) + gauge_norm(gauge, b)
        if lhs > rhs + _REL_TOL * (1.0 + rhs):
            failures["triangle"] += 1

        u = _random_unitary(rng, dim)
        v = _random_unitary(rng, dim)
        na = gauge_norm(gauge, a)
        if abs(gauge_norm(gauge, u @ a @ v) - na) > _REL_TOL * (1.0 + na):
            failures["unitary"] += 1

        rhs = operator_norm(a) * gauge_norm(gauge, m) * operator_norm(b)
        if gauge_norm(gauge, a @ m @ b) > rhs + _REL_TOL * (1.0 + rhs):
            failures["ideal"] += 1

        if not holder_check(a, b, gauge).ok:
            failures["holder"] += 1

        d = norm_subgradient(gauge, a)
        pairing = float(np.real(np.vdot(d, a)))
        if abs(pairing - na) > 1e-8 * (1.0 + na):
            failures["subgradient"] += 1
        elif gauge_norm(dual, d) > 1.0 + 1e-8:
            failures["subgradient"] += 1
    return failures


def _header(config: ExperimentConfig) -> dict:
    """The fields every stage payload carries besides its results."""
    return {"schema_version": SCHEMA_VERSION, "seed": config.seed,
            "passed": True, "diagnostics": []}


def _tuple_header(config: ExperimentConfig) -> dict:
    return {**_header(config), "model": config.model.name,
            "dimension": config.dimension, "gauge": config.primary_gauge.label}


def stage_gauge_check(config: ExperimentConfig) -> dict:
    checks = []
    for gauge in config.gauges:
        failures = _gauge_battery(gauge, config.seed)
        checks.append({
            "gauge": gauge.label,
            "family": gauge.family,
            "samples": _CHECK_SAMPLES,
            "failures": failures,
            "passed": not any(failures.values()),
        })
    return {**_header(config), "checks": checks,
            "passed": all(c["passed"] for c in checks)}


def stage_k_estimate(config: ExperimentConfig, jobs: int = 1) -> dict:
    for key in ("floors", "caps"):
        if not getattr(config, key):
            raise ConfigError(f"windows.{key}", "required for the k-estimate stage")
    table = k_estimate(config.instantiate(), config.primary_gauge, config.floors,
                       config.caps, max_iterations=config.max_iterations, jobs=jobs)
    violations = list(table.monotonicity_violations())
    return {
        **_tuple_header(config),
        "floors": list(table.floors),
        "caps": list(table.caps),
        "cells": [{"m": c.floor_m, "r": c.cap_r, "beta": c.beta,
                   "iterations": c.iterations, "status": c.status}
                  for c in table.cells],
        "estimate": table.estimate,
        "monotonicity_violations": violations,
        "passed": not violations,
    }


def _build_configured_schedule(config: ExperimentConfig, tau: HermitianTuple) -> UnitSchedule:
    if not config.schedule_windows:
        raise ConfigError("windows.schedule", "required for this stage")
    return build_schedule(tau, config.primary_gauge, config.schedule_windows,
                          mode=config.schedule_mode, max_iterations=config.max_iterations)


def stage_schedule(config: ExperimentConfig) -> dict:
    schedule = _build_configured_schedule(config, config.instantiate())
    steps = [{
        "floor": unit.floor_m,
        "cap": unit.cap_r,
        "commutator_norm": norm,
        "min_eigenvalue": unit.certificate.min_eigenvalue,
        "max_eigenvalue": unit.certificate.max_eigenvalue,
        "floor_residual": unit.certificate.floor_residual,
    } for unit, norm in zip(schedule.steps, schedule.commutator_norms)]
    return {**_tuple_header(config), "mode": config.schedule_mode, "steps": steps}


def _report_payload(report: DecompositionReport) -> dict:
    return {
        "phi_id": report.phi_id,
        "schedule_id": report.schedule_id,
        "per_S": [{
            "S_id": rec.s_id,
            "sequence": [_c(v) for v in rec.sequence],
            "limit": None if rec.limit is None else _c(rec.limit),
            "bounds": list(rec.bounds),
            "gaps": list(rec.gaps),
            "sound": rec.sound,
        } for rec in report.per_s],
        "residuals": [{"S_id": sid, "value": value} for sid, value in report.residuals],
        "additivity": asdict(report.additivity),
        "idempotence_gap": report.idempotence_gap,
        "status": report.status,
        "diagnostics": list(report.diagnostics),
    }


def stage_decompose(config: ExperimentConfig) -> dict:
    if not config.functionals:
        raise ConfigError("functionals", "required for the decompose stage")
    # the only stage that allocates N x N arrays: the identity and the draws,
    # and the n commutators of one operator at a time
    count, n = config.sample.count + 1, config.model.n
    require_memory(count * 16 * config.dimension ** 2, f"{count} dense test operators")
    require_memory((count + n) * 16 * config.dimension ** 2,
                   f"{n} commutators and {count} dense test operators", "model.n")
    tau = config.instantiate()
    gauge = config.primary_gauge
    schedule = _build_configured_schedule(config, tau)
    test_set = generate_test_set(config.sample, tau, gauge)
    reports = [_report_payload(report)
               for report in decompose(config.functionals, schedule, tau, gauge, test_set)]
    return {**_tuple_header(config), "reports": reports,
            "passed": all(r["status"] == "ok" for r in reports)}


def _gauge_check_rows(payload: dict) -> list:
    return [[c["gauge"], c["samples"], *(c["failures"][k] for k in _FAILURE_KINDS),
             c["passed"]] for c in payload["checks"]]


def _decompose_rows(payload: dict) -> list:
    rows = []
    for rep in payload["reports"]:
        for rec in rep["per_S"]:
            steps = zip(rec["sequence"], rec["bounds"], rec["gaps"])
            for k, (value, bound, gap) in enumerate(steps, start=1):
                rows.append([rep["phi_id"], rec["S_id"], k, value[0], value[1], bound, gap])
    return rows


def _columns(key: str, header: tuple[str, ...]) -> Callable[[dict], list]:
    return lambda payload: [[item[h] for h in header] for item in payload[key]]


class Stage(NamedTuple):
    """A pipeline stage: its CLI name and help, how it computes, what it writes.

    `empty` gives the payload with no results, written with passed false
    when the computation or its writing fails.
    """

    name: str
    help: str
    compute: Callable[[ExperimentConfig, int], dict]
    stem: str
    csv_header: tuple[str, ...]
    csv_rows: Callable[[dict], list]
    empty: Callable[[ExperimentConfig], dict]


_CELL_COLUMNS = ("m", "r", "beta", "iterations", "status")
_STEP_COLUMNS = ("floor", "cap", "commutator_norm")

# Stage functions are looked up when a stage runs, not bound here, so a
# rebinding of runner.stage_* (the benchmark's tracer does that) takes effect.
STAGES = (
    Stage("gauge-check", "run the gauge axiom and duality battery",
          lambda config, jobs: stage_gauge_check(config), "gauge_checks",
          ("gauge", "samples", *_FAILURE_KINDS, "passed"), _gauge_check_rows,
          lambda config: {**_header(config), "checks": []}),
    Stage("k-estimate", "tabulate certified commutator-norm values over a window grid",
          lambda config, jobs: stage_k_estimate(config, jobs), "k_estimate",
          _CELL_COLUMNS, _columns("cells", _CELL_COLUMNS),
          lambda config: {**_tuple_header(config), "floors": [], "caps": [], "cells": [],
                          "estimate": None, "monotonicity_violations": []}),
    Stage("schedule", "build and certify a monotone unit schedule",
          lambda config, jobs: stage_schedule(config), "schedule",
          _STEP_COLUMNS, _columns("steps", _STEP_COLUMNS),
          lambda config: {**_tuple_header(config), "mode": config.schedule_mode,
                          "steps": []}),
    Stage("decompose", "recover trace parts of the configured functionals",
          lambda config, jobs: stage_decompose(config), "decomposition",
          ("phi_id", "S_id", "step", "value_re", "value_im", "bound", "gap"),
          _decompose_rows, lambda config: {**_tuple_header(config), "reports": []}),
)


def _write_stage(out: Path, stage: Stage, payload: dict, formats) -> list[str]:
    written = []
    if "json" in formats:
        write_json(out / f"{stage.stem}.json", payload)
        written.append(f"{stage.stem}.json")
    if "csv" in formats:
        write_csv(out / f"{stage.stem}.csv", stage.csv_header, stage.csv_rows(payload))
        written.append(f"{stage.stem}.csv")
    return written


def run_experiment(config: ExperimentConfig, out_dir, stages=None,
                   jobs: int = 1) -> dict:
    """Run the requested stages, write their artifacts, return the summary.

    Stages default to the full pipeline and always execute in pipeline
    order.  A stage whose computation or writing raises a numerical error
    (ValueError or ArithmeticError) writes its empty payload with passed
    false and the message in `diagnostics`.  The summary payload is also
    written to summary.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = tuple(stage.name for stage in STAGES)
    if stages is None:
        stages = names
    for name in stages:
        if name not in names:
            raise ConfigError("<stages>", f"unknown stage {name!r}")

    summary: dict = {"schema_version": SCHEMA_VERSION, "seed": config.seed,
                     "stages": {}, "passed": True}
    artifacts: list[str] = []
    for stage in STAGES:
        if stage.name not in stages:
            continue
        try:
            payload = stage.compute(config, jobs)
            files = _write_stage(out, stage, payload, config.formats)
        except (ValueError, ArithmeticError) as err:
            payload = {**stage.empty(config), "passed": False, "diagnostics": [str(err)]}
            files = _write_stage(out, stage, payload, config.formats)
        artifacts.extend(files)
        summary["stages"][stage.name] = {"passed": payload["passed"], "artifacts": files}
        summary["passed"] = summary["passed"] and payload["passed"]
    summary["artifacts"] = artifacts
    write_json(out / "summary.json", summary)
    return summary


def _safe_name(raw: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", raw)


def _report_files(stem: str, payload: dict) -> list:
    """The (name, header, rows) of each data file `render_report` makes of an artifact."""
    if stem == "k_estimate":
        return [("k_estimate.dat", "m r beta",
                 [(c["m"], c["r"], float(c["beta"])) for c in payload["cells"]])]
    files = []
    for rep in payload["reports"]:
        for rec in rep["per_S"]:
            base = f"decomposition_{_safe_name(rep['phi_id'])}_{_safe_name(rec['S_id'])}"
            steps = range(1, len(rec["sequence"]) + 1)
            bounds = [float(b) for b in rec["bounds"]]
            files.append((f"{base}.dat", "k value bound",
                          list(zip(steps, [float(v[0]) for v in rec["sequence"]], bounds))))
            files.append((f"{base}_gap.dat", "k gap bound",
                          list(zip(steps, [float(g) for g in rec["gaps"]], bounds))))
    return files


def render_report(out_dir) -> dict:
    """Emit plain-text plot data from the artifacts present in out_dir.

    Per decomposition record: one file with columns (k, value, bound) where
    value is the real part of the recovery sequence, and one with columns
    (k, gap, bound) for bound-versus-gap curves.  The k-estimate table is
    flattened to (m, r, beta) triples.  Missing artifacts are skipped with a
    notice.  An artifact that is not valid JSON or lacks a field is refused
    with a ConfigError naming its file, before any data file is written.
    """
    out = Path(out_dir)
    files, notices = [], []
    for stem in ("k_estimate", "decomposition"):
        path = out / f"{stem}.json"
        if not path.exists():
            notices.append(f"no {stem.replace('_', '-')} artifact; skipped")
            continue
        try:
            files.extend(_report_files(stem, json.loads(path.read_text(encoding="utf-8"))))
        except (ValueError, KeyError, TypeError, IndexError) as err:
            message = f"malformed artifact ({type(err).__name__}: {err})"
            raise ConfigError(str(path), message) from None
    for name, header, rows in files:
        lines = [header, *(" ".join(_fmt(v) for v in row) for row in rows)]
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"written": [name for name, _, _ in files], "notices": notices}
