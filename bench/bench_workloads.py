"""The benchmark's workloads: seeded inputs, one repetition, output checks.

Each workload turns the benchmark seed into the program's inputs (config files
or predual elements), runs one closed-loop repetition through commlab's
public entry points, and checks the outputs.  A repetition is timed by the
caller; `prepare` and `check` run outside the timed region.

Operations are the units that count into `fail_frac`: k-estimate cells,
recovery records and bracketed elements.  Every check failure marks the
operations it concerns as failed.  Each workload also reports its quality
numbers, which are deterministic for a seed; the one named `quality_name` is
the gated end-to-end `quality` metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

LAP_POS = {"name": "lap-pos", "parameters": [1.0, 400]}
SCHATTEN_2 = {"family": "schatten", "p": 2.0}
# The README's schedule at N = 64; the decompose workload scales it by N / 64.
README_SCHEDULE = ((2, 4), (4, 8), (8, 16), (16, 24),
                   (20, 32), (24, 40), (32, 48), (40, 56))
BETA_SLACK = 1e-12


@dataclass
class Outcome:
    """Checked result of one repetition."""

    attempted: int
    failed: int
    digests: dict  # artifact name -> sha256 of its bytes
    qualities: dict  # quality name -> value
    part_walls: dict = field(default_factory=dict)  # part name -> seconds


def _sha256_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _schemas(src: Path) -> dict:
    """Artifact file name -> JSON schema shipped with commlab."""
    out = {}
    for path in (src / "commlab" / "schemas").glob("*.schema.json"):
        out[path.name.replace(".schema.json", ".json")] = json.loads(path.read_text())
    return out


def _artifacts_valid(outdir: Path, schemas: dict) -> bool:
    import jsonschema
    found = False
    for path in outdir.glob("*.json"):
        found = True
        try:
            jsonschema.validate(json.loads(path.read_text()), schemas[path.name])
        except (KeyError, ValueError, jsonschema.ValidationError):
            return False
    return found


def _cli(argv: list[str]) -> int:
    """Run commlab's CLI in-process, keeping its status lines off our stdout."""
    from commlab import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class KEstimate:
    """`k-estimate` stage on lap-pos, once with schatten-2 and once with sup.

    Nearly all time goes to the qau optimizer and to cap-sized SVDs in
    gauges; lebesgue and functionals are unused.  schatten-2 takes the
    Frobenius route of `gauge_norm`, sup the full SVD, so a fast path for one
    gauge moves one run and not the other.  `--jobs 2` exercises the only
    in-process parallelism.  The stage has no randomness: the seed reaches
    the program only as the config seed.
    """

    name = "kest-lap256"
    quality_name = "beta_ratio"
    jobs = 2

    def __init__(self, seed: int, tiny: bool = False):
        self.dimension = 40 if tiny else 256
        self.dimensions = (self.dimension,)
        floors, caps = ((2, 4), (8, 12, 16)) if tiny else ((8, 16), (48, 96, 144))
        self.windows = [(m, r) for m in floors for r in caps]
        self.configs = {
            label: {"seed": seed, "model": LAP_POS, "dimension": self.dimension,
                    "gauges": [gauge],
                    "windows": {"floors": list(floors), "caps": list(caps)}}
            for label, gauge in (("schatten-2", SCHATTEN_2), ("sup", {"family": "sup"}))}

    def prepare(self, workdir: Path, src: Path):
        from commlab import (commutator_tuple, instantiate_model, parse_config,
                             ramp_unit, tuple_gauge_norm)
        self.schemas = _schemas(src)
        self.paths = {}
        self.ramp = {}
        for label, config in self.configs.items():
            path = workdir / f"k-estimate-{label}.json"
            path.write_text(json.dumps(config))
            self.paths[label] = path
            parsed = parse_config(config)
            tau = instantiate_model(parsed.model, parsed.dimension)
            for m, r in self.windows:
                unit = ramp_unit(tau, m, r)
                self.ramp[label, m, r] = tuple_gauge_norm(
                    commutator_tuple(tau, unit.matrix), parsed.primary_gauge)

    def operations_per_repetition(self) -> int:
        return len(self.configs) * len(self.windows)

    def repetition(self, outdir: Path):
        return {label: _cli(["k-estimate", "--config", str(path),
                             "--out", str(outdir / label), "--jobs", str(self.jobs)])
                for label, path in self.paths.items()}

    def check(self, codes: dict, outdir: Path) -> Outcome:
        failed = 0
        ratios = []
        for label, code in codes.items():
            run = outdir / label
            bad = code != 0 or not _artifacts_valid(run, self.schemas)
            payload = {} if bad else json.loads((run / "k_estimate.json").read_text())
            if bad or payload["monotonicity_violations"]:
                failed += len(self.windows)
                continue
            for cell in payload["cells"]:
                ramp = self.ramp[label, cell["m"], cell["r"]]
                ratios.append(cell["beta"] / ramp)
                failed += cell["beta"] > ramp * (1.0 + BETA_SLACK)
            failed += len(self.windows) - len(payload["cells"])
        beta_ratio = math.exp(statistics.fmean(map(math.log, ratios))) if ratios else math.nan
        return Outcome(self.operations_per_repetition(), failed,
                       _sha256_tree(outdir), {"beta_ratio": beta_ratio})


class Decompose:
    """`gauge-check`, `schedule` and `decompose` stages on lap-pos.

    One functional (4x4 X, 3x3 Y blocks, a 7-point coordinate tail state) is
    recovered on the identity plus one test operator of each kind.  The time
    goes to dense N^3 work in lebesgue (`recovery_error_bound`,
    `recover_ac_part`), the dense fallback of `commutator_tuple` and N-sized
    SVDs in `operator_norm`; qau only builds ramps.  X is scaled to trace norm
    one and each Y to schatten-2 norm one, so the final recovery bound
    measures the schedule, not the size of the random draw.
    """

    name = "decompose-lap512"
    quality_name = "recovery_bound_final"
    stages = ("gauge-check", "schedule", "decompose")
    kinds = ("finitely-supported", "banded", "random-hermitian")

    def __init__(self, seed: int, tiny: bool = False):
        self.dimension = n = 64 if tiny else 512
        scale = n // 64
        rng = np.random.default_rng(seed)
        x = _complex_gaussian(rng, 4)
        x /= np.linalg.svd(x, compute_uv=False).sum()
        ys = [_complex_gaussian(rng, 3) for _ in range(2)]
        ys = [y / np.linalg.norm(y) for y in ys]
        self.config = {
            "seed": seed, "model": LAP_POS, "dimension": n, "gauges": [SCHATTEN_2],
            "windows": {"schedule": [[m * scale, r * scale] for m, r in README_SCHEDULE]},
            "functionals": [{
                "label": "phi",
                "trace_part": {"x": _matrix_json(x), "ys": [_matrix_json(y) for y in ys]},
                "singular_part": {"windows": [[n - 7 + i, n - 7 + i] for i in range(7)]},
            }],
            "test_set": {"count": len(self.kinds), "kinds": list(self.kinds)},
        }

    def prepare(self, workdir: Path, src: Path):
        self.schemas = _schemas(src)
        self.path = workdir / "decompose.json"
        self.path.write_text(json.dumps(self.config))

    def operations_per_repetition(self) -> int:
        return 1 + len(self.kinds)  # identity plus one test operator per kind

    def repetition(self, outdir: Path):
        return {stage: _cli([stage, "--config", str(self.path), "--out", str(outdir / stage)])
                for stage in self.stages}

    def check(self, codes: dict, outdir: Path) -> Outcome:
        expected = self.operations_per_repetition()
        finals = []
        ok = all(code == 0 and _artifacts_valid(outdir / stage, self.schemas)
                 for stage, code in codes.items())
        failed = expected
        if ok:
            payload = json.loads((outdir / "decompose" / "decomposition.json").read_text())
            records = [(rec, report["status"] == "ok")
                       for report in payload["reports"] for rec in report["per_S"]]
            finals = [rec["bounds"][-1] for rec, _ in records]
            good = sum(rec["sound"] and report_ok for rec, report_ok in records)
            failed = max(0, expected - good)
        final = statistics.median(finals) if finals else math.nan
        return Outcome(expected, failed, _sha256_tree(outdir),
                       {"recovery_bound_final": final})


class Quotient:
    """Library calls to `quotient_norm_bounds` on lap-pos at N = 40, schatten-2.

    Random 4x4 predual elements (window 10, 400 iterations) and elements built
    inside the null subspace (window 12), as in acceptance criterion 8.  The
    same gauges/idealops code as the other workloads runs here on 11x11
    matrices over hundreds of iterations, so per-call Python overhead
    dominates; it is the only part that runs functionals' quotient solver,
    and it bypasses runner and cli.

    `bracket_ratio` is the median of upper / lower.  The lower bound is
    mostly |Tr x|, the pairing with the identity, whose spread from one seed
    to the next moves that median by about 20%.  The quality that is gated is
    therefore `bracket_vs_trivial`: the median of the bracket divided by the
    trivial bracket that the benchmark computes itself, upper |x|_1 + sum_j
    |y_j|_2 (the solver's starting point) over lower |Tr x|.
    """

    name = "quotient-lap40"
    quality_name = "bracket_vs_trivial"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.dimension = 24 if tiny else 40
        self.max_iterations = 20 if tiny else 400
        self.counts = (2, 1) if tiny else (24, 8)  # random, null-subspace elements

    def prepare(self, workdir: Path, src: Path):
        from commlab import (OperatorModelSpec, PredualElement, SampleSpec, e_norm_max,
                             generate_test_set, instantiate_model, schatten)
        rng = np.random.default_rng(self.seed)
        self.gauge = schatten(2)
        self.tau = instantiate_model(OperatorModelSpec(name="lap-pos"), self.dimension)
        self.samples = SampleSpec(seed=int(rng.integers(2**31)), count=6)
        n_random, n_null = self.counts
        self.random_elements = [
            PredualElement(x=_complex_gaussian(rng, 4),
                           ys=(_complex_gaussian(rng, 4), _complex_gaussian(rng, 4)),
                           gauge=self.gauge)
            for _ in range(n_random)]
        self.null_elements = []
        for _ in range(n_null):
            ys = []
            x = np.zeros((7, 7), dtype=np.complex128)
            for t in self.tau.matrices:
                y = np.zeros((6, 6), dtype=np.complex128)
                s = int(rng.integers(2, 6))
                y[:s, :s] = _complex_gaussian(rng, s)
                ys.append(y)
                ye = np.zeros((7, 7), dtype=np.complex128)
                ye[:6, :6] = y
                x += t[:7, :7] @ ye - ye @ t[:7, :7]
            self.null_elements.append(PredualElement(x=x, ys=tuple(ys), gauge=self.gauge))
        self.test_ops = [(op.matrix, e_norm_max(self.tau, self.gauge, op.matrix))
                         for op in generate_test_set(self.samples, self.tau, self.gauge)]
        self.trivial = [
            (np.linalg.svd(pe.x, compute_uv=False).sum() + sum(map(np.linalg.norm, pe.ys)))
            / abs(np.trace(pe.x)) for pe in self.random_elements]

    def operations_per_repetition(self) -> int:
        return len(self.random_elements) + len(self.null_elements)

    def repetition(self, outdir: Path):
        from commlab import functionals
        bounds = [functionals.quotient_norm_bounds(
                      pe, self.tau, self.gauge, window=10, sample_spec=self.samples,
                      max_iterations=self.max_iterations)
                  for pe in self.random_elements]
        null = [functionals.quotient_norm_bounds(
                    pe, self.tau, self.gauge, window=12, sample_spec=self.samples)
                for pe in self.null_elements]
        return bounds, null

    def check(self, result, outdir: Path) -> Outcome:
        from commlab import pairing
        bounds, null = result
        failed = sum(b.upper > 1e-6 for b in null)
        ratios = []
        for pe, b in zip(self.random_elements, bounds):
            ok = b.lower <= b.upper + 1e-6 and all(
                abs(pairing(pe, self.tau, s)) <= b.upper * norm + 1e-8
                for s, norm in self.test_ops)
            failed += not ok
            ratios.append(b.upper / b.lower if b.lower > 0 else math.inf)
        text = json.dumps([[b.lower, b.upper, b.iterations] for b in bounds + null])
        return Outcome(self.operations_per_repetition(), failed,
                       {"bounds": hashlib.sha256(text.encode()).hexdigest()},
                       {"bracket_ratio": statistics.median(ratios),
                        "bracket_vs_trivial": float(statistics.median(
                            r / t for r, t in zip(ratios, self.trivial)))})


class DecomposeQuotient:
    """decompose-lap512, then quotient-lap40, as one repetition.

    Measured apart, quotient-lap40's wall time spread about 20% between runs
    on a shared two-core host, because its per-call Python overhead follows
    the host's load.  Two workloads instead of three leave each run of the
    benchmark long enough to average that out within the time a full
    measurement may take.  The pairing keeps the design: kest-lap256 runs
    the qau optimizer and bypasses lebesgue and the quotient solver, and this
    workload does the reverse.  Its gated quality is the product of the
    parts' qualities, so loosening either bound shows.
    """

    name = "decompose-quotient"
    quality_name = "recovery_x_bracket"
    jobs = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.parts = (Decompose(seed, tiny), Quotient(seed, tiny))
        self.dimensions = tuple(part.dimension for part in self.parts)

    def prepare(self, workdir: Path, src: Path):
        for part in self.parts:
            part.prepare(workdir, src)

    def repetition(self, outdir: Path):
        results = []
        for part in self.parts:
            started = perf_counter()
            raw = part.repetition(outdir / part.name)
            results.append((raw, perf_counter() - started))
        return results

    def check(self, results, outdir: Path) -> Outcome:
        outcomes = [part.check(raw, outdir / part.name)
                    for part, (raw, _) in zip(self.parts, results)]
        qualities = {k: v for o in outcomes for k, v in o.qualities.items()}
        qualities[self.quality_name] = math.prod(
            o.qualities[part.quality_name] for part, o in zip(self.parts, outcomes))
        return Outcome(
            sum(o.attempted for o in outcomes), sum(o.failed for o in outcomes),
            {f"{part.name}/{k}": v for part, o in zip(self.parts, outcomes)
             for k, v in o.digests.items()},
            qualities,
            {part.name: wall for part, (_, wall) in zip(self.parts, results)})


WORKLOADS = {cls.name: cls for cls in (KEstimate, DecomposeQuotient)}
