"""Benchmark for commlab: one workload per process, closed loop, one caller.

Run from the repository root:

    python3 bench/run_bench.py --workload kest-lap256 --seed 1 --seconds 55 --trace 0
    python3 bench/run_bench.py                      # every workload, each in a fresh process

Workloads (see bench_workloads): kest-lap256, and decompose-quotient, which
runs decompose-lap512 and then quotient-lap40 in each repetition.  Inputs
are generated from --seed.  The default seed is 1; a claim made with it must
also hold on seed 2.

--trace 0 repeats the workload with no wrappers installed for --seconds and
reports the end-to-end metrics.  --trace 1 alternates untraced and traced
repetitions (bench_trace) and reports the per-layer metrics and the tracing
overhead.  Metric names and units come from BENCHMARK.json.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; artifacts, spans and the full result with its environment are kept
under .bench_work/.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

from bench_trace import Span, Tracer, median_layer_values, span_stats
from bench_workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 7
DEFAULT_SEED = 1
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import commlab
for dim in sys.argv[2:]:
    commlab.instantiate_model(commlab.OperatorModelSpec(name="lap-pos"), int(dim))
print(time.perf_counter() - t0)
"""


def _import_commlab():
    """Import commlab from this checkout's src/, never from site-packages."""
    if not (SRC / "commlab" / "__init__.py").is_file():
        sys.exit(f"run_bench: no commlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import commlab
    if Path(commlab.__file__).resolve().parent != (SRC / "commlab").resolve():
        sys.exit(f"run_bench: imported commlab from {commlab.__file__}, not {SRC}")


def setup_times(dimensions, samples: int = SETUP_SAMPLES) -> list[float]:
    """Import commlab and instantiate the workload's tuples in fresh processes."""
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                               *map(str, dimensions)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(jobs: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "jobs": jobs, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": _git_commit()}


def percentile_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n <= 10:
        return f"n={n}; no percentile has 10 samples beyond it"
    p = math.floor(100.0 * (n - 10) / n)
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f"n={n}; p{p}={value:.6g} s"


def measure(workload, seconds: float, trace: bool, workdir: Path) -> dict:
    """Closed-loop repetitions for `seconds`; with trace, untraced/traced pairs.

    Every repetition's outputs are checked, and every artifact digest must
    match the first repetition's, traced or not; otherwise all operations of
    that repetition count as failed.
    """
    rep_dir = workdir / "rep"
    walls = {False: [], True: []}
    part_walls: dict = {}
    attempted = failed = 0
    reference = None
    qualities = None
    per_rep_stats = []
    spans = []
    started = perf_counter()
    cycles = 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            shutil.rmtree(rep_dir, ignore_errors=True)
            rep_dir.mkdir(parents=True)
            tracer = Tracer() if traced else contextlib.nullcontext()
            with tracer:
                t0 = perf_counter()
                raw = workload.repetition(rep_dir)
                walls[traced].append(perf_counter() - t0)
            outcome = workload.check(raw, rep_dir)
            if reference is None:
                reference, qualities = outcome.digests, outcome.qualities
            attempted += outcome.attempted
            failed += outcome.attempted if outcome.digests != reference else outcome.failed
            if traced:
                rep_spans = tracer.sorted_spans()
                per_rep_stats.append(span_stats(rep_spans))
                spans.append(rep_spans)
            else:
                for part, wall in outcome.part_walls.items():
                    part_walls.setdefault(part, []).append(wall)
        cycles += 1
        elapsed = perf_counter() - started
        if elapsed + elapsed / cycles > seconds:
            break
    shutil.rmtree(rep_dir, ignore_errors=True)
    return {"walls": walls[False], "traced_walls": walls[True], "part_walls": part_walls,
            "attempted": attempted, "failed": failed, "qualities": qualities,
            "per_rep_stats": per_rep_stats, "spans": spans}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(spec: dict, workload, run: dict, setup: list[float]) -> dict:
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(run["walls"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": run["qualities"][workload.quality_name],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def per_layer(spec: dict, run: dict) -> dict:
    names = [m["name"] for m in spec["per_layer"]]
    overhead = statistics.median(run["traced_walls"]) - statistics.median(run["walls"])
    values = median_layer_values(run["per_rep_stats"],
                                 [n for n in names if n != "trace.overhead_s"])
    values["trace.overhead_s"] = overhead
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    workload = WORKLOADS[name](seed)
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(workload.jobs)
    print("env: " + json.dumps(env, sort_keys=True))
    workload.prepare(workdir, SRC)
    setup = [] if trace else setup_times(workload.dimensions)
    run = measure(workload, seconds, trace, workdir)

    fail_frac = run["failed"] / run["attempted"]
    reps = len(run["walls"]) + len(run["traced_walls"])
    print(f"{name} seed={seed} trace={int(trace)}: {reps} repetitions, "
          f"fail_frac = {fail_frac:.6g} ({run['failed']} of {run['attempted']} operations)")
    print(f"wall_s = {statistics.median(run['walls']):.6g} s untraced ({percentile_note(run['walls'])})")
    for part, part_walls in run["part_walls"].items():
        print(f"  of which {part}: median {statistics.median(part_walls):.6g} s")
    if trace:
        metrics = per_layer(spec, run)
        (workdir / "spans.json").write_text(json.dumps(
            {"fields": Span._fields, "repetitions": run["spans"]}))
    else:
        metrics = end_to_end(spec, workload, run, setup)
        for key, value in run["qualities"].items():
            gated = " (gated as quality)" if key == workload.quality_name else ""
            print(f"{key} = {value!r}{gated}")
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']!r} {metric['unit']}")
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    (workdir / f"result-trace{int(trace)}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
         "environment": env, "fail_frac": fail_frac, "walls": run["walls"],
         "traced_walls": run["traced_walls"], "setup_times": setup,
         "qualities": run["qualities"], **result}, indent=2))
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own fresh process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600, check=True)
        sys.stdout.write(proc.stdout)
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_commlab()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
