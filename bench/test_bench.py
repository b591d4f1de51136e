"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run_bench  # noqa: E402  (pins BLAS threads before numpy loads)
from bench_trace import Tracer, commlab_modules, self_times, span_stats  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

run_bench._import_commlab()

SPEC = run_bench.load_spec()


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request, tmp_path_factory):
    workload = WORKLOADS[request.param](seed=3, tiny=True)
    workdir = tmp_path_factory.mktemp(request.param)
    workload.prepare(workdir, run_bench.SRC)
    return workload, run_bench.measure(workload, 0.0, True, workdir)


def test_every_named_metric_is_reported_with_its_unit(traced_run, tmp_path):
    workload, run = traced_run
    untraced = run_bench.measure(workload, 0.0, False, tmp_path)
    setup = run_bench.setup_times(workload.dimensions, samples=1)
    for metrics, declared in ((run_bench.end_to_end(SPEC, workload, untraced, setup),
                               SPEC["end_to_end"]),
                              (run_bench.per_layer(SPEC, run), SPEC["per_layer"])):
        assert list(metrics) == [m["name"] for m in declared]
        for m in declared:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert math.isfinite(metrics[m["name"]]["value"])
    assert untraced["failed"] == run["failed"] == 0
    assert untraced["qualities"] == run["qualities"]


def test_child_spans_lie_inside_parents_and_self_time_is_nonnegative(traced_run):
    _, run = traced_run
    for spans in run["spans"]:
        assert spans
        by_id = {sp.id: sp for sp in spans}
        for sp in spans:
            if sp.parent is not None:
                parent = by_id[sp.parent]
                assert parent.start <= sp.start <= sp.end <= parent.end
        assert min(self_times(spans)) >= 0.0
        assert all(entry["self_s"] >= 0.0 for entry in span_stats(spans).values())


def test_worker_thread_spans_are_parented_to_k_estimate(traced_run):
    workload, run = traced_run
    if workload.jobs < 2:
        pytest.skip("single-threaded workload")
    spans = run["spans"][0]
    by_id = {sp.id: sp for sp in spans}
    solves = [sp for sp in spans if sp.name == "qau.optimize_unit"]
    assert solves
    assert all(by_id[sp.parent].name == "qau.k_estimate" for sp in solves)


def test_tracer_rebinds_every_namespace_and_restores_every_attribute(tmp_path):
    before = {name: dict(vars(mod)) for name, mod in commlab_modules().items()}
    with Tracer():
        import commlab.gauges
        import commlab.qau
        assert commlab.qau.gauge_norm is commlab.gauges.gauge_norm
        assert commlab.qau.gauge_norm is not before["commlab.gauges"]["gauge_norm"]
    workload = WORKLOADS["decompose-quotient"](seed=3, tiny=True)
    workload.prepare(tmp_path, run_bench.SRC)
    assert run_bench.measure(workload, 0.0, True, tmp_path)["spans"]
    after = {name: dict(vars(mod)) for name, mod in commlab_modules().items()}
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        assert all(after[name][key] is value for key, value in attrs.items()), name


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "kest-lap256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_declared_names_are_unique_and_match_the_workloads():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "wall_s", "peak_rss_mb", "quality"} == {
        m["name"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
