"""Config validation, the pipeline runner, artifact formats, and exit codes."""

import argparse
import contextlib
import copy
import functools
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import commlab
from commlab import ConfigError, parse_config, runner
from commlab.cli import build_parser, main

SCHEMA_DIR = Path(commlab.__file__).parent / "schemas"

BASE = {
    "seed": 7,
    "model": {"name": "lap-pos", "parameters": [1.0, 400]},
    "dimension": 64,
    "gauges": [{"family": "schatten", "p": 2.0}, {"family": "ky-fan", "k": 3}],
    "solver": {"max_iterations": 200},
    "windows": {
        "floors": [4, 8],
        "caps": [16, 24, 32],
        "schedule": [[2, 4], [4, 8], [8, 16], [16, 24],
                     [20, 32], [24, 40], [32, 48], [40, 56]],
        "mode": "ramp",
    },
    "functionals": [
        {
            "label": "phi-a",
            "trace_part": {
                "x": [[1.0, 0.0], [0.0, 0.5]],
                "ys": [None, [[0.0, [0, -1.0]], [[0, 1.0], 0.0]]],
            },
            "singular_part": {
                "windows": [[57, 57], [58, 58], [59, 59], [60, 60],
                            [61, 61], [62, 62], [63, 63]],
            },
        }
    ],
    "test_set": {"count": 6, "kinds": ["random-hermitian", "finitely-supported"]},
}


def write_config(tmp_path, payload=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload if payload is not None else BASE),
                    encoding="utf-8")
    return str(path)


def variant(**changes):
    cfg = copy.deepcopy(BASE)
    cfg.update(changes)
    return cfg


# ------------------------------------------------------------- validation


def test_parse_roundtrip():
    config = parse_config(copy.deepcopy(BASE))
    assert config.seed == 7
    assert config.model.name == "lap-pos"
    assert config.primary_gauge.label == "schatten-2"
    assert len(config.functionals) == 1
    assert config.schedule_mode == "ramp"


def test_missing_required_field_path():
    cfg = copy.deepcopy(BASE)
    del cfg["seed"]
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.path == "seed"


def test_unknown_top_level_key():
    with pytest.raises(ConfigError) as err:
        parse_config(variant(extra=1))
    assert err.value.path == "extra"


def test_bad_gauge_field_path():
    cfg = copy.deepcopy(BASE)
    cfg["gauges"][0] = {"family": "frobenius"}
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.path == "gauges[0].family"


def test_cap_exceeding_dimension_path():
    cfg = copy.deepcopy(BASE)
    cfg["windows"]["caps"] = [16, 64]
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.path == "windows.caps[1]"


def test_dimension_too_small_for_model():
    with pytest.raises(ConfigError) as err:
        parse_config(variant(dimension=3))
    assert err.value.path == "dimension"


def test_with_seed_replaces_both_seeds():
    config = parse_config(copy.deepcopy(BASE))
    reseeded = config.with_seed(11)
    assert reseeded.seed == 11
    assert reseeded.sample.seed == 11


def test_minimal_config_takes_the_dataclass_defaults():
    config = parse_config({
        "seed": 3, "model": {"name": "lap-pos"}, "dimension": 16,
        "gauges": [{"family": "sup"}],
        "functionals": [{"singular_part": {"windows": [[p, p] for p in range(9, 16)]}}],
    })
    assert config.max_iterations == 2000
    assert config.sample.count == 6
    assert config.schedule_mode == "ramp"
    tail = config.functionals[0].singular_part
    assert (tail.limit_rule, tail.detection_tol) == ("plain", 1e-9)


# ---------------------------------------------------------------- the CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_rejects_negative_seed(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = run_cli("gauge-check", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--seed", "-3")
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path)
    code = run_cli("k-estimate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", jobs)
    assert code == 2
    assert "config error: --jobs must be at least one" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_missing_config_file(tmp_path, capsys):
    code = run_cli("gauge-check", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = run_cli("schedule", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_cli_validation_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, variant(dimension=3))
    code = run_cli("k-estimate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 2
    assert "dimension" in capsys.readouterr().err


@pytest.mark.parametrize("stage, edit, path", [
    ("decompose", lambda c: c["functionals"][0]["trace_part"].update(x=[[[float("nan"), 0]]]),
     "functionals[0].trace_part.x[0][0][0]"),
    ("k-estimate", lambda c: c["gauges"][0].update(p=float("inf")), "gauges[0].p"),
    ("k-estimate", lambda c: c["gauges"][0].update(p=10 ** 400), "gauges[0].p"),
], ids=["nan-matrix-entry", "infinite-gauge-exponent", "integer-beyond-float-range"])
def test_cli_refuses_non_finite_numbers(tmp_path, capsys, stage, edit, path):
    cfg = copy.deepcopy(BASE)
    edit(cfg)
    code = run_cli(stage, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: {path}: expected a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stage, edit, path", [
    ("gauge-check",
     lambda c: c["functionals"][0]["singular_part"].update(windows=[[17, 17], [18, 3]]),
     "functionals[0].singular_part.windows[1]"),
    ("decompose", lambda c: c["functionals"][0]["singular_part"].update(windows=[]),
     "functionals[0].singular_part.windows"),
    ("decompose", lambda c: c["functionals"][0]["singular_part"].update(states=[[[1.0]]]),
     "functionals[0].singular_part.states"),
    ("decompose", lambda c: c["functionals"][0]["singular_part"].update(
        windows=[[56, 57], [58, 59], [60, 61], [62, 63]], states=[[[0.5, 1.0], [-1.0, 0.5]]] * 4),
     "functionals[0].singular_part.states"),
    # every tail would fail to settle under a zero tolerance, and the run exit 1
    ("decompose", lambda c: c["functionals"][0]["singular_part"].update(detection_tol=0),
     "functionals[0].singular_part.detection_tol"),
    ("gauge-check", lambda c: c["functionals"][0]["singular_part"].update(detection_tol=-1e-9),
     "functionals[0].singular_part.detection_tol"),
    ("gauge-check", lambda c: c["model"].update(parameters=[1.0, 0]), "model"),
    ("gauge-check", lambda c: c.update(model={"name": "diagonal-grid", "parameters": [0]}),
     "model"),
    ("k-estimate", lambda c: c["solver"].update(step_rule="sqrt"), "solver.step_rule"),
    # refused before anything of that size is allocated: the dense test operators
    # of decompose by the stage, the diagonals of the tuple by parse_config
    ("decompose", lambda c: c.update(dimension=10_000_000), "dimension"),
    ("k-estimate", lambda c: c.update(dimension=10 ** 13), "dimension"),
    # the solver's step and stopping rule are fixed; their former keys are unknown
    ("k-estimate", lambda c: c["solver"].update(step_scale=0.0), "solver.step_scale"),
    ("k-estimate", lambda c: c["solver"].update(stop_tolerance=-1.0),
     "solver.stop_tolerance"),
], ids=["tail-window-start-after-end", "empty-tail-windows", "tail-states-count",
        "non-hermitian-tail-state", "zero-detection-tol", "negative-detection-tol",
        "lap-pos-zero-grid", "diagonal-grid-zero-steps", "removed-step-rule", "dimension-beyond-memory", "diagonals-beyond-memory",
        "zero-step-scale", "negative-stop-tolerance"])
def test_cli_refuses_bad_config_with_path(tmp_path, capsys, stage, edit, path):
    cfg = copy.deepcopy(BASE)
    edit(cfg)
    code = run_cli(stage, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: {path}: " in err
    assert "Traceback" not in err


def _physical_memory():
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _no_tuple(self):
    raise AssertionError("the tuple was instantiated before the memory check")


@pytest.mark.parametrize("stage", ["k-estimate", "decompose"])
def test_cli_refuses_tuple_stacks_beyond_memory_at_model_n(tmp_path, capsys, monkeypatch, stage):
    # diagonal-grid diagonals that fit, but n members stacked beyond physical
    # memory: the unit solver's (n, c, c) corners (every stage, from the caps)
    # or decompose's n N x N commutators of one operator.  Both are refused
    # before anything is allocated, the tuple's diagonals included.
    monkeypatch.setattr(commlab.config.ExperimentConfig, "instantiate", _no_tuple)
    entries = _physical_memory() // 16
    if stage == "k-estimate":
        n = 64
        dim = 2 * math.isqrt(entries // n)  # n dim^2 is four times the entries
        windows = {"floors": [4], "caps": [dim], "schedule": [[2, 4], [4, 8]]}
    else:
        dim = math.isqrt(entries // 64)  # 7 dense operators of dim^2 fit, 7 + 64 do not
        n, windows = 64, {"floors": [4], "caps": [16], "schedule": [[2, 4], [4, 8]]}
    cfg = variant(model={"name": "diagonal-grid", "n": n}, dimension=dim, windows=windows)
    out = tmp_path / "o"
    code = run_cli(stage, "--config", write_config(tmp_path, cfg), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: model.n: {n} " in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def _at(cfg, section):
    """The object at a config path such as functionals[0].trace_part."""
    keys = section.replace("[", ".").replace("]", "").split(".")
    return functools.reduce(operator.getitem,
                            [int(k) if k.isdigit() else k for k in keys], cfg)


def _refusal(tmp_path, capsys, cfg):
    code = run_cli("gauge-check", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o"))
    assert code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("section", [
    "gauges[0]", "model", "solver", "windows", "functionals[0]",
    "functionals[0].trace_part", "functionals[0].singular_part", "test_set", "outputs"])
def test_cli_refuses_an_unknown_key_in_every_section(tmp_path, capsys, section):
    cfg = variant(outputs={"formats": ["json"]})
    _at(cfg, section)["step_rule"] = 1
    err = _refusal(tmp_path, capsys, cfg)
    assert f"config error: {section}.step_rule: unknown field" in err


@pytest.mark.parametrize("key", ["include_identity", "normalize"])
def test_cli_refuses_the_removed_test_set_keys(tmp_path, capsys, key):
    cfg = copy.deepcopy(BASE)
    cfg["test_set"][key] = True
    assert f"config error: test_set.{key}: unknown field" in _refusal(tmp_path, capsys, cfg)


@pytest.mark.parametrize("section, key", [
    ("model", "name"), ("gauges[0]", "family"), ("functionals[0].singular_part", "windows")])
def test_cli_refuses_a_missing_required_key(tmp_path, capsys, section, key):
    cfg = copy.deepcopy(BASE)
    del _at(cfg, section)[key]
    assert f"config error: {section}.{key}: required" in _refusal(tmp_path, capsys, cfg)


@pytest.mark.parametrize("stage, edit, stem, diagnostic, warning", [
    ("decompose", lambda c: c["windows"].update(schedule=[[1, 2], [1, 3], [1, 4]]),
     "decomposition", "", None),
    ("decompose", lambda c: c["windows"].update(schedule=[[2, 4], [1, 6]]), "decomposition",
     "", None),
    ("k-estimate", lambda c: c["model"].update(parameters=[1e308, 400]), "k_estimate", "",
     None),
    # Tr(X S) with entries of 1e308 is beyond the float range; the first non-finite
    # value in sorted-key order is then named by its path
    ("decompose", lambda c: c["functionals"][0]["trace_part"].update(
        x=[[1e308, 1e308], [1e308, 1e308]]), "decomposition",
     "reports[0].additivity.lower: ", "overflow encountered in reduce"),
], ids=["march-condition", "decreasing-floors", "entries-overflow", "inf-in-artifact"])
def test_cli_numerical_failure_is_a_failed_stage(tmp_path, capsys, stage, edit, stem,
                                                 diagnostic, warning):
    cfg = copy.deepcopy(BASE)
    edit(cfg)
    out = tmp_path / "o"
    with (pytest.warns(RuntimeWarning, match=warning) if warning
          else contextlib.nullcontext()):
        code = run_cli(stage, "--config", write_config(tmp_path, cfg), "--out", str(out))
    captured = capsys.readouterr()
    assert code == 1
    assert f"{stage}: FAIL" in captured.out
    assert "Traceback" not in captured.err
    payload = json.loads((out / f"{stem}.json").read_text(encoding="utf-8"))
    schema = json.loads((SCHEMA_DIR / f"{stem}.schema.json").read_text(encoding="utf-8"))
    jsonschema.validate(payload, schema)
    assert payload["passed"] is False
    assert payload["diagnostics"]
    assert payload["diagnostics"][0].startswith(diagnostic)


def test_cli_runs_on_numpy_alone(tmp_path):
    # pyproject's runtime dependencies are numpy only; the test extras must stay unloaded
    script = (
        "import sys\n"
        "from commlab.cli import main\n"
        f"code = main(['schedule', '--config', {write_config(tmp_path)!r},"
        f" '--out', {str(tmp_path / 'o')!r}])\n"
        "extras = ('scipy', 'jsonschema', 'hypothesis', 'pytest')\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in extras))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(commlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_cli_subcommands_are_the_stage_table():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted([s.name for s in runner.STAGES] + ["report"])


def test_run_experiment_calls_stages_through_the_module(tmp_path, monkeypatch):
    # a tracer that rebinds runner.stage_* must see every stage call
    calls = []
    original = runner.stage_schedule

    def patched(config):
        calls.append(config.seed)
        return original(config)

    monkeypatch.setattr(runner, "stage_schedule", patched)
    summary = runner.run_experiment(parse_config(copy.deepcopy(BASE)), tmp_path,
                                    stages=("schedule",))
    assert calls == [BASE["seed"]]
    assert summary["stages"]["schedule"]["passed"]


def test_cli_failing_stage_exits_one(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    # floors jump backwards past an earlier cap: the schedule cannot march
    cfg["windows"]["schedule"] = [[2, 16], [4, 24], [8, 32]]
    path = write_config(tmp_path, cfg)
    code = run_cli("schedule", "--config", path, "--out", str(tmp_path / "o"))
    assert code == 1
    assert "schedule: FAIL" in capsys.readouterr().out


def test_cli_full_pipeline_and_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    for command in ("gauge-check", "k-estimate", "schedule", "decompose"):
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 0
        assert f"{command}: pass" in capsys.readouterr().out
    for stem in ("gauge_checks", "k_estimate", "schedule", "decomposition"):
        assert (out / f"{stem}.json").exists()
        assert (out / f"{stem}.csv").exists()
    assert (out / "summary.json").exists()


def test_cli_seed_override_lands_in_summary(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert run_cli("gauge-check", "--config", cfg, "--out", str(out),
                   "--seed", "99") == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["seed"] == 99


def test_decompose_labels_an_unlabelled_functional_by_its_place(tmp_path):
    cfg = copy.deepcopy(BASE)
    second = copy.deepcopy(cfg["functionals"][0])
    del second["label"]
    cfg["functionals"].append(second)
    cfg["test_set"]["count"] = 2
    out = tmp_path / "o"
    assert run_cli("decompose", "--config", write_config(tmp_path, cfg), "--out", str(out)) == 0
    payload = json.loads((out / "decomposition.json").read_text(encoding="utf-8"))
    assert [report["phi_id"] for report in payload["reports"]] == ["phi-a", "phi-1"]


# -------------------------------------------------------------- artifacts


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(tmp)
    out = tmp / "artifacts"
    for command in ("gauge-check", "k-estimate", "schedule", "decompose"):
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 0
    return out


def test_artifacts_validate_against_shipped_schemas(pipeline_out):
    pairs = [
        ("gauge_checks.json", "gauge_checks.schema.json"),
        ("k_estimate.json", "k_estimate.schema.json"),
        ("schedule.json", "schedule.schema.json"),
        ("decomposition.json", "decomposition.schema.json"),
        ("summary.json", "summary.schema.json"),
    ]
    for artifact, schema_name in pairs:
        payload = json.loads((pipeline_out / artifact).read_text(encoding="utf-8"))
        schema = json.loads((SCHEMA_DIR / schema_name).read_text(encoding="utf-8"))
        jsonschema.validate(payload, schema)


def test_csv_format_contract(pipeline_out):
    lines = (pipeline_out / "k_estimate.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,r,beta,iterations,status"
    assert len(lines) > 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        # floats are printed with 17 significant digits, so parsing and
        # re-printing reproduces the text exactly
        assert fields[2] == f"{float(fields[2]):.17g}"
        assert fields[4] in ("ok", "chained")


def test_k_estimate_beta_decreasing_in_cap(pipeline_out):
    payload = json.loads((pipeline_out / "k_estimate.json").read_text(encoding="utf-8"))
    by_floor = {}
    for cell in payload["cells"]:
        by_floor.setdefault(cell["m"], []).append((cell["r"], cell["beta"]))
    for rows in by_floor.values():
        betas = [b for _, b in sorted(rows)]
        assert all(a >= b - 1e-6 for a, b in zip(betas, betas[1:]))


def test_json_payloads_have_sorted_keys(pipeline_out):
    raw = (pipeline_out / "summary.json").read_text(encoding="utf-8")
    payload = json.loads(raw)
    assert raw == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_report_renders_plot_data(pipeline_out, capsys):
    assert run_cli("report", "--out", str(pipeline_out)) == 0
    capsys.readouterr()
    dat = (pipeline_out / "k_estimate.dat").read_text(encoding="utf-8").splitlines()
    assert dat[0] == "m r beta"
    assert len(dat) == 7  # 2 floors x 3 caps
    curves = sorted(pipeline_out.glob("decomposition_phi-a_*.dat"))
    assert curves
    gap_files = [p for p in curves if p.name.endswith("_gap.dat")]
    value_files = [p for p in curves if not p.name.endswith("_gap.dat")]
    assert len(gap_files) == len(value_files)
    head = value_files[0].read_text(encoding="utf-8").splitlines()[0]
    assert head == "k value bound"


def test_report_on_empty_directory(tmp_path, capsys):
    assert run_cli("report", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "notice" in out
    assert "wrote 0 data files" in out


@pytest.mark.parametrize("text, reason", [
    ("{not json", "JSONDecodeError"),
    (json.dumps({"cells": [{"m": 4, "beta": 0.5}]}), "KeyError: 'r'"),
], ids=["invalid-json", "missing-key"])
def test_report_refuses_a_malformed_artifact(tmp_path, capsys, text, reason):
    (tmp_path / "k_estimate.json").write_text(text, encoding="utf-8")
    assert run_cli("report", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"artifact error: {tmp_path / 'k_estimate.json'}: malformed artifact ({reason}" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k_estimate.json"]


def test_report_takes_only_out():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {o for a in sub.choices["report"]._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--out"}


@pytest.mark.parametrize("flag", [["--seed", "-1"], ["--seed", "3"], ["--jobs", "2"],
                                  ["--config", "cfg.json"]], ids=lambda f: f[0] + f[1])
def test_report_refuses_the_flags_it_does_not_read(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("report", "--out", str(tmp_path), *flag)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        for command in ("k-estimate", "schedule", "decompose"):
            assert run_cli(command, "--config", cfg, "--out", str(out)) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    assert files_a == sorted(p.name for p in out_b.iterdir())
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


# ------------------------------------------------------------ fuzzed configs

# The README config scaled to N = 32, with the tail windows past the last cap;
# the last one is three wide, so swapping its ends makes a reversed window.
SMALL = {
    "seed": 7,
    "model": {"name": "lap-pos", "parameters": [1.0, 400]},
    "dimension": 32,
    "gauges": [{"family": "schatten", "p": 2.0}],
    "windows": {
        "floors": [2],
        "caps": [8, 12],
        "schedule": [[1, 2], [2, 4], [4, 8], [8, 12], [10, 16], [12, 20], [16, 24]],
    },
    "functionals": [{
        "label": "phi-a",
        "trace_part": {"x": [[1.0]], "ys": [None, None]},
        "singular_part": {"windows": [[25, 25], [26, 26], [27, 27], [28, 28], [29, 29],
                                      [30, 32]]},
    }],
    "test_set": {"count": 5, "kinds": ["finitely-supported", "banded"]},
}
_FIXED = {"dimension", "count"}  # sizes and budgets are never fuzzed


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        items = [(k, v) for k, v in node.items() if k not in _FIXED]
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [leaf for k, v in items for leaf in _numeric_leaves(v, path + (k,))]


def _assert_floats_agree(a, b, rel, path="$"):
    """The same JSON shape and leaves, floats equal within `rel` relative."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), path
        for key in a:
            _assert_floats_agree(a[key], b[key], rel, f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (u, v) in enumerate(zip(a, b)):
            _assert_floats_agree(u, v, rel, f"{path}[{i}]")
    elif isinstance(a, float):
        assert abs(a - b) <= rel * max(abs(a), abs(b)), (path, a, b)
    else:
        assert a == b, path


def test_artifacts_agree_across_blas_thread_counts(tmp_path):
    # the README's contract: bytes only at one thread count; across counts every
    # JSON float agrees within 1e-12 relative
    cfg = write_config(tmp_path, SMALL)
    stages = ("k-estimate", "schedule", "decompose")
    script = ("import sys\n"
              "from commlab.cli import main\n"
              "for stage in sys.argv[2:]:\n"
              "    assert main([stage, '--config', sys.argv[1], '--out', stage]) == 0\n")
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(commlab.__file__).parents[1])}
        (tmp_path / threads).mkdir()
        done = subprocess.run([sys.executable, "-c", script, cfg, *stages], env=env,
                              cwd=tmp_path / threads, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
    for stage in stages:
        ones = sorted((tmp_path / "1" / stage).glob("*.json"))
        assert ones, stage
        for one in ones:
            two = tmp_path / "2" / stage / one.name
            _assert_floats_agree(json.loads(one.read_text(encoding="utf-8")),
                                 json.loads(two.read_text(encoding="utf-8")), 1e-12)


_LEAVES = _numeric_leaves(SMALL)
_WINDOWS = sorted({leaf[:-1] for leaf in _LEAVES
                   if len(leaf) > 2 and leaf[-3] in ("schedule", "windows")
                   and isinstance(leaf[-2], int)})
_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(_LEAVES), st.sampled_from([0, -1, 1e-300, 1e300, -1e300, 1e308])),
    st.tuples(st.sampled_from(_WINDOWS), st.just("swap")))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_MUTATIONS)
def test_cli_contract_holds_on_fuzzed_configs(mutation):
    path, value = mutation
    cfg = copy.deepcopy(SMALL)
    if value == "swap":
        functools.reduce(operator.getitem, path, cfg).reverse()
    else:
        functools.reduce(operator.getitem, path[:-1], cfg)[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        for stage in runner.STAGES:
            assert main([stage.name, "--config", str(path), "--out", tmp]) in (0, 1, 2)
