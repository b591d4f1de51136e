"""The documented surface: the README's library quick start and its config
run as documented, and `commlab.__all__` names exactly the public bindings."""

import importlib
import json
import pkgutil
import re
import types
from pathlib import Path

import pytest

import commlab
from commlab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(lang: str) -> str:
    return re.search(rf"```{lang}\n(.*?)```", README, re.S).group(1)


def test_readme_python_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("python"), "README.md", "exec"), {})


def test_readme_config_passes_every_stage(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_block("json"), encoding="utf-8")
    for stage in ("gauge-check", "k-estimate", "schedule", "decompose"):
        assert main([stage, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("p", [4.0, 3.3, 6.0, 7.0, 9.9])
def test_readme_config_gauge_check_passes_where_p_round_trips_inexactly(tmp_path, p):
    # p -> p/(p-1) -> p gives 4.000000000000001 for p = 4, and the like for the others
    config = json.loads(_block("json"))
    config["gauges"] = [{"family": "schatten", "p": p}]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert main(["gauge-check", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0


def test_all_is_sorted_and_names_every_public_binding():
    names = commlab.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    public = {name for name, value in vars(commlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public


MODULES = {info.name: importlib.import_module(f"commlab.{info.name}")
           for info in pkgutil.iter_modules(commlab.__path__)}


def _code_references():
    """Backticked names in the README prose, with any dotted tail: CamelCase or
    UPPER_CASE ones, and those headed by `commlab` or one of its modules."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    for span in re.findall(r"`([^`\n]+)`", prose):
        ref = re.fullmatch(r"(([A-Za-z_]\w*)(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?", span)
        if ref and (re.fullmatch(r"[A-Z][A-Za-z0-9_]+", ref.group(2))
                    or ref.group(2) in {"commlab", *MODULES}):
            yield ref.group(1)


def test_readme_names_only_existing_classes_and_constants():
    namespaces = [commlab, *MODULES.values(), types.SimpleNamespace(commlab=commlab, **MODULES)]

    def resolves(ref):
        for obj in namespaces:
            for part in ref.split("."):
                obj = getattr(obj, part, None)
            if obj is not None:
                return True
        return False

    refs = sorted(set(_code_references()))
    assert {"HermitianTuple.from_matrices", "MAX_ITERATIONS", "functionals.rows_read",
            "commlab.lebesgue"} <= set(refs)
    assert [ref for ref in refs if not resolves(ref)] == []
