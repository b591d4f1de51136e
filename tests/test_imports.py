"""Every module of the package, and every test file, reads each name it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "commlab"
MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """The names an import in source binds that no expression reads, skipping
    `__future__` features and imports with a `# noqa: F401` line."""
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(module):
    assert unused_imports(module.read_text()) == []


def test_unused_import_check_finds_a_name_left_behind():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .gauges import gauge_norm  # noqa: F401  (read by name elsewhere)\n"
              "from .idealops import (HermitianTuple, commutator_row_norms,\n"
              "                       commutator_tuple)\n"
              "def f(tau: HermitianTuple, s):\n"
              "    return np.asarray(commutator_tuple(tau, s))\n")
    assert unused_imports(source) == ["line 4: commutator_row_norms"]
