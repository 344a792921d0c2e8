"""numpy is the only runtime dependency.

scipy, sympy and hypothesis may be installed where the tests run, so an
import of one of them in the package would pass every other test and
still break an install that follows pyproject.toml. Every absolute import
in src/heatgauge must name a standard-library module or numpy, and
pyproject.toml must declare numpy alone.
"""
import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heatgauge"


def _absolute_imports(path):
    """(line, top-level module) of each absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    sources = sorted(PACKAGE.glob("*.py"))
    imported = [(path.name, line, module) for path in sources
                for line, module in _absolute_imports(path)]
    assert len(sources) > 5 and ("numpy" in {module for _, _, module in imported})
    assert [f"{name}:{line}: {module}" for name, line, module in imported
            if module not in allowed] == []


def test_pyproject_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == ["numpy"]
