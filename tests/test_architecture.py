"""Module structure: one import direction, every import at module level."""

import ast
from pathlib import Path

import pytest

import aodlattice

SRC = Path(aodlattice.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_import_inside_a_function(path):
    """Every import runs once, at module import, where the dependency
    graph can see it."""
    nested = [f"{fn.name}:{node.lineno}"
              for fn in ast.walk(_tree(path))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_baselines_imports_only_model():
    """The grid baseline and the metrics depend on the model alone; the
    MAP solver imports the baseline, never the other way round."""
    local = {node.module for node in ast.walk(_tree(SRC / "baselines.py"))
             if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert local == {"model"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_io_imports_orjson(path):
    """The CSV writer's formatter stays a detail of the file formats."""
    imported = {alias.name.split(".")[0] for node in ast.walk(_tree(path))
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(_tree(path))
                 if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module}
    assert ("orjson" in imported) == (path.stem == "io")
