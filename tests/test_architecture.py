"""Module structure: one import direction, every import at module level."""

import ast
import re
import sys
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


def _top_level_imports(path):
    """The top-level names of the absolute imports in a module."""
    imported = {alias.name.split(".")[0] for node in ast.walk(_tree(path))
                if isinstance(node, ast.Import) for alias in node.names}
    return imported | {node.module.split(".")[0] for node in ast.walk(_tree(path))
                       if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_io_imports_orjson(path):
    """The CSV writer's formatter stays a detail of the file formats."""
    assert ("orjson" in _top_level_imports(path)) == (path.stem == "io")


def test_third_party_imports_are_declared_dependencies():
    """Every module the package imports from outside the standard library
    and itself is a [project].dependencies entry of pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parents[1] / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                    for dep in tomllib.load(fh)["project"]["dependencies"]}
    third_party = set().union(*map(_top_level_imports, MODULES)) - set(
        sys.stdlib_module_names) - {"aodlattice"}
    assert {"numpy", "orjson"} <= third_party  # the scan sees the imports
    assert third_party <= declared
