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


# module -> the package names it imports: the one import direction, model
# at the bottom; a module imports only from the layers below it
LOCAL_IMPORTS = {
    "model": set(),
    "forward": {"model"},
    "baselines": {"model"},
    "simulate": {"model"},
    "map_solver": {"baselines", "model"},
    "mcmc": {"map_solver", "model"},
    "parallel": {"map_solver", "model"},
    "io": {"forward", "model", "__version__"},
    "cli": {"baselines", "forward", "io", "map_solver", "mcmc", "model", "parallel",
            "simulate"},
    "__init__": {"baselines", "forward", "map_solver", "mcmc", "model", "parallel",
                 "simulate"},
}


def _local_imports(path):
    """The modules a module imports from the package (`from .x import`),
    and the names it imports from the package itself (`from . import y`)."""
    nodes = [node for node in ast.walk(_tree(path))
             if isinstance(node, ast.ImportFrom) and node.level > 0]
    return {node.module for node in nodes if node.module} | {
        alias.name for node in nodes if not node.module for alias in node.names}


def test_every_module_has_a_pinned_place():
    assert set(LOCAL_IMPORTS) == {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_local_imports_follow_the_one_direction(path):
    """The grid baseline and the metrics depend on the model alone, the MAP
    solver on the baseline, the chain and the scheduler on the solver, and
    the file formats on the forward model, never the other way round."""
    assert _local_imports(path) == LOCAL_IMPORTS[path.stem]


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
