"""The package's public names: each module's __all__, exported once; the
one count rule, sequences._count, is the only place a parameter is cast with
int(); the Monte Carlo harness imports no reference path; the process runner
sits below the harness; and numpy is the one third-party module the package
imports and declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

import gsmgof
from gsmgof import bounds, errors, gsm, montecarlo, runner, sequences, testproc

MODULES = (bounds, errors, gsm, montecarlo, runner, sequences, testproc)


def test_every_module_name_is_exported():
    for module in MODULES:
        missing = set(module.__all__) - set(gsmgof.__all__)
        assert not missing, f"{module.__name__}: {sorted(missing)}"


def test_no_name_is_exported_twice():
    assert len(gsmgof.__all__) == len(set(gsmgof.__all__))


def test_every_exported_name_resolves():
    for name in gsmgof.__all__:
        assert hasattr(gsmgof, name), name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gsmgof, name) is getattr(module, name), name


# The functions that may cast a parameter with int(): the count rule itself,
# and the config reader, which casts an entry after its own is_integer() check.
_INT_CASTS_ALLOWED = {("sequences", "_count"), ("cli", "_read")}


def _own_nodes(func: ast.AST):
    """The nodes of func's body, nested function definitions left out."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _parameter_casts(source: str, module: str) -> list[str]:
    """Every int(<parameter of the enclosing function>) call in source."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                or (module, func.name) in _INT_CASTS_ALLOWED):
            continue
        args = func.args
        params = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if arg is not None}
        for node in _own_nodes(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "int" and len(node.args) == 1
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in params):
                found.append(f"{module}.{func.name}:{node.lineno}: int({node.args[0].id})")
    return found


def test_no_parameter_is_cast_with_int():
    """int() truncates 2.5 to 2 and fails on NaN and inf with its own errors;
    a count argument goes through sequences._count instead."""
    found = []
    for path in sorted(Path(gsmgof.__file__).parent.glob("*.py")):
        found += _parameter_casts(path.read_text(encoding="utf-8"), path.stem)
    assert not found, found


def _imported_names(source: str, module: str) -> set[str]:
    """The names source imports from the package module `module`."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for alias in node.names}


def test_montecarlo_runs_no_reference_path():
    """The batched kernel is the Monte Carlo harness's only path: it neither
    simulates a replication whole nor runs the test on one."""
    source = Path(montecarlo.__file__).read_text(encoding="utf-8")
    assert not {"simulate", "gaussian_draws"} & _imported_names(source, "gsm")
    assert "run_test" not in _imported_names(source, "testproc")
    assert {"RekeyedDraws", "_parts"} <= (_imported_names(source, "gsm")
                                          | _imported_names(source, "testproc"))


def test_the_bias_floor_is_written_once_and_the_harness_sums_no_window_by_fsum():
    """sigma**2 ln**1.5(1/sigma) is stated once in the package (testproc's
    bias floor), and montecarlo names no math.fsum: its windows are summed
    by sequences._window_sums."""
    package = Path(gsmgof.__file__).parent
    assert sum(path.read_text(encoding="utf-8").count("math.log(1.0 / sigma) ** 1.5")
               for path in package.glob("*.py")) == 1
    source = (package / "montecarlo.py").read_text(encoding="utf-8")
    assert not [node.lineno for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and node.attr == "fsum"
                and isinstance(node.value, ast.Name) and node.value.id == "math"]


def _top_level_names(source: str) -> set[str]:
    """The names source defines at module level: functions, classes and
    assigned names."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return names


def test_the_runner_sits_below_the_harness():
    """runner imports from the package only the worker error, the draw table
    and the count rule (no module above it, no kernel constant), montecarlo
    defines none of its names and reads only the job, the run and the summed
    counts from it, and it exports nothing."""
    source = Path(runner.__file__).read_text(encoding="utf-8")
    assert {(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names} == {("errors", "WorkerError"), ("gsm", "_ChunkDraws"),
                                         ("sequences", "_count")}
    harness = Path(montecarlo.__file__).read_text(encoding="utf-8")
    runner_names = _top_level_names(source) - {"__all__"}
    assert {"_run_jobs", "_Child", "_FORK_WORK"} <= runner_names
    assert not runner_names & _top_level_names(harness)
    assert _imported_names(harness, "runner") == {"_Job", "_run_jobs", "_sums"}
    assert runner.__all__ == []


def test_the_cast_guard_sees_nested_functions_on_their_own():
    source = """
def outer(n):
    def inner(m):
        return int(m), int(n)
    return int(n) + int(len([]))
"""
    assert sorted(_parameter_casts(source, "m")) == ["m.inner:4: int(m)", "m.outer:5: int(n)"]


def _third_party_imports(source: str) -> set[str]:
    """The top-level modules source imports from outside the standard library
    (relative imports, of the package's own modules, left out)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_numpy_is_the_only_runtime_dependency():
    """What the package imports and what pyproject.toml declares are both
    numpy alone: no other dependency comes back without this test changing."""
    imported = set()
    for path in sorted(Path(gsmgof.__file__).parent.glob("*.py")):
        imported |= _third_party_imports(path.read_text(encoding="utf-8"))
    assert imported == {"numpy"}
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(gsmgof.__file__).parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("the package is not imported from a source checkout")
    with pyproject.open("rb") as handle:
        declared = tomllib.load(handle)["project"]["dependencies"]
    assert {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in declared} == {"numpy"}


def test_the_import_guard_sees_every_absolute_import():
    source = """
import os, numpy.random as npr
from scipy.special import ndtri
from . import gsm
from .sequences import b_value
def f():
    import pandas
"""
    assert _third_party_imports(source) == {"numpy", "scipy", "pandas"}
