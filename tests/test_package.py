"""The package's public surface: airfl.__all__ and what it no longer holds."""

import ast
import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import airfl
from airfl import specfun

# removed public names, by the module that used to define them
_REMOVED = {
    "specfun": ("Accuracy", "heaviside"),
    "channel": ("pathloss_amplitude",),
    "fltrain": ("ModelParams", "load_idx", "load_idx_pair", "binary_subset", "local_gradient", "_draws_key"),
    "harness": ("mc_conditional_second_moment", "CondMomentResult", "read_sweep_csv", "convergence_report",
                "_mean_sq_row_norm", "xi_untestable", "_xi_rel_resolution", "_cell_text", "_COMMUNICATION_GAMMA",
                "_xi_unit"),
    "aircomp": ("_coefficients", "effective_coefficients"),
    "analysis": ("closed_form_report", "ClosedFormReport", "convergence_bound", "LearningConstants"),
    "config": ("ResolvedExperiment",),
    "cli": ("_centers",),
}


def test_all_is_the_public_surface():
    names = airfl.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(airfl, n)]
    assert missing == []

    namespace: dict = {}
    exec("from airfl import *", namespace)
    assert set(names) <= namespace.keys()

    for module, removed in _REMOVED.items():
        mod = importlib.import_module(f"airfl.{module}")
        for name in removed:
            assert name not in names
            assert not hasattr(airfl, name)
            assert not hasattr(mod, name)


def test_every_top_level_name_is_used_or_public():
    # a def or class that nothing in the package refers to and that
    # __all__ does not export runs only under tests: it belongs there
    src = Path(airfl.__file__).resolve().parent
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name: module for name, module in defined.items() if name not in used and name not in airfl.__all__}
    assert unused == {}


def test_one_error_function():
    # erf and erfc are the standard library's, and every module but specfun
    # reaches them through specfun, never through math
    assert specfun.erf is math.erf and specfun.erfc is math.erfc
    src = Path(airfl.__file__).resolve().parent
    direct = []
    for path in sorted(src.glob("*.py")):
        if path.name == "specfun.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("erf", "erfc")
                    and isinstance(node.value, ast.Name) and node.value.id == "math"):
                direct.append(f"{path.name}:{node.lineno} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                direct.extend(f"{path.name}:{node.lineno} from math import {a.name}"
                              for a in node.names if a.name in ("erf", "erfc"))
    assert direct == []


def test_only_gate_builds_an_untestable_label():
    # one testability rule: a gate builder passes counts, and harness.Gate
    # alone words the verdict of a gate that cannot be tested
    src = Path(airfl.__file__).resolve().parent
    builders = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings, in_gate = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if ast.get_docstring(node, clean=False) is not None:
                    docstrings.add(id(node.body[0].value))
            if path.name == "harness.py" and isinstance(node, ast.ClassDef) and node.name == "Gate":
                in_gate = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str) and "untestable" in node.value
                    and id(node) not in docstrings):
                builders.append(("Gate" if id(node) in in_gate else path.name, node.lineno))
    assert [where for where, _ in builders] == ["Gate"]


def test_every_airfl_name_in_the_readme_resolves():
    # each dotted name is walked from the package, importing every
    # submodule the walk reaches, so a renamed or deleted name shows
    readme = Path(__file__).resolve().parents[1] / "README.md"
    names = set(re.findall(r"\bairfl(?:\.[A-Za-z_]\w*)+", readme.read_text(encoding="utf-8")))
    assert len(names) >= 20
    unresolved = []
    for name in sorted(names):
        parts = name.split(".")
        obj = airfl
        try:
            for i, part in enumerate(parts[1:], start=2):
                if not hasattr(obj, part):
                    importlib.import_module(".".join(parts[:i]))
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert unresolved == []


def test_every_test_the_readme_cites_resolves():
    # a citation `test_<x>.py::Class[::test]` names a class of that test
    # file (and a test of the class); a bare `Class[::test]` is one of the
    # file cited last before it.  Each file is parsed, not imported.
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text(encoding="utf-8")
    cites = re.findall(r"`(?:(test_\w+\.py)::)?(Test\w+)(?:::(test_\w+))?`", text)
    assert len(cites) >= 15
    unresolved, last_file = [], None
    for file, cls, test in cites:
        last_file = file or last_file
        tree = ast.parse((root / "tests" / last_file).read_text(encoding="utf-8"))
        bodies = [node.body for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls]
        if not bodies or (test and not any(isinstance(n, ast.FunctionDef) and n.name == test for n in bodies[0])):
            unresolved.append(f"{last_file}::{cls}" + (f"::{test}" if test else ""))
    assert unresolved == []


# each command at its smallest size: the fewest trials it accepts, tiny training
_SMALLEST = {
    "verify-xi": ["--trials", "10000"],
    "verify-pdf": ["--trials", "1000000"],
    "verify-divergence": ["--trials", "1000"],
    "optimize-threshold": [],
    "sweep-threshold": [],
    "train": [],
}
_SMALL_CFG = """\
k_devices = 3
train.rounds_m = 2
train.batch_size = 4
train.data_per_device = 8
train.n_features = 3
train.test_size = 20
verify_xi.rhos = 0.8
verify_xi.gammas = 0.5
verify_divergence.scan_trials = 1000
verify_divergence.scan_ks = 2,3
sweep.gammas = 0.1,0.2,0.3,0.5,0.8,1.0,2.0,3.0
sweep.modes = communication_oriented
"""


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # scipy serves the test oracles only: no command loads it, whether it
    # imports the CLI or runs
    cfg = tmp_path / "small.cfg"
    cfg.write_text(_SMALL_CFG)
    runs = [[name, *flags, "--config", str(cfg)] for name, flags in _SMALLEST.items()]
    code = (
        "import contextlib, io, sys\n"
        "import airfl.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert airfl.cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(airfl.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.splitlines() == ["[]", "[]"]


def test_cli_import_leaves_the_process_pool_unloaded():
    # the pool's modules load when a pool first starts, so a --jobs 1 run never loads them
    code = "import sys, airfl.cli; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(airfl.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out == "[]\n"


def test_pyproject_version_is_the_package_version():
    # the run manifest records airfl.__version__; the build metadata must agree
    tomllib = pytest.importorskip("tomllib")
    with open(Path(airfl.__file__).resolve().parents[2] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == airfl.__version__


def test_console_script_is_the_cli_main():
    # pyproject's `airfl` entry point names the function that runs the CLI
    tomllib = pytest.importorskip("tomllib")
    with open(Path(airfl.__file__).resolve().parents[2] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["airfl"]
    from airfl.cli import main

    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is main
