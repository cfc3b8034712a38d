"""The package's public surface: airfl.__all__ and what it no longer holds."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import airfl

# removed public names, by the module that used to define them
_REMOVED = {
    "specfun": ("Accuracy", "heaviside"),
    "channel": ("pathloss_amplitude",),
    "fltrain": ("ModelParams", "load_idx", "load_idx_pair", "binary_subset", "local_gradient"),
    "harness": ("mc_conditional_second_moment", "CondMomentResult", "read_sweep_csv"),
    "analysis": ("closed_form_report", "ClosedFormReport"),
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


def test_cli_import_leaves_scipy_unloaded():
    # scipy is for the quadrature oracles only; it loads when one runs
    code = "import sys, airfl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(airfl.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


def test_pyproject_version_is_the_package_version():
    # the run manifest records airfl.__version__; the build metadata must agree
    tomllib = pytest.importorskip("tomllib")
    with open(Path(airfl.__file__).resolve().parents[2] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == airfl.__version__
