"""The scripts under scripts/ run end to end at desk scale."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_demo_runs(capsys):
    assert load_script("train_demo").run(["--rounds", "3"]) == 0
    out = capsys.readouterr().out
    assert "final accuracy: ideal=" in out and "skipped rounds: " in out


def test_verify_all_quick_passes(tmp_path, capsys):
    assert load_script("verify_all").run(["--quick", "--out", str(tmp_path)]) == 0
    assert "all verification stages passed" in capsys.readouterr().out
    for leaf in ("xi", "pdf", "divergence", "threshold"):
        assert list((tmp_path / leaf).glob("*_manifest.txt"))
