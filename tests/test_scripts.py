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


@pytest.mark.parametrize("refused", ["config", "jobs"])
def test_verify_all_exits_2_when_a_stage_refuses_its_input(tmp_path, capsys, refused):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 1\n")
    bad = {"config": ["--config", str(cfg)], "jobs": ["--jobs", "0"]}[refused]
    assert load_script("verify_all").run(["--quick", "--out", str(tmp_path / "out"), *bad]) == 2
    out = capsys.readouterr().out
    assert "FAILED stages" not in out
    assert out.splitlines()[-1] == (
        "stages that refused their input: verify-xi, verify-pdf, verify-divergence, optimize-threshold"
    )


def test_train_demo_refuses_bad_input_with_one_error_line(capsys):
    assert load_script("train_demo").run(["--rounds", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config key 'train.rounds_m': expected at least 1, got 0\n"
