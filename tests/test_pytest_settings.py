"""The suite's own pytest settings: a failing Hypothesis example is reported
as one failed test, and the session goes on to run the rest."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(n):
    assert False


def test_passes():
    pass
'''


def test_a_failing_hypothesis_example_is_a_plain_failure(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert out.rstrip().splitlines()[-1].strip("= ").startswith("1 failed, 1 passed")
