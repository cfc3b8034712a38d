from concurrent.futures import ProcessPoolExecutor

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    derandomize=True,
)
hypothesis.settings.load_profile("suite")

# Verdict lines appended by the acceptance tests; echoed after the run so
# the one-line-per-criterion record survives pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every process pool airfl.harness constructs, with
    the host pinned at 2 CPUs so that --jobs 2 asks for a pool anywhere."""
    made: list[int] = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountingPool)  # harness imports it when a pool starts
    monkeypatch.setattr("airfl.harness.os.cpu_count", lambda: 2)
    return made
