"""Tests of the benchmark itself, at tiny sizes and with --jobs 1 only.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from probe import REF_KERNEL_S, Probe, normalise  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

TINY = run.Workload("tiny", (("optimize-threshold",),), calls={"optimizer.optimal_threshold": 3})


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKSPACE", tmp_path)
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    monkeypatch.setattr(run, "MIN_SETUPS", 3)
    return tmp_path


def test_self_time_of_nested_calls():
    # outer runs 0..10 and calls inner over 2..5 and 6..7
    ticks = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("m.outer", body)()
    assert tracer.stats["m.outer"] == [1, 10.0, 6.0]
    assert tracer.stats["m.inner"] == [2, 4.0, 4.0]
    assert list(tracer.span_parent) == [-1, 0, 0]
    assert list(tracer.span_start) == [0.0, 2.0, 6.0]
    assert list(tracer.span_end) == [10.0, 5.0, 7.0]


def test_span_cap_keeps_counts_and_times():
    tracer = Tracer(span_cap=2)
    leaf = tracer.wrap("m.leaf", lambda x: x)
    for i in range(5):
        assert leaf(i) == i
    assert tracer.stats["m.leaf"][0] == 5
    assert len(tracer.span_start) == 2


def test_install_wraps_every_binding_and_restores_them():
    import numpy as np

    import airfl.channel
    import airfl.cli

    modules = [m for n, m in sys.modules.items() if n == "airfl" or n.startswith("airfl.")] + [np]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    original = airfl.channel.substream
    holders = [m for m in modules if vars(m).get("substream") is original]
    assert {m.__name__ for m in holders} >= {"airfl.channel", "airfl.config", "airfl.fltrain", "airfl.harness"}

    with Tracer() as tracer:
        wrapped = airfl.channel.substream
        assert wrapped is not original
        assert all(vars(m)["substream"] is wrapped for m in holders)
        assert np.histogram2d is not before[("numpy", "histogram2d")]
        airfl.channel.substream(1, 2)
        assert tracer.stats["channel.substream"][0] == 1

    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before


def test_missing_function_is_absent_not_zero():
    tracer = Tracer()
    tracer.install(targets=(("aircomp.aggregate", "airfl.aircomp", "no_such_function"),), probes={})
    tracer.uninstall()
    assert tracer.absent == {"aircomp.aggregate"}
    assert tracer.counter_values()["aircomp.aggregate.active_frac"] is None

    stats = {label: [1, 1.0, 0.5] for label, _, _ in TARGETS if label != "channel.draw_channel"}
    trace = {"stats": stats, "counters": {}, "absent": ["channel.draw_channel"]}
    child = run.Child(0.1, None, 1.0, [run.Pass([{"wall_s": 1.0, "cpu_s": 1.0}], [])], trace)
    metrics, notes = run.layer_metrics(run.WORKLOADS["divergence"], child, child)
    assert metrics["channel.draw_channel.calls"] == {"value": None, "unit": "count", "status": "absent"}
    assert metrics["channel.substream.share"]["value"] == 0.5
    assert any("channel.draw_channel" in n and "absent" in n for n in notes)


def test_normalise_takes_out_the_probe_and_rescales():
    probe = Probe()
    probe.samples = [(0.0, 1e-4), (1.0, 3e-4), (2.0, 2e-4), (5.0, 9e-4)]
    summary = probe.summary(0.5, 3.0)
    assert summary == {"median_s": 2.5e-4, "spent_s": 5e-4}
    assert normalise(1.0005, summary) == pytest.approx(REF_KERNEL_S / 2.5e-4)


def _pass(stdout: str, code, hashes=None) -> run.Pass:
    cmd = {"argv": ["verify-xi"], "exit": code, "traceback": None, "stdout": stdout}
    return run.Pass([cmd], [hashes or {"a.csv": "1"}])


def test_fail_line_exit_code_and_csv_change_count_as_failures():
    ref = [{"a.csv": "1"}]
    cases = [
        ("PASS a: ok\nPASS b: ok\n", 0, None, 0),
        ("PASS a: ok\nFAIL b: off by 5 se\n", 1, None, 2),
        ("PASS a: ok\nFAIL b: off by 5 se\n", 0, None, 1),
        ("PASS a: ok\n", 2, None, 1),
        ("PASS a: ok\n", 0, {"a.csv": "2"}, 1),
    ]
    for stdout, code, hashes, failed in cases:
        tally = run.Tally()
        run.count_ops(_pass(stdout, code, hashes), ref, tally, "r")
        assert (tally.attempted, tally.failed) == (stdout.count("\n") + 1, failed)


def test_run_reports_every_end_to_end_metric(workspace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = run.run_workload(TINY, seed=7, seconds=0.0, trace=False)
    assert record["correct"] and record["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in record["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert len(record["samples"]["setup_s"]) >= 3


def test_traced_run_reports_every_layer_metric(workspace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = run.run_workload(TINY, seed=7, seconds=0.0, trace=True)
    assert record["correct"]
    assert {m["name"] for m in spec["per_layer"]} <= set(record["metrics"])
    assert record["metrics"]["optimizer.optimal_threshold.calls"]["value"] == 3
    assert record["metrics"]["cli.main.calls"]["value"] == 1


def test_non_zero_exit_makes_the_run_incorrect(workspace):
    bad = run.Workload("bad", (("verify-xi", "--trials", "5"),))  # below the minimum: exit 2
    record = run.run_workload(bad, seed=7, seconds=0.0, trace=False)
    assert not record["correct"]
    assert record["failed"] >= 2
    assert record["metrics"]["pass_frac"]["value"] < 1.0
