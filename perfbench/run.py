"""airfl benchmark: CLI workloads timed end to end, plus a traced per-layer run.

    python3 perfbench/run.py --workload divergence [--seed 2026] [--seconds 20] [--trace 0|1]

Work happens in fresh interpreters (`child.py`) that import `airfl.cli`
from `src/` and make passes over the workload's commands through
`airfl.cli.main`, writing CSVs under `.perfbench/` in the checkout.

With `--trace 0` children run passes, CHILD_SLICE_S seconds each, until
`--seconds` have passed (at least MIN_PASSES passes).  `wall_s` and `cpu_s`
are medians over the passes, `setup_s` over at least MIN_SETUPS interpreter
starts, `peak_rss_mb` over the children.  The three times are normalised by
the speed probe (probe.py) that runs in each child; the raw times are kept
in the record as `raw_wall_s`, `raw_cpu_s` and `raw_setup_s`.  With
`--trace 1` one untraced and one traced pass, each in its own interpreter
and without the probe, give the per-layer numbers and the tracing overhead.
The last line of standard output is the JSON result; `.perfbench/results/`
keeps a fuller record with the environment, every sample and the CSV
hashes (see compare.py).

A run is correct when every command exits 0 without a traceback, no verdict
line reads FAIL, and every CSV is byte-identical across the run's passes,
to earlier runs of the same commands and seed in this checkout (whatever
their --jobs), and, for a workload with a reference, to the reference run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from probe import normalise
from tracer import COUNTER_UNITS, TARGETS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKSPACE = ROOT / ".perfbench"

MIN_PASSES = 3
MIN_SETUPS = 5
CHILD_SLICE_S = 5.0
RUN_DEADLINE_S = 170.0

_TRIALS_DIV, _SCAN_TRIALS = 12_000, 1_000
_ROUNDS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]  # airfl argv without --seed/--out/--jobs/--config
    config: str = ""  # key = value lines, passed as --config when not empty
    jobs: int = 1
    reference_jobs: int | None = None  # one extra run at this --jobs must write the same CSVs
    # traced functions the workload must call, with the call count its sizes imply (or None)
    calls: dict[str, int | None] = field(default_factory=dict)


_DIV_LAYERS = {
    "config.resolve": None,
    "fltrain.build_devices": None,
    "fltrain.calibrate_g_bound": None,
    "fltrain.round_gradients": None,
    "analysis.divergence_exact": None,
    "harness.mc_weight_divergence": 1,
    "harness.k_slope_scan": 1,
    "harness._pmap": 5,
    "harness.write_csv": 2,
    "harness.write_manifest": 1,
    "cli.main": 1,
}
_DIV_COMMAND = (("verify-divergence", "--trials", str(_TRIALS_DIV)),)
_DIV_CONFIG = f"verify_divergence.scan_trials = {_SCAN_TRIALS}\n"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "divergence",
            _DIV_COMMAND,
            _DIV_CONFIG,
            calls={
                **_DIV_LAYERS,
                "channel.substream": None,
                "channel.draw_channel": None,
                "aircomp.aggregate": _TRIALS_DIV + 4 * _SCAN_TRIALS,
            },
        ),
        Workload(
            "closed_form_checks",
            (
                ("verify-xi", "--trials", "500000"),
                ("verify-pdf", "--trials", "5000000"),
                ("optimize-threshold",),
            ),
            calls={
                "channel.substream": None,
                "channel.draw_channel_block": None,
                "harness.histogram2d": None,
                "harness._bin_mass": 1600,
                "analysis.joint_cdf_xy": None,
                "analysis.joint_pdf_xy": None,
                "specfun.erf": None,
                "specfun.erfc": None,
                "specfun.exp_integral_ei": None,
                "harness.mc_xi_moments": 16,
                "harness.mc_joint_distribution_check": 1,
                "harness.pdf_normalization": 1,
                "harness.cdf_pdf_consistency": 1,
                "optimizer.optimal_threshold": 3,
                "config.resolve": None,
                "harness.write_csv": 3,
                "harness.write_manifest": 3,
                "cli.main": 3,
            },
        ),
        Workload(
            "train_sweep",
            (("sweep-threshold",),),
            f"train.rounds_m = {_ROUNDS}\n",
            calls={
                "fltrain.train": 33,
                "fltrain.round_gradients": None,
                "fltrain.evaluate": None,
                "fltrain.calibrate_g_bound": None,
                "fltrain.build_devices": None,
                "config.resolve": None,
                "optimizer.optimal_threshold": None,
                "channel.substream": None,
                "channel.draw_channel": None,
                "aircomp.aggregate": 33 * _ROUNDS,
                "aircomp.preprocessing_beta": None,
                "harness.sweep_threshold": 1,
                "harness._pmap": 1,
                "harness.write_csv": 1,
                "harness.write_manifest": 1,
                "cli.main": 1,
            },
        ),
        # trials run in pool workers, which the parent's trace does not see
        Workload("divergence_jobs2", _DIV_COMMAND, _DIV_CONFIG, jobs=2, reference_jobs=1, calls=_DIV_LAYERS),
    )
}

# (name, unit) of every reported metric, in BENCHMARK.json order
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or a child failed to start)."""


@dataclass
class Pass:
    """One pass over the workload's commands."""

    commands: list[dict]
    hashes: list[dict[str, str]]  # per command: CSV name -> sha1
    probe: dict | None = None  # the speed probe's summary, if it ran

    @property
    def wall_s(self) -> float:
        return sum(c["wall_s"] for c in self.commands)

    @property
    def cpu_s(self) -> float:
        return sum(c["cpu_s"] for c in self.commands)


@dataclass
class Child:
    """One fresh interpreter and the passes it made."""

    setup_s: float
    setup_probe: dict | None
    rss_mb: float
    passes: list[Pass]
    trace: dict | None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _spawn(spec: dict, tag: str, deadline: float, probe: bool) -> dict:
    """Run child.py on spec in a fresh interpreter and return its result."""
    WORKSPACE.mkdir(exist_ok=True)
    spec_path = WORKSPACE / f"spec-{tag}.json"
    result_path = WORKSPACE / f"result-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path), repr(t_spawn), str(int(probe))],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag}: run deadline passed") from None
    finally:
        # the child leads its own process group; this also ends stray pool workers
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{tag}: child exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["airfl_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"airfl imported from {result['airfl_file']}, not from {ROOT / 'src'}")
    return result


def _sha1(path: Path) -> str:
    return hashlib.sha1(path.read_bytes()).hexdigest()


def run_child(
    wl: Workload, seed: int, jobs: int, trace: bool, slice_s: float, tag: str, deadline: float
) -> Child:
    """Passes over the workload in a fresh interpreter for slice_s seconds (at least one)."""
    work = WORKSPACE / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_args: tuple[str, ...] = ()
    if wl.config:
        (work / "bench.cfg").write_text(wl.config, encoding="utf-8")
        cfg_args = ("--config", str(work / "bench.cfg"))
    spec = {
        "commands": [[*cmd, "--seed", str(seed), "--jobs", str(jobs), *cfg_args] for cmd in wl.commands],
        "out_dir": str(work),
        "slice_s": slice_s,
        "trace": trace,
        "spans_path": str(WORKSPACE / f"spans-{wl.name}.npz") if trace else None,
    }
    res = _spawn(spec, tag, deadline, probe=not trace)
    passes = []
    for p, rep in enumerate(res["passes"]):
        hashes = [{f.name: _sha1(f) for f in sorted((work / str(p) / str(i)).glob("*.csv"))}
                  for i in range(len(rep["commands"]))]
        passes.append(Pass(rep["commands"], hashes, rep["probe"]))
    rss_mb = (res["maxrss_kb"] + res["maxrss_children_kb"]) / 1024.0
    return Child(res["setup_s"], res["setup_probe"], rss_mb, passes, res["trace"])


def count_ops(rep: Pass, reference: list[dict[str, str]], tally: Tally, label: str) -> None:
    """Score one pass: each verdict line and each command's exit is an operation.

    A command's exit fails on a non-zero code, a traceback, no CSV written,
    or CSV bytes that differ from the reference.
    """
    for i, cmd in enumerate(rep.commands):
        name = f"{label} {cmd['argv'][0]}"
        for line in cmd["stdout"].splitlines():
            if line.startswith(("PASS ", "FAIL ")):
                tally.op(line.startswith("PASS "), f"{name}: {line}")
        why = []
        if cmd["exit"] != 0:
            why.append(f"exit {cmd['exit']}")
        if cmd["traceback"]:
            why.append(f"traceback\n{cmd['traceback']}")
        if not rep.hashes[i]:
            why.append("wrote no CSV")
        elif rep.hashes[i] != reference[i]:
            why.append(f"CSV bytes differ: {rep.hashes[i]} vs reference {reference[i]}")
        tally.op(not why, f"{name}: {'; '.join(why)}")


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _pkg_version(name: str) -> str:
    try:
        return version(name)
    except PackageNotFoundError:
        return "unknown"


def environment(wl: Workload, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _pkg_version("numpy"),
        "scipy": _pkg_version("scipy"),
        "workload": wl.name,
        "commands": [list(c) for c in wl.commands],
        "config": wl.config,
        "jobs": wl.jobs,
        "seed": seed,
    }


def _store_key(wl: Workload, seed: int) -> str:
    """Key of the CSVs a workload's commands must reproduce in this checkout.

    --jobs is left out on purpose: results must not depend on it.  The
    program's source and the numpy version are in, because either may
    change the random streams.
    """
    h = hashlib.sha1(json.dumps([[list(c) for c in wl.commands], wl.config, seed]).encode())
    h.update(_pkg_version("numpy").encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()


def _metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "status": "absent"}
    return {"value": value, "unit": unit}


def layer_metrics(wl: Workload, plain: Child, traced: Child) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced pass, and warnings about them."""
    tr = traced.trace
    untraced_wall = plain.passes[0].wall_s
    traced_wall = tr["stats"]["cli.main"][1] if "cli.main" in tr["stats"] else traced.passes[0].wall_s
    metrics: dict[str, dict] = {}
    notes = []
    for label, _, _ in TARGETS:
        if label in tr["absent"]:
            for suffix, unit in ((".calls", "count"), (".self_s", "s"), (".share", "ratio")):
                metrics[label + suffix] = _metric(None, unit)
            notes.append(f"WARN {label}: absent from the program")
            continue
        calls, _, self_s = tr["stats"][label]
        metrics[label + ".calls"] = _metric(calls, "count")
        metrics[label + ".self_s"] = _metric(self_s, "s")
        metrics[label + ".share"] = _metric(self_s / traced_wall, "ratio")
        if label in wl.calls:
            want = wl.calls[label]
            if calls == 0:
                notes.append(f"WARN {label}: exists but never ran on {wl.name}")
            elif want is not None:
                verdict = "ok" if calls == want else "MISMATCH"
                notes.append(f"INFO calls {label}={calls} expected={want} {verdict}")
    for name, value in tr["counters"].items():
        metrics[name] = _metric(value, COUNTER_UNITS[name])
    metrics["trace.untraced_wall_s"] = _metric(untraced_wall, "s")
    metrics["trace.traced_wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    return metrics, notes


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for one seed; returns the full record."""
    if not (ROOT / "src" / "airfl" / "cli.py").is_file():
        raise BenchError(f"no airfl program under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = environment(wl, seed)
    env["loadavg_start"] = _loadavg()
    # untimed warm-up: fills the bytecode and file caches, proves the import works
    _spawn({"commands": [], "trace": False}, f"{wl.name}-warmup", deadline, probe=False)

    store_path = WORKSPACE / "csv_hashes.json"
    store = json.loads(store_path.read_text(encoding="utf-8")) if store_path.exists() else {}
    key = _store_key(wl, seed)

    def child(jobs: int, traced: bool, slice_s: float, tag: str) -> Child:
        return run_child(wl, seed, jobs, traced, slice_s, f"{wl.name}-{tag}", deadline)

    children: list[Child] = []
    if trace:
        children = [child(wl.jobs, False, 0.0, "plain"), child(wl.jobs, True, 0.0, "traced")]
    else:
        start = time.monotonic()
        while sum(len(c.passes) for c in children) < MIN_PASSES or time.monotonic() - start < seconds:
            left = seconds - (time.monotonic() - start)
            children.append(child(wl.jobs, False, min(CHILD_SLICE_S, left), str(len(children))))
    checked = list(children)
    if wl.reference_jobs is not None:
        checked.append(child(wl.reference_jobs, False, 0.0, "ref"))

    passes = [p for c in children for p in c.passes]
    reference = store.get(key, passes[0].hashes)
    tally = Tally()
    for i, c in enumerate(checked):
        for j, p in enumerate(c.passes):
            count_ops(p, reference, tally, f"child {i} pass {j}")
    if tally.failed == 0 and key not in store:
        store[key] = reference
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1), encoding="utf-8")
        tmp.replace(store_path)

    notes: list[str] = []
    samples = {
        "raw_wall_s": [p.wall_s for p in passes],
        "raw_cpu_s": [p.cpu_s for p in passes],
        "raw_setup_s": [c.setup_s for c in children],
        "peak_rss_mb": [c.rss_mb for c in children],
    }
    if trace:
        metrics, notes = layer_metrics(wl, children[0], children[1])
    else:
        setups = [(c.setup_s, c.setup_probe) for c in children]
        while len(setups) < MIN_SETUPS:
            res = _spawn({"commands": [], "trace": False}, f"{wl.name}-setup", deadline, probe=True)
            setups.append((res["setup_s"], res["setup_probe"]))
        samples["raw_setup_s"] = [s for s, _ in setups]
        samples["wall_s"] = [normalise(p.wall_s, p.probe) for p in passes]
        samples["cpu_s"] = [normalise(p.cpu_s, p.probe) for p in passes]
        samples["setup_s"] = [normalise(s, probe) for s, probe in setups]
        samples["probe_median_s"] = [p.probe["median_s"] for p in passes]
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["pass_frac"] = 1.0 - tally.failed / tally.attempted
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    env["loadavg_end"] = _loadavg()
    return {
        "env": env,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "notes": notes,
        "samples": samples,
        "csv_hashes": reference,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        record = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2

    results = WORKSPACE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    for line in record["problems"]:
        print(f"FAILED {line}")
    for line in record["notes"]:
        print(line)
    n = len(record["samples"]["raw_wall_s"])
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} passes={n} "
          f"failed_frac={record['failed']}/{record['attempted']}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}")
    for name, values in record["samples"].items():
        if name.startswith(("raw_", "probe_")):
            print(f"  median {name} = {statistics.median(values)}")
    print("perfbench-env " + json.dumps(record["env"]))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
