"""Workload passes in a fresh interpreter.

Usage: child.py SPEC.json RESULT.json T_SPAWN PROBE

Imports `airfl.cli` first, so that the time from T_SPAWN (the parent's
`time.perf_counter()` just before it started this interpreter; the clock is
system-wide) to the end of that import is the set-up time.  With PROBE = 1
the speed probe (probe.py) runs from the start, and the set-up and every
pass get its summary, for normalising their times.  Then makes
passes over the spec's commands, each command one call to
`airfl.cli.main(argv + ["--out", <pass>/<command>])`, until `slice_s`
seconds of passes have run (at least one pass), with the layers traced when
the spec asks.  Writes timings, verdict output and exit codes to RESULT.json.
"""

import contextlib
import sys
import time

from probe import Probe


def main() -> None:
    spec_path, result_path, t_spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    probe = Probe() if sys.argv[4] == "1" else None
    with probe or contextlib.nullcontext():
        run(spec_path, result_path, t_spawn, probe)


def run(spec_path: str, result_path: str, t_spawn: float, probe: Probe | None) -> None:
    import airfl.cli

    t_ready = time.perf_counter()
    setup_s = t_ready - t_spawn
    setup_probe = None
    if probe is not None:
        probe.sync()
        setup_probe = probe.summary(t_spawn, t_ready)

    import io
    import json
    import os
    import resource
    import traceback

    from tracer import Tracer

    def cpu_s() -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    passes = []
    start = time.perf_counter()
    with Tracer() if spec["trace"] else contextlib.nullcontext() as tracer:
        while spec["commands"] and (not passes or time.perf_counter() - start < spec["slice_s"]):
            commands = []
            if probe is not None:
                probe.samples.clear()
                probe.sync()
            t_pass = time.perf_counter()
            for i, argv in enumerate(spec["commands"]):
                argv = argv + ["--out", os.path.join(spec["out_dir"], str(len(passes)), str(i))]
                out = io.StringIO()
                code, tb = None, None
                c0 = cpu_s()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out):
                        code = airfl.cli.main(argv)
                except SystemExit as exc:  # argparse rejects a command line
                    code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a traceback is a failed operation, not a crash
                    tb = traceback.format_exc()
                wall = time.perf_counter() - t0
                commands.append(
                    {"argv": argv, "exit": code, "traceback": tb, "stdout": out.getvalue(),
                     "wall_s": wall, "cpu_s": cpu_s() - c0}
                )
            passes.append({
                "commands": commands,
                "probe": probe.summary(t_pass, time.perf_counter()) if probe is not None else None,
            })

    result = {
        "setup_s": setup_s,
        "setup_probe": setup_probe,
        "airfl_file": airfl.__file__,
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": None,
    }
    if tracer is not None:
        if spec.get("spans_path"):
            tracer.save_spans(spec["spans_path"])
        result["trace"] = {
            "stats": tracer.stats,
            "counters": tracer.counter_values(),
            "absent": sorted(tracer.absent),
        }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
