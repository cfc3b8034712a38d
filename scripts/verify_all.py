#!/usr/bin/env python3
"""Run every Monte-Carlo verification gate in one go.

Chains the CLI subcommands verify-xi, verify-pdf and verify-divergence
(plus the deterministic optimize-threshold report) into a single output
directory.  Exit status is nonzero as soon as one gate fails, so this is
suitable for CI or an overnight check.

Sample sizes default to each command's acceptance-grade trial count and
can take a while; pass --quick for a desk-scale smoke run.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from airfl.cli import main as cli_main

# (command, output leaf, trial count under --quick; None for a command without trials)
STAGES = (
    ("verify-xi", "xi", 100_000),
    ("verify-pdf", "pdf", 1_000_000),
    ("verify-divergence", "divergence", 2_000),
    ("optimize-threshold", "threshold", None),
)


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=None, help="config file passed to every stage")
    ap.add_argument("--out", default="runs/verify", help="output directory root")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--quick", action="store_true", help="reduced sample sizes, minutes not hours")
    args = ap.parse_args(argv)

    failures = []
    for command, leaf, quick_trials in STAGES:
        cmd = [command, "--out", str(Path(args.out) / leaf), "--jobs", str(args.jobs)]
        if args.quick and quick_trials is not None:
            cmd += ["--trials", str(quick_trials)]
        if args.config is not None:
            cmd += ["--config", args.config]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        print(f"== {command} ==", flush=True)
        rc = cli_main(cmd)
        if rc != 0:
            failures.append(command)
        print(flush=True)

    if failures:
        print("FAILED stages:", ", ".join(failures))
        return 1
    print("all verification stages passed")
    return 0


if __name__ == "__main__":
    sys.exit(run())
