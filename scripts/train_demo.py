#!/usr/bin/env python3
"""Side-by-side training demo: ideal aggregation vs the analog channel.

Runs the same seeded federated problem twice, once with error-free
gradient averaging and once over the fading channel with truncated
inversion, and prints the per-round gap.  Library-level usage example;
the CLI `train` subcommand is the manifest-writing equivalent.  Bad input
prints one `error:` line and exits 2, as the CLI does.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from airfl import SeedDraws, SystemConfig, load_config
from airfl.fltrain import train_cells


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--rounds", type=int, default=None)
    args = ap.parse_args(argv)
    try:
        return demo(args)
    except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:  # the errors cli.main refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2


def demo(args) -> int:
    cfg = load_config(args.config) if args.config else SystemConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.rounds is not None:
        cfg = replace(cfg, train=replace(cfg.train, rounds_m=args.rounds))

    # both runs read the same shards, batches and streams: draw them once
    draws = SeedDraws(cfg)
    (ideal,) = train_cells(draws, [draws.cfg.gamma_th], "ideal")
    (noisy,) = train_cells(draws, [draws.cfg.gamma_th], "aircomp")

    print(f"gamma_th={noisy.gamma_th!r}  g_bound={noisy.g_bound!r}")
    print(f"{'round':>5} {'loss_ideal':>12} {'loss_air':>12} {'acc_ideal':>10} {'acc_air':>9} {'div_sq':>12}")
    step = max(1, len(noisy.records) // 20)
    for i, (a, b) in enumerate(zip(ideal.records, noisy.records)):
        if i % step == 0 or i == len(noisy.records) - 1:
            print(f"{i:>5} {a.loss:>12.6f} {b.loss:>12.6f} {a.accuracy:>10.4f} {b.accuracy:>9.4f} {b.divergence_sq:>12.4e}")
    print(f"final accuracy: ideal={ideal.final_accuracy:.4f}  aircomp={noisy.final_accuracy:.4f}")
    print(f"mean divergence^2 over rounds: {noisy.mean_divergence_sq:.6e}")
    print(f"skipped rounds: {noisy.skipped_rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
