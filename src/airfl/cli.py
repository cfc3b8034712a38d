"""Command-line harness.

Subcommands mirror the verification workflow: `verify-xi`, `verify-pdf`,
and `verify-divergence` run the Monte-Carlo checks against the closed forms
and exit nonzero when any gate fails; `optimize-threshold` solves for the
truncation threshold; `sweep-threshold` trains across a threshold grid; and
`train` runs a single federated experiment.

Every command accepts `--config` (key=value file; a previously written
manifest is itself a valid config and replays the run bit-identically),
`--seed`, `--out`, and `--jobs` (at least 1; a command starts at most one
worker pool and joins it before it prints).  The three Monte-Carlo checks
also take `--trials`; they and `sweep-threshold` split their work among
`--jobs` workers without changing a byte.  Each command reads
its grid and mode settings from its own section of the config, set by dotted keys
such as `verify_xi.rhos = 0.5,0.8`, `sweep.gammas = 0.05,...` or
`run.mode = ideal`; every section is checked at load, and a manifest
carries the running command's section in canonical form.

Each gate prints one verdict line, `PASS name: <numbers> z=... limit=...
margin=...` (deterministic gates print no z; z and the margin switch to
exponent form from 1e6).  Exit status: 0 when every gate passes, 1 when
one FAILs, 2 on bad input or when the run does not fit in memory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .config import SystemConfig, load_config, objective_coefficients, resolve
from .fltrain import train
from .harness import (
    Gate,
    SweepResult,
    divergence_gates,
    k_scan_line,
    k_slope_scan,
    mc_joint_distribution_check,
    mc_weight_divergence,
    mc_xi_moments_grid,
    pdf_gates,
    report,
    sweep_modes,
    sweep_threshold,
    verdict_lines,
    worker_pool,
    xi_gates,
)
from .optimizer import optimal_threshold, threshold_modes


class Outcome(NamedTuple):
    """What a command computed, before anything is printed or written."""

    tables: dict[str, SweepResult | tuple]  # CSV stem -> table
    gates: list[Gate]
    lines: list[str]  # printed after the verdict lines
    meta: dict[str, object]
    cfg: SystemConfig  # the config that replays the run


@dataclass(frozen=True)
class Command:
    name: str
    help: str
    trials: int | None  # default --trials; None when the command takes none
    compute: Callable[[SystemConfig, int], Outcome]
    section: str | None  # the config section it reads, which its manifest carries


def _verify_xi(cfg: SystemConfig, jobs: int) -> Outcome:
    cells = [(rho, gamma) for rho in cfg.verify_xi.rhos for gamma in cfg.verify_xi.gammas]
    result = mc_xi_moments_grid(cells, cfg.trials, cfg.seed, jobs=jobs)
    return Outcome({"verify_xi": result}, xi_gates(result), [], result.meta, cfg)


def _verify_pdf(cfg: SystemConfig, jobs: int) -> Outcome:
    pdf = cfg.verify_pdf
    result = mc_joint_distribution_check(
        pdf.gamma_range, pdf.t_range, cfg.trials, cfg.seed, bins=pdf.bins, tail_gammas=(pdf.tail_gamma,), jobs=jobs
    )
    return Outcome({"verify_pdf": result}, pdf_gates(result), [], result.meta, cfg)


def _verify_divergence(cfg: SystemConfig, jobs: int) -> Outcome:
    cfg = resolve(cfg)  # the one resolution: the check and the K-scan share its threshold
    result = mc_weight_divergence(cfg, cfg.trials, jobs=jobs)
    tables = {"verify_divergence": result}
    meta = dict(result.meta)
    lines = []
    if cfg.verify_divergence.k_scan:
        scan = k_slope_scan(cfg, jobs=jobs)
        tables["verify_divergence_kscan"] = scan
        meta.update({f"kscan_{k}": v for k, v in scan.meta.items()})
        lines.append(k_scan_line(scan))
    return Outcome(tables, divergence_gates(result), lines, meta, cfg)


def _optimize_threshold(cfg: SystemConfig, jobs: int) -> Outcome:
    cfg = resolve(cfg)
    coef = objective_coefficients(cfg)
    solutions = [optimal_threshold(coef, mode=mode) for mode in threshold_modes(cfg.rho)]
    lines = [f"k1 = {coef.k1!r}", f"k2 = {coef.k2!r}"] + [
        f"{sol.mode}: gamma = {sol.gamma_star!r}  h = {sol.h_value!r}  "
        f"h' = {sol.derivative_residual:.3e}  iterations = {sol.iterations}"
        for sol in solutions
    ]
    table = (
        ("mode", "gamma_th", "h_value", "derivative_residual", "iterations", "k1", "k2"),
        [(s.mode, s.gamma_star, s.h_value, s.derivative_residual, s.iterations, coef.k1, coef.k2)
         for s in solutions],
    )
    meta = {"k1": coef.k1, "k2": coef.k2}
    return Outcome({"optimize_threshold": table}, [], lines, meta, cfg)


def _round_for_print(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _sweep_threshold(cfg: SystemConfig, jobs: int) -> Outcome:
    # the modes that run, pinned for replay
    cfg = replace(cfg, sweep=replace(cfg.sweep, modes=sweep_modes(cfg)))
    result = sweep_threshold(cfg, jobs=jobs)
    lines = [
        ", ".join(f"{c}={_round_for_print(v)}" for c, v in zip(result.columns, row))
        for row in result.rows
    ]
    return Outcome({"sweep_threshold": result}, [], lines, result.meta, cfg)


def _train(cfg: SystemConfig, jobs: int) -> Outcome:
    mode = cfg.run.mode
    trace = train(cfg, mode=mode)
    last = trace.records[-1]
    lines = [f"mode = {mode}"]
    if trace.gamma_th is not None:
        lines += [f"gamma_th = {trace.gamma_th!r}", f"g_bound = {trace.g_bound!r}"]
    meta: dict[str, object] = {
        "final_loss": last.loss,
        "final_accuracy": last.accuracy,
        "mean_divergence_sq": trace.mean_divergence_sq,
        "skipped_rounds": trace.skipped_rounds,
    }
    lines += [f"{key} = {meta[key]!r}" for key in meta]
    table = (
        ("round", "loss", "accuracy", "divergence_sq", "grad_spread_sq", "active_count", "skipped"),
        [(r.round_index, r.loss, r.accuracy, r.divergence_sq, r.grad_spread_sq, r.active_count,
          int(r.skipped)) for r in trace.records],
    )
    pinned = trace.draws.cfg
    if pinned.g_bound == "calibrate" and trace.g_bound is not None:
        pinned = replace(pinned, g_bound=trace.g_bound)
    return Outcome({"train_trace": table}, [], lines, meta, pinned)


COMMANDS = (
    Command("verify-xi", "Monte-Carlo check of the aggregation-coefficient moments",
            10**6, _verify_xi, "verify_xi"),
    Command("verify-pdf", "Monte-Carlo and quadrature check of the joint (x, y) law",
            10**7, _verify_pdf, "verify_pdf"),
    Command("verify-divergence", "frozen-gradient weight-divergence check",
            10**5, _verify_divergence, "verify_divergence"),
    Command("optimize-threshold", "solve for the truncation threshold", None, _optimize_threshold, None),
    Command("sweep-threshold", "train across a threshold grid and optimizer modes", None, _sweep_threshold, "sweep"),
    Command("train", "run one federated training experiment", None, _train, "run"),
)


def _run(cmd: Command, args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = load_config(args.config) if args.config else SystemConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    # a command that draws no trials drops the key, so its manifest holds none
    if cmd.trials is None or cfg.trials is None:
        cfg = replace(cfg, trials=cmd.trials)

    if args.out:
        # a path that cannot be a directory is refused before the run, not after it
        Path(args.out).mkdir(parents=True, exist_ok=True)
    # the command's parallel maps share one pool, joined before anything prints
    with worker_pool():
        out = cmd.compute(cfg, args.jobs)
    lines = verdict_lines(out.gates) + out.lines
    for line in lines:
        print(line)
    if args.out:
        report(out.tables, args.out, cmd.name.replace("-", "_"), out.cfg, cmd.name, cmd.section, out.meta, lines)
    return 0 if all(g.passed for g in out.gates) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="airfl",
        description="over-the-air federated learning: closed forms vs Monte Carlo",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.add_argument("--config", help="key=value config file (a written manifest replays its run)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if cmd.trials is not None:
            p.add_argument("--trials", type=int, help="override the sample/trial count")
        p.add_argument("--out", default=None, help="directory for CSV and manifest output")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
        p.set_defaults(cmd=cmd, trials=None)
    args = parser.parse_args(argv)
    try:
        return _run(args.cmd, args)
    except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a size the config allows can still exceed the host's memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
