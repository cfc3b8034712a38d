"""Tracing of airfl's layers, installed from outside the program.

`Tracer.install` replaces every binding of each named function, in every
loaded `airfl` module that holds it (and in the module that defines it), by
one timing wrapper; `Tracer.uninstall` puts the originals back.  The program
itself is not edited.

Each call records a span (name, start, end, parent) in compact arrays while
its function has fewer than `span_cap` spans; past that only the count and
the times are kept, so a leaf called a million times costs bounded memory.
Self time is computed on the fly: a call's duration minus the durations of
the traced calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

# (label, defining module, attribute).  Labels are "<layer>.<function>".
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("channel.substream", "airfl.channel", "substream"),
    ("channel.draw_channel", "airfl.channel", "draw_channel"),
    ("channel.draw_channel_block", "airfl.channel", "draw_channel_block"),
    ("aircomp.aggregate", "airfl.aircomp", "aggregate"),
    ("aircomp.preprocessing_beta", "airfl.aircomp", "preprocessing_beta"),
    ("fltrain.train", "airfl.fltrain", "train"),
    ("fltrain.round_gradients", "airfl.fltrain", "round_gradients"),
    ("fltrain.evaluate", "airfl.fltrain", "evaluate"),
    ("fltrain.calibrate_g_bound", "airfl.fltrain", "calibrate_g_bound"),
    ("fltrain.build_devices", "airfl.fltrain", "build_devices"),
    ("config.resolve", "airfl.config", "resolve"),
    ("optimizer.optimal_threshold", "airfl.optimizer", "optimal_threshold"),
    ("analysis.joint_cdf_xy", "airfl.analysis", "joint_cdf_xy"),
    ("analysis.joint_pdf_xy", "airfl.analysis", "joint_pdf_xy"),
    ("analysis.divergence_exact", "airfl.analysis", "divergence_exact"),
    ("specfun.erf", "airfl.specfun", "erf"),
    ("specfun.erfc", "airfl.specfun", "erfc"),
    ("specfun.exp_integral_ei", "airfl.specfun", "exp_integral_ei"),
    ("harness.mc_xi_moments", "airfl.harness", "mc_xi_moments"),
    ("harness.mc_joint_distribution_check", "airfl.harness", "mc_joint_distribution_check"),
    ("harness._bin_mass", "airfl.harness", "_bin_mass"),
    ("harness.pdf_normalization", "airfl.harness", "pdf_normalization"),
    ("harness.cdf_pdf_consistency", "airfl.harness", "cdf_pdf_consistency"),
    ("harness.mc_weight_divergence", "airfl.harness", "mc_weight_divergence"),
    ("harness.k_slope_scan", "airfl.harness", "k_slope_scan"),
    ("harness.sweep_threshold", "airfl.harness", "sweep_threshold"),
    ("harness._pmap", "airfl.harness", "_pmap"),
    ("harness.write_csv", "airfl.harness", "write_csv"),
    ("harness.write_manifest", "airfl.harness", "write_manifest"),
    # the harness reaches histogram2d as the numpy module attribute
    ("harness.histogram2d", "numpy", "histogram2d"),
    ("cli.main", "airfl.cli", "main"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _probe_samples(c, args, kwargs, result):
    c["channel.draw_channel_block.samples"] += int(_arg(args, kwargs, 1, "n"))


def _probe_aggregate(c, args, kwargs, result):
    c["aircomp.aggregate.skipped"] += int(result.skipped)
    c["aircomp.aggregate.active"] += len(result.active_set)
    c["aircomp.aggregate.devices"] += len(_arg(args, kwargs, 0, "gradients"))


def _probe_iterations(c, args, kwargs, result):
    c["optimizer.optimal_threshold.iterations"] += int(result.iterations)


def _probe_csv_bytes(c, args, kwargs, result):
    c["harness.write_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


COUNTER_UNITS = {
    "channel.draw_channel_block.samples": "count",
    "aircomp.aggregate.skipped": "count",
    "aircomp.aggregate.active_frac": "ratio",
    "optimizer.optimal_threshold.iterations": "count",
    "harness.write_csv.bytes": "bytes",
}

# Counters read from a traced call's arguments and result.  A probe that no
# longer fits the function's signature marks its counters unavailable.
PROBES = {
    "channel.draw_channel_block": _probe_samples,
    "aircomp.aggregate": _probe_aggregate,
    "optimizer.optimal_threshold": _probe_iterations,
    "harness.write_csv": _probe_csv_bytes,
}


class Tracer:
    def __init__(self, clock=time.perf_counter, span_cap: int = 100_000):
        self.clock = clock
        self.span_cap = span_cap
        self.stats: dict[str, list] = {}  # label -> [calls, total_s, self_s]
        self.counters: defaultdict[str, float] = defaultdict(int)
        self.broken_probes: set[str] = set()
        self.absent: set[str] = set()
        self.labels: list[str] = []
        # spans, index-aligned: label id, start, end, parent span (-1: none)
        self.span_label = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack: list[list] = []  # [child_time, span index] per open call
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, label: str, fn, probe=None):
        """Timing wrapper for fn, recorded under label."""
        stats = self.stats.setdefault(label, [0, 0.0, 0.0])
        label_id = len(self.labels)
        self.labels.append(label)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = -1
            if stats[0] < self.span_cap:
                span = len(self.span_start)
                self.span_label.append(label_id)
                self.span_parent.append(stack[-1][1] if stack else -1)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span >= 0:
                    self.span_start[span] = start
                    self.span_end[span] = end
            if probe is not None and label not in self.broken_probes:
                try:
                    probe(self.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    self.broken_probes.add(label)
            return result

        return wrapper

    def install(self, targets=TARGETS, probes=PROBES) -> None:
        """Wrap every binding of each target in the loaded airfl modules."""
        scope = [m for n, m in list(sys.modules.items()) if n == "airfl" or n.startswith("airfl.")]
        for label, module_name, attr in targets:
            try:
                home = importlib.import_module(module_name)
            except ModuleNotFoundError:
                home = None
            original = getattr(home, attr, None)
            if original is None:
                self.absent.add(label)
                continue
            wrapper = self.wrap(label, original, probes.get(label))
            for module in [home] + [m for m in scope if m is not home]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def counter_values(self) -> dict[str, float | None]:
        """Reported counters; None where the function or its probe is gone."""
        c = self.counters
        out: dict[str, float | None] = {
            "channel.draw_channel_block.samples": c["channel.draw_channel_block.samples"],
            "aircomp.aggregate.skipped": c["aircomp.aggregate.skipped"],
            "aircomp.aggregate.active_frac": (
                c["aircomp.aggregate.active"] / c["aircomp.aggregate.devices"]
                if c["aircomp.aggregate.devices"] else 0.0
            ),
            "optimizer.optimal_threshold.iterations": c["optimizer.optimal_threshold.iterations"],
            "harness.write_csv.bytes": c["harness.write_csv.bytes"],
        }
        for name in out:
            owner = name.rsplit(".", 1)[0]
            if owner in self.absent or owner in self.broken_probes:
                out[name] = None
        return out

    def save_spans(self, path) -> None:
        """Write the kept spans as a NumPy archive."""
        import numpy as np

        np.savez(
            path,
            labels=np.array(self.labels),
            label=np.frombuffer(self.span_label, dtype=np.int_),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
            parent=np.frombuffer(self.span_parent, dtype=np.int_),
        )
