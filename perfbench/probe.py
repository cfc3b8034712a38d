"""In-process speed probe: how fast the host runs this process right now.

The benchmark runs on shared cores whose speed moves by 20 to 70 % within
seconds as neighbours come and go, for Python and numpy code alike, while a
run lasts only tens of seconds.  So the timings it reports are normalised:
a timer signal every INTERVAL_S runs a fixed pure-Python kernel inside the
measured process and times it, and `normalise` scales a measured time by
REF_KERNEL_S over the kernel's median time during that measurement, after
taking out the time the kernel itself ran.  The result reads as seconds on a
host where the kernel takes REF_KERNEL_S.

Interval timers are not inherited across fork, so pool workers started by
the program are not probed; the parent's samples stand for them.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.01
# about the kernel's median time on the 2-vCPU Xeon VM the bounds were set on
# (1.3e-4 to 1.6e-4 s from run to run), so that normalised times read close
# to raw ones there; it only sets the scale
REF_KERNEL_S = 1.45e-4
SYNC_SAMPLES = 5  # taken outside the measured interval, so none is ever empty


def kernel() -> int:
    s = 0
    for i in range(1500):
        s += (i * 7) % 13
    return s


class Probe:
    """Samples the kernel's time on a timer signal while active.

    `samples` holds (start, duration) pairs from perf_counter.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []

    def run_kernel(self, *_) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> Probe:
        for _ in range(SYNC_SAMPLES):  # lets the interpreter specialise the kernel
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self.run_kernel)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def sync(self) -> None:
        for _ in range(SYNC_SAMPLES):
            self.run_kernel()

    def summary(self, t0: float, t1: float) -> dict:
        """Median kernel time over every sample so far, and the time spent in
        the kernel inside [t0, t1).  Call sync() first so there are samples."""
        return {
            "median_s": statistics.median(d for _, d in self.samples),
            "spent_s": sum(d for t, d in self.samples if t0 <= t < t1),
        }


def normalise(raw_s: float, probe: dict) -> float:
    """raw_s without the kernel's own time, at the reference kernel speed."""
    return (raw_s - probe["spent_s"]) * REF_KERNEL_S / probe["median_s"]
