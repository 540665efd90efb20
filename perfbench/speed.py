"""Machine-speed references for the stableci benchmark.

On a shared machine the speed of a core drifts by up to 1.8x over seconds
to minutes (neighbours on the same physical cores), and no run length
averages that out. So every timed call is also reported at a reference
speed: its wall time x (reference time of fixed work) / (time that work
took around the call). The fixed work never calls the package, so a change
to the package moves scaled and raw times alike. Two ways to time it:

- `reference()` runs right before and right after each call: ~25 ms of the
  package's kinds of work (a small SVD, numpy arithmetic, Python loops, CSV
  parsing), or a part of it for calls of a few milliseconds, which a short
  run next to them tracks best. It suits calls of a second or less, whose
  speed the bracketing runs catch.
- `SpeedMeter` times a ~0.2 ms probe (a Python integer loop) on a timer
  signal every 50 ms while calls run. It suits calls of several seconds,
  during which the speed can change. The probe touches little memory, so
  the call's own use of memory and caches barely reaches it.
"""

from __future__ import annotations

import csv
import io
import os
import signal
import time

import numpy as np

# Both on an Intel Xeon (2.1 GHz, 2 shared vCPUs, Python 3.11, numpy 2.4) in
# its fast phase; they only fix the scale of the reported times.
REF_S = 0.022
REF_REPS = 100
REF_PROBE_S = 2.0e-4

INTERVAL_S = 0.05
PAD_S = 0.25  # probes this far beyond a call still count for it

_svd = np.linalg.svd  # bound now, so tracing's wrapper never sees these calls
_A = np.random.default_rng(0).standard_normal((100, 20))
_CSV = "\n".join(",".join(repr(v) for v in row) for row in _A[:8].tolist())


def reference(all_cpus: bool = False, reps: int = REF_REPS) -> float:
    """Seconds taken by REF_REPS repetitions of the fixed bracketing work,
    estimated from reps of them. With all_cpus they are split evenly over
    the usable CPUs, this thread pinned to each in turn, for calls whose
    pool workers run on all of them; otherwise they run where this process
    runs, which a single process seldom leaves."""
    cpus = sorted(os.sched_getaffinity(0))
    steps = [[cpu] for cpu in cpus] if all_cpus else [cpus]
    start = time.perf_counter()
    try:
        for k, where in enumerate(steps):
            os.sched_setaffinity(0, where)
            for _ in range(reps * (k + 1) // len(steps) - reps * k // len(steps)):
                _svd(_A, full_matrices=False)
                _A.T @ _A[:, 0]
                acc = 0
                for i in range(300):
                    acc += i * i % 7
                sorted([(i * 7919) % 1009 for i in range(200)])
                {i: str(i) for i in range(100)}
                [[float(c) for c in row] for row in csv.reader(io.StringIO(_CSV))]
    finally:
        os.sched_setaffinity(0, cpus)
    return (time.perf_counter() - start) * REF_REPS / reps


def _probe() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedMeter:
    """Probe samples of this process, taken on SIGALRM between start() and
    stop(). Timers are not inherited across fork, so pool workers never
    probe."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, probe seconds)
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append((time.perf_counter(), _probe()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mean_probe(self, start: float, end: float) -> float:
        """Mean probe time over [start - PAD_S, end + PAD_S]."""
        inside = [p for t, p in self.samples if start - PAD_S <= t <= end + PAD_S]
        return sum(inside) / len(inside) if inside else REF_PROBE_S


def bracketed(seconds: float, before: float, after: float) -> float:
    """Wall time at reference speed, from the reference() runs around it."""
    return seconds * REF_S * 2.0 / (before + after)


def probed(seconds: float, mean_probe: float) -> float:
    """Wall time at reference speed, from the probes during the call."""
    return seconds * REF_PROBE_S / mean_probe
