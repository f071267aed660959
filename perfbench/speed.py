"""How fast this process's CPU runs while the benchmark measures, so that
latencies can be corrected for load from outside the benchmark.

The host this benchmark was built on shares its cores with other
machines: for stretches of seconds to minutes the same call runs up to
twice as slow.  A `SpeedProbe` pins the process to one CPU and runs a
fixed kernel (Python arithmetic and small numpy products, like the
solver's inner loop) on a daemon thread every INTERVAL_S.  An operation
that ran from t0 to t1 ran at `speed(t0, t1)` of the nominal speed: the
kernel's NOMINAL_KERNEL_S over its mean time in that window.
`corrected(seconds, t0, t1)` scales a latency to the nominal speed, so a
corrected latency is the op's cost in kernel runs times NOMINAL_KERNEL_S.
The nominal speed is a fixed constant, about the uncontended speed of a
2.1 GHz Xeon: the fastest kernel time of a run is no reference, since it
moved by a quarter between runs there.
"""
from __future__ import annotations

import bisect
import math
import os
import statistics
import threading
import time

import numpy as np

INTERVAL_S = 0.01  # pause between two kernel runs
NOMINAL_KERNEL_S = 150e-6  # mean kernel time at the nominal speed
MIN_WINDOW_S = 0.5  # a shorter op is judged by the probes around it


def kernel() -> float:
    s = 0.0
    v = np.array([0.3, 0.2, 0.1])
    m = np.eye(3)
    for i in range(60):
        s += math.sin(i * 0.1) * 0.5
        s += float((m @ v)[0])
    return s


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def __enter__(self):
        # threads and child processes inherit the CPU set of the thread that starts them
        self._cpus = os.sched_getaffinity(0)
        self.cpu = min(self._cpus)
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)
        return False

    def _sample(self) -> None:
        clock = time.perf_counter
        while not self._stop.is_set():
            t0 = clock()
            kernel()
            self.seconds.append(clock() - t0)
            self.starts.append(t0)
            self._stop.wait(INTERVAL_S)

    def speed(self, t0: float, t1: float) -> float:
        """NOMINAL_KERNEL_S over the mean kernel time in [t0, t1], widened
        to MIN_WINDOW_S around its middle."""
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2.0)
        lo = bisect.bisect_left(self.starts, t0 - pad)
        hi = bisect.bisect_right(self.starts, t1 + pad)
        if hi <= lo:
            raise RuntimeError(f"no speed probe ran between {t0 - pad:.3f} and {t1 + pad:.3f}")
        return NOMINAL_KERNEL_S / statistics.fmean(self.seconds[lo:hi])

    def corrected(self, seconds: float, t0: float, t1: float) -> float:
        return seconds * self.speed(t0, t1)

    def summary(self) -> dict:
        xs = sorted(self.seconds)
        return {
            "cpu": self.cpu,
            "probes": len(xs),
            "fastest_us": 1e6 * xs[0],
            "median_us": 1e6 * xs[len(xs) // 2],
            "mean_us": 1e6 * statistics.fmean(xs),
        }
