"""Host-speed calibration: measured times expressed on a reference host.

On the machine this benchmark was built on, the speed of a core changes by
up to 2x over seconds to minutes while CPU time keeps tracking wall time
(other tenants share the hardware), so no clock inside the process can
tell the program's cost from the host's state.  A fixed kernel that shares
no code with the library is therefore timed next to the workload; its time
tracks the host's speed.  A measured interval is scaled by
``REF_S / (kernel time measured around it)``: the time it would take on a
reference host that runs the kernel in ``REF_S``.  A slower program still
reads slower by the same factor, because the kernel does not change with it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_S = 1.6e-3          # the reference host runs kernel() in this time
EVERY_S = 0.5           # calibrate at most this often between operations


def kernel() -> None:
    """Small-array numpy calls from a Python loop, the same mix of
    interpreter and BLAS work as an autodiff step at desk scale."""
    a = np.ones((24, 32))
    w = np.full((32, 32), 0.01)
    for _ in range(100):
        x = np.tanh(a @ w + 1.0)
        a = x - x.mean(axis=-1, keepdims=True)


def kernel_seconds(reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Host:
    """Calibration samples taken through a run, and the scale factors
    derived from them."""

    def __init__(self):
        self.times: list[float] = []    # perf_counter when each one ended
        self.values: list[float] = []   # kernel seconds
        self.spent = 0.0                # seconds spent calibrating

    def calibrate(self) -> float:
        """Takes a sample; returns the time it ended."""
        start = time.perf_counter()
        value = kernel_seconds()
        end = time.perf_counter()
        self.spent += end - start
        self.times.append(end)
        self.values.append(value)
        return end

    def due(self) -> bool:
        return not self.times or \
            time.perf_counter() - self.times[-1] >= EVERY_S

    def factor_at(self, t: float) -> float:
        """REF_S over the mean of the samples within EVERY_S of time ``t``
        (the nearest sample when there is none)."""
        return self.factor_over(t - EVERY_S, t + EVERY_S)

    def factor_over(self, t0: float, t1: float) -> float:
        """REF_S over the mean of the samples taken in [t0, t1], or over
        the sample nearest to the interval when none was."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if lo == hi:
            mid = (t0 + t1) / 2
            lo = min((j for j in (lo - 1, lo) if 0 <= j < len(self.times)),
                     key=lambda j: abs(self.times[j] - mid))
            hi = lo + 1
        return REF_S / statistics.fmean(self.values[lo:hi])
