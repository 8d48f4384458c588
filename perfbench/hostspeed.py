"""Host-speed calibration.

On a shared VM the vCPUs share physical cores with other tenants, so the same
job runs up to 1.6x slower for seconds to minutes at a time, and a run's
median can move by 25% between runs. A fixed kernel probed right before and
right after each job measures the host speed at that moment. A job's time
divided by the mean of those two probes, times REFERENCE_S, is the job's time
at the reference speed. A probe is the median of PROBE_SAMPLES kernel runs,
because a single 20 ms run now and then reads twice its usual time while the
jobs around it do not slow down.
The kernel is the benchmark's own numpy code, so a change to streamcut moves
the normalised time exactly as it moves the wall time.
"""
import statistics
import time

import numpy as np

REFERENCE_S = 0.020  # kernel seconds at the reference host speed
PROBE_SAMPLES = 5

_KEYS = np.random.Generator(np.random.PCG64(0)).integers(0, 1 << 40, 300_000)
_SMALL = np.arange(64) % 8


def kernel_s() -> float:
    """
    Seconds for a fixed mix of the work streamcut does: two int64 sorts (graph
    build) and an interpreter loop with small-array numpy calls (assignment).
    """
    t = time.perf_counter()
    np.sort(_KEYS)
    np.sort(_KEYS)
    acc: dict[int, int] = {}
    for i in range(60_000):
        acc[i & 1023] = acc.get(i & 1023, 0) + i
    for i in range(1500):
        np.bincount(_SMALL[i % 50:i % 50 + 10], minlength=8)
    return time.perf_counter() - t


def probe_s() -> float:
    """Median kernel seconds over PROBE_SAMPLES runs."""
    return statistics.median(kernel_s() for _ in range(PROBE_SAMPLES))


def normalise(seconds: float, probe_before: float, probe_after: float) -> float:
    """seconds measured between two probes, at the reference speed."""
    return seconds * REFERENCE_S / ((probe_before + probe_after) / 2.0)
