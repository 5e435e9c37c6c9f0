"""Reference kernel that tracks the host's momentary speed.

On a shared host the same request can take 25% longer for seconds at a
time, and a process's CPU time stretches with its wall time, so neither
can be used as is.  A fixed pure-Python kernel (Fraction arithmetic, no
polyindex code) is timed before and after every request, outside the
request's timed region.  A request's normalised time is its wall time
scaled by REFERENCE_S over the mean of the two kernel times: the time it
would have taken on a host where the kernel takes REFERENCE_S.  Nothing a
change to polyindex does can move the kernel.
"""
from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.004


def _slice() -> float:
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    return time.perf_counter() - t0


def kernel_seconds() -> float:
    """Four 1 ms slices of the kernel; the mean of the middle two, times
    four, so that one slice hit by an interrupt does not count."""
    slices = sorted(_slice() for _ in range(4))
    return 2 * (slices[1] + slices[2])


def normalise(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * REFERENCE_S / ((kernel_before + kernel_after) / 2)
