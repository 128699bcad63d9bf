"""A fixed reference loop that tracks how fast the machine runs right now.

This 2-core machine shares its processors with other tenants: the same
pure-Python loop took from 0.9 ms to 2.2 ms within a few minutes, and
the operations slowed alike.  So the worker times this loop before
each operation, and reports each operation's time scaled by NOMINAL_S
over the median loop time of the WINDOW operations around it: seconds
at the speed the machine had when the loop took NOMINAL_S.  Set-up time
is scaled by the loop times just before and just after it.  The loop is
benchmark code only; nothing in mmk changes its time.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# About the loop's time on this machine (2 cores, Python 3.11.7) at
# its fastest observed speed.
NOMINAL_S = 0.001

# Operations whose loop times give one operation's scale.
WINDOW = 7


def _loop():
    total, counts = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(1, i)
        counts[i % 31] = counts.get(i % 31, 0) + i
    return total


def measure():
    """Seconds one run of the loop takes now, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds, loop_seconds):
    """seconds in nominal seconds, given the loop times measured around it."""
    return seconds * NOMINAL_S / statistics.median(loop_seconds)


def scale_each(latencies, loop_times):
    """Each latency scaled by the loop times of the WINDOW operations around it."""
    half = WINDOW // 2
    return [
        scale(lat, loop_times[max(0, i - half): i + half + 1])
        for i, lat in enumerate(latencies)
    ]
