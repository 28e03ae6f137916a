"""Wall time in reference seconds.

The host's speed drifts by 10-40% over tens of seconds (its cores are
shared), which is wider than the bounds the benchmark keeps.  So each timed
interval is bracketed by a fixed calibration loop that does not touch the
program, and scaled:

    reference seconds = wall seconds * REFERENCE_S / loop seconds

where loop seconds is the mean of the loop's time just before and just after
the interval.  A result reads as if the machine ran at the speed at which the
loop takes REFERENCE_S.  Raw wall times are reported beside the metrics.

The loop is exact rational arithmetic on growing integers, which allocates
as the program does.  It slows down with the host about as much as the
workloads do: the log of a mix cycle's time against the log of the loop's
time has a slope of 0.9-1.0 on the in-process workloads.  A tight loop over
small integers had a slope of 1.4-1.8, so it corrected only part of the
drift.
"""

from __future__ import annotations

import time
from fractions import Fraction

LOOP_N = 500
REFERENCE_S = 0.0024  # the loop's median time on the baseline machine


def loop_s() -> float:
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter()
    a = Fraction(1, 3)
    for i in range(LOOP_N):
        a = a * Fraction(i + 1, i + 2) + Fraction(1, i + 7)
    return time.perf_counter() - t0


def reference_s(wall: float, loop_before: float, loop_after: float) -> float:
    return wall * REFERENCE_S * 2 / (loop_before + loop_after)
