"""The host's current speed, as the time of a fixed loop of exact arithmetic.

On a shared 2-core 2.1 GHz Xeon virtual machine, speed drifts by tens of
percent within a minute, for every process alike.  Timing this loop next to the
calls lets a run express its times on a host of fixed speed: one on which
the loop takes ``NOMINAL_S``.  The loop adds ``Fraction`` values and fills
a small dict, the operations subtrop spends its time on, so it slows down
with the host much as the calls do; it uses nothing from subtrop.
"""

from __future__ import annotations

import time
from fractions import Fraction

ITERATIONS = 400
NOMINAL_S = 0.0025  # about what the loop takes on a 2.1 GHz Xeon
# A call this long spans many swings of host speed, so run.py calibrates it by
# the median of the loops it times while the call runs, not by the one loop
# timed before it.
LONG_CALL_S = 1.0


def calibrate() -> float:
    """Seconds the loop takes right now."""
    start = time.perf_counter()
    total = Fraction(0)
    seen = {}
    for k in range(1, ITERATIONS):
        total += Fraction(k, k + 7)
        seen[(k % 13, k % 7)] = total > 1
    return time.perf_counter() - start
