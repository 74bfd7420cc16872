"""Host-speed probe: every time the benchmark reports is scaled by it.

On a shared virtual machine (measured on 2 vCPUs of a Xeon host) the
speed of the same pure-Python work drifts by up to 1.8x over tens of
seconds, and CPU time drifts with wall time, so neither can be compared
across runs as it stands.  The benchmark therefore times this fixed kernel
next to the work it measures and reports

    t_reported = t_measured * NOMINAL_S / kernel_time,

the time the work would take on a host where the kernel takes NOMINAL_S.
The kernel is exact Fraction arithmetic, which is where chevkit spends its
time, and it runs in the benchmark, so a change to chevkit cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.008
STEPS = 1000


def kernel_s():
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, STEPS):
        x = x * Fraction(i, i + 1) + Fraction(1, 7)
    return time.perf_counter() - start
