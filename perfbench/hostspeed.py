"""Host speed: a fixed reference loop, timed between units of work.

The shared hosts this benchmark runs on change speed over seconds to
minutes, as other tenants come and go: on a 2-vCPU Xeon VM the same long
clip took 1.1 s in one minute and 2.0 s in another, and the set-up probe
moved with it. Wall throughput therefore differs between runs of the same
code by more than any useful regression bound. Timing a fixed loop that
never changes with the program before and after every unit tells how fast
the host ran around that unit; dividing the unit's wall time by that speed
gives its time in reference seconds, which is what the throughput metric
counts. On a host running its reference loop in ``NOMINAL_S``, a reference
second is a wall second.

The loop mixes small numpy operations with Python bookkeeping, the mix the
program's hot paths run, and takes about 10 ms, under 1% of a unit.

numpy must be imported only after BLAS threads are pinned (common.py).
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 2000
NOMINAL_S = 0.009  # the loop's time on a 2-vCPU Xeon VM in its fast phases

_START = np.full((16, 16), 0.5)


def reference_seconds() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    a, table = _START, {}
    for i in range(ITERATIONS):
        a = np.tanh(a @ a * 0.01 + 0.1)
        table[i % 97] = table.get(i % 97, 0.0) + float(a[0, 0])
    return time.perf_counter() - start


def to_reference(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` in reference seconds, given the reference loop's times just
    before and just after the interval."""
    return wall_s * NOMINAL_S / ((before_s + after_s) / 2)
