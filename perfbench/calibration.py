"""A fixed reference kernel, timed next to every pass, that shares no code with the package.

On the 2-vCPU VM where the baseline in README.md was measured, speed
changes by up to ~40% from one minute to the next, and every wall time moves
with it. Dividing a run's times by this kernel's median time, sampled just
before and just after every pass, gives costs in calibration units, in which
that drift largely cancels. A faster package lowers those costs; a faster machine
does not.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

ITERATIONS = 20000


def kernel_s() -> float:
    """Wall seconds of one kernel run: the tracker's mix of Python loops,
    dicts, lists and calls on tiny numpy arrays, with fixed inputs."""
    a = np.eye(4)
    v = np.arange(4.0)
    total = 0.0
    table: dict[int, float] = {}
    start = perf_counter()
    for i in range(ITERATIONS):
        b = a @ a + a
        total += float(np.sqrt(b[0, 0] + v[i % 4]))
        table[i % 97] = total
        row = [i, total, i * 2]
        row.sort()
    return perf_counter() - start

