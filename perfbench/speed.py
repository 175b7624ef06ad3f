"""Machine-speed calibration for timings taken on a shared machine.

On the 2-core VM the benchmark was built on, the speed of identical work
shifts by up to 1.5x for seconds at a time (other tenants on the host).  A
fixed calibration kernel, timed just before and after each measured stretch,
tracks those shifts; scaling a stretch by ``REF_S`` over the kernel's time
states it at one reference speed.  The kernel has two halves of about equal
time, matching the two kinds of work the workloads do: an interpreted loop
with small numpy calls, and an interpreted walk over a long Python list
followed by numpy passes over a large array (like the profile march and CSV
formatting).  Recorded over 9-second windows on that VM, scaling by the two
halves together cut the window-to-window spread of items per second from
11-19% to 1.5-5% on all four workloads.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time at the reference speed (its typical time on that VM).
REF_S = 8.0e-3

_SMALL = np.linspace(1.0, 2.0, 20000)
_LIST = [1.0 + i * 1e-6 for i in range(30000)]
_LARGE = np.linspace(1.0, 2.0, 50000)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40000):
        acc += i * 0.5
    for _ in range(40):
        np.exp(_SMALL) * _SMALL
    out = [0.0] * len(_LIST)
    prev = 0.5
    for i in range(0, len(_LIST), 3):
        h = _LIST[i]
        prev = (h * h - 0.3 * prev * prev - h) * 0.25
        out[i] = prev
    np.array(out)
    np.exp(_LARGE) * _LARGE
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor taking a stretch timed between two kernel runs to the reference speed."""
    return 2.0 * REF_S / (before + after)
