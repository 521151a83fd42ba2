"""Machine-speed calibration for the benchmark's timings.

On the shared 2-vCPU virtual machine this benchmark was built on, the
same computation ran up to 1.8x slower for tens of seconds at a time,
with process CPU time rising with wall time (the process was not
waiting).  To keep runs comparable, the runner times this fixed kernel
before and after solves, each set-up probe times it once ready, and
every time is scaled by ``REFERENCE_S / calibration time``: the result
is the time the work would take on a machine where the kernel takes
exactly ``REFERENCE_S``.

The kernel does the kinds of work the library spends its time on,
without calling it: Python big-integer shifts and additions, dict
accumulation under tuple keys, int64 convolutions and object-array
arithmetic in numpy.
"""

from __future__ import annotations

import time

import numpy as np

import reference

REFERENCE_S = 0.05

_A = (np.arange(240, dtype=np.int64) * 7919) % 2001 - 1000
_B = (np.arange(240, dtype=np.int64) * 104729) % 2001 - 1000


def calibrate() -> float:
    """Wall time of one pass of the fixed kernel, in seconds."""
    start = time.perf_counter()
    reference.goettsche_series({(0,): 1, (1,): 2, (2,): 1}, (1,), 80)
    acc = {}
    for i in range(60000):
        key = (i % 251, i % 7)
        acc[key] = acc.get(key, 0) + i * i
    for _ in range(250):
        np.convolve(_A, _B)
    for _ in range(10):
        big = np.convolve(_A, _B).astype(object)
        for _ in range(30):
            big = big + (big << 3)
    return time.perf_counter() - start
