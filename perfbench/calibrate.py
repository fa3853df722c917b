"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark host is shared. Its CPU runs in fast and slow phases that
differ by up to a factor of two and last from seconds to minutes, so a
plain wall time says as much about the neighbours as about the code.
The kernel below mixes the kinds of work sbcn does: a Python loop over
ints and a dict, integer numpy indexing and counting, and number-to-text
formatting. It never calls sbcn, so no change to the package moves it.
Timed just before and just after an operation, it gives the host's
slowdown during that operation. The operation's wall time divided by that
slowdown is its time at the reference speed.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the reference host (2-core x86-64 VM, Python 3.11,
# numpy 2.4) in a fast phase.  It only sets the scale of the normalised
# times; comparisons between commits do not depend on it.
REFERENCE_S = 0.075

_BITS = np.random.default_rng(12345).integers(0, 2, size=(20000, 16), dtype=np.int8)
_WEIGHTS = 1 << np.arange(16, dtype=np.int64)


def kernel() -> int:
    total = 0
    counts: dict[int, int] = {}
    for i in range(150000):
        total += i * i
        counts[i % 977] = counts.get(i % 977, 0) + 1
    for _ in range(38):
        index = _BITS.astype(np.int64) @ _WEIGHTS
        total += int(np.bincount(index, minlength=1 << 16).max())
        total += len(",".join(map(str, _BITS[:150].ravel().tolist())))
    return total


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Speedometer:
    """Normalises wall times by kernel readings taken on either side of them.

    Call ``normalise`` right after each timed step; it takes the reading
    that closes this step and opens the next one.
    """

    def __init__(self):
        self.readings = [time_kernel()]

    def normalise(self, wall: float) -> float:
        self.readings.append(time_kernel())
        slowdown = (self.readings[-2] + self.readings[-1]) / (2 * REFERENCE_S)
        return wall / slowdown
