"""Host speed, read from a fixed pure-Python kernel, and times scaled by it.

On a shared virtual machine the host runs the guest slower or faster in
windows of seconds to minutes: a fixed pure-Python loop reads anywhere from
15 ms to 26 ms, with CPU time equal to wall time, so no clock of the guest
tells the slowdown apart from the program's own work.  A window often lasts
a whole run, so no choice among a run's repetitions removes it.

The benchmark therefore reads the host's speed between ops with a kernel
that does not touch holobreak, and scales each op's time by
`REFERENCE_S / kernel time`, taken from the readings just before and just
after the op.  A scaled time is the time the op would take at the speed at
which the kernel takes `REFERENCE_S`.  A change to the program moves the
op's time and not the kernel's, so it shows in full.

The kernel allocates no container objects, so it never triggers a garbage
collection whose cost would depend on the program's heap.
"""
from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right

# the kernel's time on the two-vCPU machine this was sized on, in its fast
# state; a constant, so scaled times compare across runs and commits
REFERENCE_S = 0.0015
INTERVAL_S = 0.2  # a reading at most this often, between ops

_TABLE = [(k * 2654435761) % 4093 + 1 for k in range(256)]
_gcd = math.gcd


def _step(a: int, b: int) -> int:
    return _gcd(a, b) + (a * b) % 65521


def _kernel() -> complex:
    """Calls, integer arithmetic, gcd, list indexing and complex floats: the
    mix the exact layer and the scalar integrands spend their time on."""
    acc = 0
    z = 0.5 + 0.25j
    table = _TABLE
    for i in range(1, 4000):
        acc += _step(table[i & 255] * i + 7, i + 3)
        z = z * 0.999 + 0.001j
    return acc + z


def reading() -> float:
    """Seconds the kernel takes now: the fastest of three, so that one
    interruption does not count."""
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t)
    return best


def factor(*readings: float) -> float:
    """Scale for a time measured between these readings."""
    return REFERENCE_S / math.exp(sum(map(math.log, readings)) / len(readings))


class HostClock:
    """Readings of the kernel over one repetition, stamped with the time
    they were taken, and the time they took, which is left out of the
    repetition's wall time."""

    def __init__(self):
        self.stamps: list[float] = []
        self.values: list[float] = []
        self.spent = 0.0

    def read(self) -> None:
        t = time.perf_counter()
        self.values.append(reading())
        end = time.perf_counter()
        self.stamps.append(end)
        self.spent += end - t

    def maybe_read(self) -> None:
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= INTERVAL_S:
            self.read()

    def factor(self, start: float, end: float) -> float:
        """Scale for a time measured from `start` to `end`: the readings
        just before and just after it."""
        i = max(0, bisect_right(self.stamps, start) - 1)
        j = min(len(self.stamps) - 1, bisect_left(self.stamps, end))
        return factor(self.values[i], self.values[j])

    def median_factor(self) -> float:
        values = sorted(self.values)
        return factor(values[len(values) // 2])
