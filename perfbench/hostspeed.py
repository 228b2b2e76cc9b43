"""Host speed, sampled with a fixed reference kernel between ops.

The benchmark runs on shared hosts. On a 2-core shared virtual machine, the
same pure-Python work took from 1x to 2x its best time, and a slow phase
lasted from a second to minutes. A best-of-N or median time inside one run
cannot remove a slow phase that covers the whole run, so the benchmark
scales every call's time by REF_S / (the reference kernel's time around
that call). It reports
seconds on a host where the kernel takes REF_S. The kernel does not touch
fza and runs with the garbage collector off, so a change to fza moves the
scaled times, and a change of host speed does not.
"""

from __future__ import annotations

import bisect
import gc
from fractions import Fraction
from time import perf_counter

REF_S = 0.004  # nominal kernel time: scaled times are seconds at this speed
EVERY_S = 0.25


def kernel() -> None:
    """Fixed pure-Python work with the mix fza runs: Fraction sums, dict and
    list updates, integer bit operations."""
    total = Fraction(0)
    table: dict[int, int] = {}
    stack: list[int] = []
    mask = 0
    for i in range(1, 700):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        table[i % 101] = table.get(i % 101, 0) + i
        stack.append(i)
        if len(stack) > 16:
            stack.pop(0)
        mask = ((mask << 1) | (i & 1)) & 0xFFFFFFFF
    mask.bit_count()


class HostSpeed:
    """Reference-kernel samples in time order."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        """Best of three kernel runs, with the garbage collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(3):
                start = perf_counter()
                kernel()
                best = min(best, perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.times.append(perf_counter())
        self.refs.append(best)

    def sample_if_due(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, elapsed: float) -> float:
        """`elapsed` seconds measured from `start`, at reference speed: uses
        the samples just before and just after the interval's midpoint."""
        i = bisect.bisect(self.times, start + elapsed / 2)
        near = self.refs[max(0, i - 1) : i + 1]
        return elapsed * REF_S * len(near) / sum(near)
