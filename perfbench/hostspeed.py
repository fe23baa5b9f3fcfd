"""Host speed: fixed reference kernels timed between slices of the work.

A shared VM's speed drifts in phases of seconds to minutes: on the 2-vCPU
Xeon VM this benchmark was built on, a fixed loop ran up to 1.8x slower in
some phases, and process CPU time slowed with it, so the phases are not
steal.  A phase that covers a whole run is beyond any median taken inside
the run.  So two fixed kernels are timed on the main thread between slices
of the measured work: an interpreter kernel (integer loop and object
churn) and a memory kernel (copying and summing 4 MB).  The phases move
the two differently, and the program's training loops move with a mix of
both.

Every gated time is reported at the reference speed: the time measured,
times the kernels' reference time over their median time in and around
the measured window, the two ratios weighted geometrically by
``MEMORY_SHARE``.  The kernels are the benchmark's own code, so a change
to the program does not move them.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import statistics
import time

import numpy as np

# The kernels' median times on the reference host.
REFERENCE_INTERP_S = 0.6e-3
REFERENCE_MEMORY_S = 1.0e-3
# Fitted on ten-seed sets of all three workloads: skills' pass rates moved
# with the interpreter ratio to the power 0.65 and the memory ratio to
# 0.29; the run medians spread least at 0.25 on skills (0.05), 0 to 0.25
# on team (0.06-0.07), and async's spread was flat in it (0.11).
MEMORY_SHARE = 0.25
PERIOD_S = 0.05  # sampling period while ``ticking``
WINDOW_S = 1.0  # slices a long window is scaled in

_BLOCK = np.random.default_rng(0).standard_normal(1 << 19)  # 4 MB


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def interp_kernel() -> int:
    """Fixed interpreter work: an integer loop and object churn."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    objects = [_Pair({"x": i, "y": [i, i + 1]}, (i,)) for i in range(350)]
    return total + len(objects)


def memory_kernel() -> float:
    """Fixed memory traffic: copy and sum 4 MB."""
    return float(_BLOCK.copy().sum())


class Speedometer:
    """Kernel timings over the whole benchmark: ``(start, end, interp_s,
    memory_s)`` per sample."""

    def __init__(self):
        self.samples: list[tuple[float, float, float, float]] = []

    def sample(self, repeats: int = 3) -> None:
        """Time both kernels ``repeats`` times now, with the collector off
        so that none of the program's garbage is collected on its clock."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                interp_kernel()
                mid = time.perf_counter()
                memory_kernel()
                end = time.perf_counter()
                self.samples.append((start, end, mid - start, end - mid))
        finally:
            if enabled:
                gc.enable()

    @contextlib.contextmanager
    def ticking(self):
        """Sample once every ``PERIOD_S`` on the main thread while the block
        runs (a ``SIGALRM`` handler runs between the program's bytecodes)."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample(1))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(
        self, start: float, end: float, memory_share: float = MEMORY_SHARE
    ) -> float:
        """Reference over measured kernel time inside [start, end], or next
        to it when no sample fell inside (at most 3 each side); the two
        kernels' ratios are weighted geometrically by ``memory_share``."""
        inside = [s for s in self.samples if s[0] >= start and s[1] <= end]
        near = inside or (
            [s for s in self.samples if s[1] < start][-3:]
            + [s for s in self.samples if s[0] > end][:3]
        )
        if not near:
            raise RuntimeError("no host-speed sample next to the window")
        interp = REFERENCE_INTERP_S / statistics.median(s[2] for s in near)
        memory = REFERENCE_MEMORY_S / statistics.median(s[3] for s in near)
        return math.exp(
            (1.0 - memory_share) * math.log(interp) + memory_share * math.log(memory)
        )

    def at_reference(self, start: float, end: float) -> float:
        """Seconds the work in [start, end] takes at the reference speed:
        each ``WINDOW_S`` slice, less the kernels' own runs inside it,
        scaled by its own factor, so a phase change inside a long window
        is followed."""
        total = 0.0
        lo = start
        while lo < end:
            hi = min(lo + WINDOW_S, end)
            busy = sum(s[1] - s[0] for s in self.samples if s[0] >= lo and s[1] <= hi)
            total += (hi - lo - busy) * self.factor(lo, hi)
            lo = hi
        return total
