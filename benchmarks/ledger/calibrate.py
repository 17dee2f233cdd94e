"""The calibration kernel: how fast is this machine right now?

The boxes this ledger runs on are shared.  The same deterministic op
takes 0.27 s in one minute and 0.45 s in the next; over ten minutes the
median op time of a 15 s window moves by 20 % of itself (inter-quartile)
and by 50 % end to end, while process CPU time equals wall time and
steal time is nil: the neighbours slow the core and its caches down,
they do not take it away (README, "Spread").  No bound below that could
hold a later change to anything.

What moves is the machine, not the program.  So every run also times a
small fixed kernel right before and right after every op, and every
end-to-end *time* is reported in **calibrated seconds**: the op's wall
seconds divided by how much slower than :data:`REFERENCE_S` the kernel
ran around that op.  On the same ops the calibrated median of a window
repeats within 4-6 % where the wall median repeats within 20 %.

The kernel has two halves, because the machine slows down in two ways
and the program's layers feel them differently: object churn the way
the planner does it (tuples, dicts, sets, float adds: core speed), and
a walk over a table larger than the private caches (shared-cache and
memory contention).  Either half alone tracks the ops worse than both.

A load whose ops are child processes is calibrated by a child process
(:class:`ChildCalibration`: an interpreter importing a fixed list of
standard-library modules): starting and importing slow down by less
than in-process work does when the machine is busy, and over seven
minutes of ``cli_oneshot`` the median of a 60 s window moved by 13 %
end to end on the wall, 9 % under the in-process kernel and 4 % under
the child.

The kernel is harness code: nothing a change to ``repro`` does can make
it faster or slower.  It runs with the cyclic collector off, so that the
size of the program's heap does not leak into it.  The raw kernel time
of a run is reported as ``ledger.calibration_s`` and every run prints
its slowdown and its wall numbers, so nothing is hidden by the division.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
from statistics import mean, median
from time import perf_counter


def _table() -> tuple[dict, list]:
    """48 000 entries (8 MB, beyond the private caches) and the fixed
    shuffled quarter of its keys the kernel looks up."""
    table = {(i, j, k): float(i + j + k)
             for i in range(40) for j in range(40) for k in range(30)}
    keys = list(table)
    random.Random(1).shuffle(keys)
    return table, keys[:12000]


class Calibration:
    """Kernel timings taken beside the work they calibrate."""

    #: kernel seconds on a quiet machine the day the ledger was defined;
    #: only a scale constant (calibrated seconds read like quiet seconds)
    reference_s: float
    #: kernel runs per :meth:`slowdown`
    runs: int

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _kernel(self) -> None:
        raise NotImplementedError

    def slowdown(self) -> float:
        """Run the kernel now; -> how many times slower than the
        reference the machine is running (> 1: slower)."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(self.runs):
                t0 = perf_counter()
                self._kernel()
                times.append(perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        self.samples += times
        return mean(times) / self.reference_s

    @property
    def kernel_s(self) -> float:
        return median(self.samples)


class InProcessCalibration(Calibration):
    """Object churn plus a table walk, in this interpreter."""

    reference_s = 0.0060
    runs = 2

    def __init__(self) -> None:
        super().__init__()
        self._table, self._keys = _table()

    def _kernel(self) -> None:
        groups: dict = {}
        for i in range(30):
            for j in range(30):
                for k in range(12):
                    groups.setdefault((i, j), []).append((i, j, k))
        points = frozenset({p for block in groups.values() for p in block})
        acc = 0.0
        for a, b, c in points:
            acc += a * 0.25 + b * b * 0.0625 + c
        table = self._table
        for key in self._keys:
            acc += table[key]


class ChildCalibration(Calibration):
    """For loads whose ops are child processes: the kernel is one too."""

    reference_s = 0.070
    runs = 1

    def _kernel(self) -> None:
        subprocess.run(
            [sys.executable, "-c",
             "import json, argparse, dataclasses, asyncio, fractions, "
             "subprocess, tempfile, hashlib"],
            check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
