"""Machine-speed calibration for a shared, noisy host.

On a shared 2-CPU Linux VM (Python 3.11) the CPU speed available to one
process changed by up to ±30 % for seconds to minutes at a time, whatever
ran in it; identical work measured a minute apart differed by that much.
So the benchmark times a fixed interpreter task (dict, tuple
and frozenset work, like the library's own inner loops, with the garbage
collector off so the program's heap cannot slow it) every CALIBRATE_EVERY_S
of busy time, and scales each item's time by REFERENCE_S / (median of the
last three calibrations).  Times are then in milliseconds of a machine on
which the task takes REFERENCE_S.  Raw times are kept in the report.
"""

from __future__ import annotations

import gc
import statistics
import time

CALIBRATE_EVERY_S = 0.1
REFERENCE_S = 0.004


def _task() -> int:
    table: dict = {}
    total = 0
    for i in range(4000):
        key = (i & 255, i >> 8)
        table[key] = frozenset((i & 7, i & 3))
        total += len(table.get((i & 127, 0), ()))
    return total


class Speed:
    """Recent calibration samples and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.since = 0.0
        self.sample()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _task()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.since = 0.0

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples[-3:])

    def after_item(self, raw_s: float) -> float:
        """The item's time at reference speed; samples again when due."""
        scaled = raw_s * self.scale()
        self.since += raw_s
        if self.since >= CALIBRATE_EVERY_S:
            self.sample()
        return scaled
