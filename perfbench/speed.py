"""Machine-speed calibration, so that timings from a shared box are comparable.

On a small shared machine, other tenants slow every process for stretches of
seconds to minutes.  On the 2-vCPU Xeon this benchmark was written on, the
same ``lossy`` call took ~205 ms in quiet stretches and 330-370 ms in busy
ones.  CPU time tracked wall time, so the slowdown is contention for the
core, its caches and memory bandwidth, not preemption.  Raw wall-clock
figures of 10-30 s runs therefore differed by 15-40% from run to run.

The benchmark times :class:`Calibrator`'s fixed kernel before and after
every call and scales the call's time by ``NOMINAL_S / c``, where ``c`` is
the mean of those two calibrations.  The reported times are therefore times
at the machine's nominal speed.  In 80-second series, the scaling cut the
quartile spread of throughput over windows of 6-16 calls from 16-20% to
5-6% on ``clique-straddle`` and ``sweep-store``, and from 41% to 3% on
``lossy`` during a busy stretch; in quiet stretches, ``lossy`` and
``masked-er`` stayed at 6-10% either way.  The kernel mixes the resources
the workloads lean on: Philox draws, an interpreter loop, and boolean plane
operations with reductions.  It makes no BLAS call: a threaded float32
product timed right after a ``sweep-store`` pass sometimes took 130 ms
instead of 1 ms, which made it useless as a yardstick.  The raw figures and
the speed factor are reported with the per-layer metrics.
"""

from __future__ import annotations

import time

import numpy as np

#: Calibration time that defines nominal speed (the kernel's typical time on
#: a quiet 2-vCPU Xeon at 2.1 GHz).  Only the scale of the figures depends on it.
NOMINAL_S = 0.005


class Calibrator:
    """A fixed, seeded mix of the work the workloads do, timed on demand."""

    def __init__(self) -> None:
        self._generator = np.random.Generator(np.random.Philox(7))
        self._draws = np.empty(100_000)
        rng = np.random.default_rng(1)
        self._planes = rng.random((2, 256, 2048)) < 0.5
        self._scratch = np.empty((256, 2048), dtype=bool)

    def _once(self) -> float:
        started = time.perf_counter()
        self._generator.random(out=self._draws)
        self._generator.random(out=self._draws)
        total = 0
        for value in range(40_000):
            total += value
        for threshold in (0.5, 0.3, 0.2):
            np.count_nonzero(self._draws > threshold)
        first, second = self._planes
        for _ in range(8):
            np.bitwise_and(first, second, out=self._scratch)
            np.bitwise_xor(self._scratch, first, out=self._scratch)
            np.count_nonzero(self._scratch, axis=1)
        return time.perf_counter() - started

    def seconds(self) -> float:
        """The kernel's time: the faster of two runs (an interrupt hits at most one)."""
        return min(self._once(), self._once())

    def factor(self) -> float:
        """``NOMINAL_S`` over one calibration (1.0 at nominal speed, < 1 when slow)."""
        return NOMINAL_S / self.seconds()
