"""Host-speed calibration: a fixed kernel timed around every pipeline call.

The shared host this benchmark runs on changes its speed by 10-30% over
minutes, and process CPU time moves with wall time, so the vCPU itself slows
down; no median over one run can hide a drift that long.  The child therefore
times :class:`Kernel` (pure-Python dict work and small dense LAPACK calls; it
adds under 3 MiB to the peak resident memory) a few times before the tasks,
after each task for a tenth of that task's time, and a few times after the
last one.  ``run.py`` reports every time of the repetition in *reference
seconds*::

    reported = measured * (REFERENCE_S / mean kernel time) ** SENSITIVITY[...]

A workload's sensitivity is the share of the host's slowdown that reaches it:
the slope of log(wall time) on log(mean kernel time) over repetitions of that
workload, fitted by ``sensitivity.py``.  Code that is mostly small Python
calls slows down with the host as much as the kernel does; large dense solves
slow down less.  Scaling those by the full kernel ratio would add noise
instead of taking it out.

The kernel is the benchmark's own code and calls no loopcells function, and
the sensitivities are constants, so the scale does not depend on the package:
a change to the package moves the reported times by the same share as the
measured ones.
"""

from __future__ import annotations

import statistics
import time

#: Kernel time that defines a reference second: about its mean inside a
#: repetition on the 2-vCPU Xeon guest of ``baseline.json``, one BLAS thread.
REFERENCE_S = 0.07

#: Share of the host's slowdown that reaches each workload's wall and CPU
#: time, and the set-up time; fitted by ``sensitivity.py`` (see
#: ``baseline.json``; polymer-b's follows the host so weakly that its value
#: pools the fit with a held-out check).  Constants: refitting them changes
#: the benchmark.
SENSITIVITY = {
    "setup": 0.5,
    "spin-b": 0.6,
    "polymer-b": 0.2,
    "boundary-entropy": 0.7,
    "open-chain": 0.9,
}

#: Kernel samples before the first task and after the last one.
BEFORE = 3
AFTER = 2
#: Kernel samples of a set-up probe, which runs no task.
SETUP = 5
#: After each task the kernel runs for at least this share of the task's
#: time, so a long task is followed by as many samples as its length needs.
SHARE = 0.1


class Kernel:
    """The fixed calibration kernel; the first (warm-up) run is not recorded."""

    def __init__(self) -> None:
        import numpy as np
        from scipy.linalg import lu_factor

        rng = np.random.default_rng(0)
        self._eigvals = np.linalg.eigvals
        self._lu_factor = lu_factor
        self._square = rng.standard_normal((250, 250))
        self._block = rng.standard_normal((400, 400))
        self.samples: list[float] = []
        self._run()

    def _run(self) -> float:
        start = time.perf_counter()
        counts: dict[tuple, int] = {}
        for i in range(150000):
            key = (i % 31, i % 29, i & 1)
            counts[key] = counts.get(key, 0) + 1
        self._eigvals(self._square)
        self._lu_factor(self._block)
        self._block @ self._block
        return time.perf_counter() - start

    def sample(self, times: int = 1) -> None:
        self.samples += [self._run() for _ in range(times)]

    def follow(self, busy_s: float) -> None:
        """Sample after a task of ``busy_s``: once, and on until SHARE of it."""
        spent = 0.0
        while True:
            self.samples.append(self._run())
            spent += self.samples[-1]
            if spent >= SHARE * busy_s:
                return

    def mean(self) -> float:
        return statistics.fmean(self.samples)


def factor(host_s: float, sensitivity: float) -> float:
    """What turns a time measured beside kernel mean ``host_s`` into reference seconds."""
    return (REFERENCE_S / host_s) ** sensitivity
