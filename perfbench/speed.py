"""Rescale wall time to a fixed machine speed.

The shared host the benchmark runs on changes speed by up to 2x for
seconds to minutes at a time, and CPU time moves with wall time, so neither
holds still between runs of the same code. A fixed probe, independent of
the library, is timed every PROBE_INTERVAL seconds while a pass runs; the
pass's wall time, less the probe's own time, is then scaled by how much
slower than PROBE_REF_S the probe ran. The probe is small-array numpy work,
like the library's own inner loops: of the probes tried (a Python loop,
small-array and large-array numpy), it followed the workloads' slowdowns
most closely.

numpy is imported here, so run.py imports this module only in the process
that times the passes, never in the one that times set-up.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL = 0.1
# the probe's time at the reference speed; a scaled time is the wall time
# the same work takes when the probe runs in PROBE_REF_S
PROBE_REF_S = 4.0e-4
PROBE_REPEAT = 60

_Z = np.exp(1j * np.linspace(0.0, 3.0, 64))


def probe_seconds() -> float:
    """Time one run of the probe."""
    t0 = time.perf_counter()
    for _ in range(PROBE_REPEAT):
        np.exp(_Z * 1.5).sum()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the probe on a SIGALRM timer while the ``with`` block runs.

    The handler runs between bytecodes of the main thread, so the probe
    never overlaps the work it is timed against.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0  # time the probe took inside the block
        self._previous = None

    def __enter__(self):
        self.samples = []
        probe_seconds()  # warm-up, untimed
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe_s = sum(self.samples)
        if not self.samples:  # a block shorter than one interval
            self.samples.append(probe_seconds())
        return False

    def _tick(self, signum, frame):
        self.samples.append(probe_seconds())

    def scaled(self, wall_s: float) -> float:
        """Wall time of the block, less the probe's, at reference speed."""
        factor = statistics.fmean(PROBE_REF_S / p for p in self.samples)
        return (wall_s - self.probe_s) * factor
