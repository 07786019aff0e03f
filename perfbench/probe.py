"""A fixed calibration probe that measures how fast the machine runs right now.

On a shared host the same operation can take 1.8 times longer from one
ten-second stretch to the next. The slowdown hits everything in the process
alike. So the benchmark runs this probe before and after every operation and
set-up, and scales wall times by REFERENCE_PROBE_S / probe time. The scaled
figure is the wall time the operation would have taken when the probe takes
its reference time.

The probe mixes the kinds of work psrnn does: interpreted Python, many small
numpy calls, one BLAS product and a vectorized transcendental. It does not
use psrnn, so no change to the package can move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_PROBE_S = 0.004  # the probe's time on the reference machine when it is not slowed


class SpeedProbe:
    def __init__(self):
        gen = np.random.default_rng(20180706)
        self.square = gen.standard_normal((192, 192))
        self.tiles = gen.standard_normal((64, 4, 4))
        self.h4 = np.ones((4, 4))
        self.vector = gen.standard_normal(50_000)

    def _once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i
        for k in range(300):
            np.abs(self.h4 @ self.tiles[k % 64] @ self.h4).sum()
        (self.square @ self.square).sum()
        np.tanh(self.vector).sum()
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """Probe time: the faster of two back-to-back runs."""
        return min(self._once(), self._once())


def calibrated(wall_s: float, probe_before: float, probe_after: float) -> float:
    """Wall time scaled to the reference probe speed."""
    return wall_s * REFERENCE_PROBE_S / (0.5 * (probe_before + probe_after))
