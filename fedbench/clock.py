"""Timings scaled to a reference machine speed.

The host this benchmark was written on switches between speed states about
1.5x apart for seconds to minutes at a time, which no run length can average
out. Between timed pieces of work (rounds, set-ups, aggregate calls) the
benchmark times a fixed calibration loop of small matmuls, the same kind of
work fedsim does, and scales each piece by ``REFERENCE_S`` over the mean loop
time on its two sides. A piece timed while the host runs at half speed is
scaled by about one half. Raw times are kept alongside.
"""

from __future__ import annotations

import time

import numpy as np

_A = np.random.default_rng(0).normal(size=(16, 64))
_W = np.random.default_rng(1).normal(size=(64, 32))
LOOP_ITERATIONS = 150

# The loop's median time on the reference host (2-core Intel Xeon VM,
# Python 3.11, numpy 2.4 with OpenBLAS 0.3.31) in its fast state.
REFERENCE_S = 0.00075


def calibration_loop_s() -> float:
    t0 = time.perf_counter()
    for _ in range(LOOP_ITERATIONS):
        float(np.maximum(_A @ _W, 0.0).sum())
    return time.perf_counter() - t0


class Clock:
    """Scale factors for timed pieces of work, from the loop timed on either side.

    Call ``start`` before the first piece of a sequence and ``factor`` right
    after each piece: the piece's factor uses the mean of the loop times just
    before and just after it. With calibration off (the traced run) every
    factor is 1.
    """

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self.factors: list[float] = []
        self._last = 0.0

    def start(self) -> None:
        if self.calibrate:
            self._last = calibration_loop_s()

    def factor(self) -> float:
        if not self.calibrate:
            return 1.0
        now = calibration_loop_s()
        f = REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        self.factors.append(f)
        return f
