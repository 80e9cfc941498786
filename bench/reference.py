"""A fixed computation whose run time tracks the machine's current speed.

The shared host this benchmark was built on (2 vCPUs) changes speed by up
to 2x over minutes, as other tenants load its cores.  Timing this
computation next to every command and dividing by it removes most of that
drift.  Over six minutes of back-to-back train-scurve commands the two
times correlated at 0.85, and the spread of 45-second medians fell from
0.27 to 0.10.  Over five minutes of eval-grid commands they correlated at
0.73, and the spread of single commands fell from 0.19 to 0.10.

The computation mixes what the pipeline spends its time on: small BLAS
matrix-vector products, elementwise numpy work on small arrays, the
cumulative scans of the DTW recurrence and interpreter overhead.  It uses
nothing from cvfield, so a change to the package cannot change it.
"""

import statistics
import time

import numpy as np

#: reference time of the speed that normalized command times are quoted at
NOMINAL_S = 0.1
ITERATIONS = 500
# A pass is timed in CHUNKS pieces and the median piece counts, so that one
# preemption of this process does not stand for the machine's speed.
CHUNKS = 5


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.P = rng.normal(size=(200, 400))
        self.theta = rng.normal(size=200)
        self.M = rng.normal(size=(100, 2, 2))
        self.row = rng.random(1000)

    def time_s(self):
        """Wall time of one pass of the fixed computation (CHUNKS x median piece)."""
        acc = 0.0
        pieces = []
        for _ in range(CHUNKS):
            t0 = time.perf_counter()
            for _ in range(ITERATIONS):
                c = self.theta @ self.P
                m = np.maximum(self.M + c.reshape(100, 2, 2), 0.0)
                acc += float(np.linalg.norm(self.P @ m.ravel()))
                acc += float(np.minimum.accumulate(self.row - np.cumsum(self.row))[-1])
            pieces.append(time.perf_counter() - t0)
        if not np.isfinite(acc):
            raise ArithmeticError("reference computation produced a non-finite value")
        return CHUNKS * statistics.median(pieces)
