"""Host-speed probe: a fixed numpy/scipy loop that never touches aggmogp.

The loop mixes what the program spends its time on (small Cholesky
factorizations and solves, ``erf`` and ``exp`` over a few thousand
elements, a kernel evaluation over 65,536 distances, a 128×128 by
128×1024 product with a megabyte of operands, and building small
Python containers), so a slower or busier host stretches it by about as
much as it stretches the workloads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.special import erf


class HostClock:
    """Times the fixed loop; inputs are built once per clock."""

    LOOPS = 20
    WARM_LOOPS = 2

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(12345))
        x = rng.standard_normal((96, 96))
        self.spd = x @ x.T + 96.0 * np.eye(96)
        self.z = rng.standard_normal(4096)
        self.d2 = rng.random((64, 1024))
        self.gram = rng.random((128, 128))
        self.wide = rng.random((128, 1024))
        # Preallocated so the loop never asks the allocator for a large
        # block, whose cost depends on what the process freed before.
        self.buf = np.empty_like(self.d2)
        self.out = np.empty_like(self.wide)

    def _loop(self, n: int) -> None:
        for _ in range(n):
            # Interpreter-bound part: small containers, as in building
            # supports and records.
            acc = 0
            for i in range(1000):
                item = {"id": f"s{i}", "span": (float(i), i + 0.5)}
                acc += len(item["id"]) + int(item["span"][1])
            c = cholesky(self.spd, lower=True, check_finite=False)
            cho_solve((c, True), self.spd, check_finite=False)
            erf(self.z)
            np.exp(-self.z * self.z)
            np.divide(self.d2, -0.02, out=self.buf)
            np.exp(self.buf, out=self.buf).sum(axis=1)
            np.dot(self.gram, self.wide, out=self.out)
            np.multiply(self.out, self.wide, out=self.out).sum(axis=0)

    def tick(self) -> float:
        """Seconds for the loop, after a short untimed warm-up.

        The warm-up refills caches a previous large step may have
        evicted, so the reading reflects the host, not the step before.
        """
        self._loop(self.WARM_LOOPS)
        start = time.perf_counter()
        self._loop(self.LOOPS)
        return time.perf_counter() - start

    def ticks_for(self, seconds: float) -> list:
        """Ticks, at least one, until ``seconds`` have been spent on them."""
        start = time.perf_counter()
        out = [self.tick()]
        while time.perf_counter() - start < seconds:
            out.append(self.tick())
        return out

    def calibrate(self, rounds: int = 5) -> float:
        return statistics.median(self.tick() for _ in range(rounds))
