"""Scaling measured times to a reference machine speed.

On a shared host the same job's wall time drifts by up to 2x within a
minute, and its CPU time drifts with it: the cause is contention for the
core, which no per-process clock removes.  So a fixed kernel, written here
and independent of the package, runs before and after every measured
interval, and the interval is scaled by the kernel's reference time over
the mean of those two kernel times.  Every time is thus reported at the
speed of the host on which the reference times were taken.

A kernel tracks a job only if it stresses the host the way the job does, so
each workload has its own: a trial-shaped loop of RNG set-up, steering
vectors and inner products at the workload's K and N, plus, for symbol
mode, a BLAS matrix product and a table-lookup quantizer.
"""

import statistics
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Kernel:
    """A fixed trial-shaped loop of `iterations` steps.

    `reference_s` is its typical time on the 2-core x86-64 host where the
    benchmark was defined (Python 3.11, NumPy 2.4).
    """

    users: tuple
    antennas: int
    iterations: int
    reference_s: float
    symbols: int = 0

    def run(self):
        """Time the loop in three equal parts; return three times the median part.

        The median keeps one burst of contention from setting the scale.
        """
        return 3.0 * statistics.median(self._part(self.iterations // 3) for _ in range(3))

    def _part(self, iterations):
        start = time.perf_counter()
        thresholds = np.linspace(-2.0, 2.0, 7)
        levels = np.linspace(-2.3, 2.3, 8)
        n = np.arange(self.antennas)
        acc = 0.0
        for i in range(iterations):
            K = self.users[i % len(self.users)]
            rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(i, 0)))
            theta = rng.uniform(0.0, np.pi, size=(3, 3, K))
            h_B = np.exp(-1j * np.pi * np.cos(theta)[..., None] * n)
            h_U = np.exp(-1j * np.pi * np.cos(theta)[..., None] * np.arange(2))
            gains = np.abs(h_U.sum(axis=-1)) ** 2
            totals = [float(np.sum(gains[j])) for j in range(3)]
            u = np.einsum("lk,lkn->kn", np.sqrt(gains[0]), h_B[0])
            uh = np.einsum("kn,lin->kli", u.conj(), h_B[0])
            acc += float(np.sum(np.einsum("li,kli->k", gains[0], np.abs(uh) ** 2))) + totals[0]
            if self.symbols:
                X = (rng.standard_normal((3 * K, self.symbols))
                     + 1j * rng.standard_normal((3 * K, self.symbols)))
                R = h_B[0].reshape(3 * K, -1).T @ X
                Q = (levels[np.searchsorted(thresholds, R.real)]
                     + 1j * levels[np.searchsorted(thresholds, R.imag)])
                acc += float(np.abs(np.sum(h_B[0, 0].conj() @ Q)))
        if not np.isfinite(acc):
            raise ArithmeticError("calibration kernel produced a non-finite sum")
        return time.perf_counter() - start


class Clock:
    """Kernel times around a sequence of measured intervals."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = [kernel.run()]
        self.scales = []

    def scale(self):
        """Close the interval since the last kernel run; return its time factor."""
        self.samples.append(self.kernel.run())
        mean = 0.5 * (self.samples[-2] + self.samples[-1])
        self.scales.append(self.kernel.reference_s / mean)
        return self.scales[-1]
