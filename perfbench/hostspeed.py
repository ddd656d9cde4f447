"""The host's speed during a run, from a fixed reference kernel timed
between the benchmark's set-ups and repeats.

The shared 2-vCPU machine the benchmark was written on changes speed in
phases of seconds to minutes, by up to ~1.7x, for every workload at once
and without stolen time (process CPU time equals wall time). Ten runs made
over 20 minutes therefore spread by the phase they fell in, whatever the
length of a run. The benchmark divides a run's times by the host's speed
over the same run: the median time of the reference kernel during the run
as a multiple of ``REFERENCE_S``, its median time on that machine in a fast
phase. Times are then in seconds of that reference host. The kernel is the
benchmark's own code, so a change to readmit does not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.025
SHARE = 0.1    # kernel time spent per second of measured work


class HostSpeed:
    """Samples of the reference kernel's wall time over one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # The mix of the program's work: grouping and sorting strings in
        # Python, small numpy operations in a Python loop, one larger product.
        self._keys = [f"{int(k):05d}|{i:06d}"
                      for i, k in enumerate(rng.integers(0, 5000, 30000))]
        self._matrix = rng.random((200, 200))
        self._square = rng.random((300, 300))
        self.samples: list[float] = []

    def _kernel(self) -> float:
        groups: dict[str, list[str]] = {}
        for key in self._keys:
            head, _, tail = key.partition("|")
            groups.setdefault(head, []).append(tail)
        ordered = sorted(self._keys, key=lambda k: k[::-1])
        v = np.ones(len(self._matrix))
        for _ in range(100):
            v = self._matrix @ v
            v /= v.sum()
        product = self._square @ self._square
        return len(groups) + len(ordered) + float(v[0]) + float(product[0, 0])

    def sample(self, after_s: float = 0.0):
        """Time the kernel for ``SHARE`` of ``after_s``, at least once."""
        spent = 0.0
        while not spent or spent < SHARE * after_s:
            started = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - started
            self.samples.append(elapsed)
            spent += elapsed

    def factor(self) -> float:
        """How many times slower than the reference host this run was."""
        return statistics.median(self.samples) / REFERENCE_S
