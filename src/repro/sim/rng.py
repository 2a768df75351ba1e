"""Seeded random streams for reproducible simulation.

Every stochastic component (link jitter, loss injection, workload key
choice) takes a :class:`RandomStream` derived from a root seed plus a
component name, so adding a new random consumer never perturbs the draws
seen by existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence


class RandomStream:
    """A named, independently-seeded PRNG stream."""

    def __init__(self, seed: int, name: str = "root"):
        self.seed = seed
        self.name = name
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))

    def fork(self, name: str) -> "RandomStream":
        """Create an independent child stream; same inputs -> same stream."""
        return RandomStream(self.seed, f"{self.name}/{name}")

    def uniform_int(self, low: int, high: int) -> int:
        """Inclusive uniform integer in [low, high]."""
        return self._rng.randint(low, high)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return self._rng.uniform(low, high)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def choice(self, seq: Sequence):
        return self._rng.choice(seq)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def sample(self, population: Sequence, k: int) -> list:
        return self._rng.sample(population, k)


class ZipfTable:
    """Precomputed CDF for Zipf-distributed draws (YCSB-style, theta=0.99)."""

    def __init__(self, n: int, theta: float):
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if theta < 0:
            raise ValueError(f"theta must be non-negative, got {theta}")
        self.n = n
        self.theta = theta
        weights = [1.0 / ((i + 1) ** theta) for i in range(n)]
        total = sum(weights)
        cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0
        self._cdf = cdf

    def draw(self, u: float) -> int:
        """Map a uniform draw u in [0,1) to a 0-based item index."""
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo
