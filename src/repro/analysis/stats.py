"""Latency/throughput statistics used by every benchmark."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.params import SEC


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The sorted samples' entry at index ``round(fraction * (n - 1))``
    (half to even); ``fraction`` in [0, 1].  Not nearest-rank: at
    n = 100 the 0.5 point is the 51st value, where nearest-rank gives
    the 50th."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0,1], got {fraction}")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def quantile(samples: Sequence[float], fraction: float) -> float:
    """Linearly-interpolated quantile (numpy's default method).

    The single shared implementation every benchmark summary uses; unlike
    nearest-rank it is exact for small sample counts (``quantile(x, 0.5)``
    of an even-length list is the average of the two middle values).
    """
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0,1], got {fraction}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def median(samples: Sequence[float]) -> float:
    """Interpolated median (see :func:`quantile`)."""
    return quantile(samples, 0.5)


def p99(samples: Sequence[float]) -> float:
    """Interpolated 99th percentile (see :func:`quantile`)."""
    return quantile(samples, 0.99)


def mean(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("no samples")
    return sum(samples) / len(samples)


def rate_gbps(payload_bytes: int, elapsed_ns: int) -> float:
    """Goodput in Gbit/s."""
    if elapsed_ns <= 0:
        raise ValueError(f"elapsed must be positive, got {elapsed_ns}")
    return payload_bytes * 8 / elapsed_ns   # bytes*8 / ns == Gbit/s


class LatencyRecorder:
    """Collects per-op latency samples and summarizes them."""

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: list[int] = []

    def add(self, latency_ns: int) -> None:
        self.samples.append(latency_ns)

    def extend(self, latencies: Iterable[int]) -> None:
        self.samples.extend(latencies)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def median_ns(self) -> float:
        return percentile(self.samples, 0.5)

    @property
    def p99_ns(self) -> float:
        return percentile(self.samples, 0.99)

    @property
    def p999_ns(self) -> float:
        return percentile(self.samples, 0.999)

    @property
    def mean_ns(self) -> float:
        if not self.samples:
            raise ValueError("no samples")
        return sum(self.samples) / len(self.samples)

    @property
    def max_ns(self) -> int:
        return max(self.samples)

    def summary(self) -> dict:
        return {
            "name": self.name,
            "count": len(self.samples),
            "median_us": self.median_ns / 1000,
            "mean_us": self.mean_ns / 1000,
            "p99_us": self.p99_ns / 1000,
            "p999_us": self.p999_ns / 1000,
            "max_us": self.max_ns / 1000,
        }
