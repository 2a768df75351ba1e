"""YCSB workload generation (paper section 7.2, Figure 17).

The paper's setup: 100 K key-value entries, 100 K operations per test,
1 KB values, keys drawn Zipf(theta = 0.99), three get/set mixes —
C (100% get), B (5% set), A (50% set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.params import Bounded, fraction
from repro.sim.rng import RandomStream, ZipfTable
from repro.workloads.zipf import zipfian_keys


@dataclass(frozen=True)
class YCSBConfig(Bounded):
    """One YCSB workload mix."""

    name: str
    set_fraction: float = fraction()


#: The paper's three mixes.
YCSB_WORKLOADS = {
    "A": YCSBConfig(name="A", set_fraction=0.50),
    "B": YCSBConfig(name="B", set_fraction=0.05),
    "C": YCSBConfig(name="C", set_fraction=0.00),
}


class YCSBWorkload:
    """Deterministic operation stream for one client thread."""

    def __init__(self, config: YCSBConfig, rng: RandomStream,
                 num_keys: int = 100_000, value_size: int = 1024,
                 theta: float = 0.99,
                 zipf_table: ZipfTable | None = None):
        if num_keys <= 0:
            raise ValueError(f"num_keys must be positive, got {num_keys}")
        if value_size <= 0:
            raise ValueError(f"value_size must be positive, got {value_size}")
        self.config = config
        self.rng = rng
        self.num_keys = num_keys
        self.value_size = value_size
        # The Zipf CDF is O(num_keys) to build; share it across threads.
        self.zipf = zipf_table or ZipfTable(num_keys, theta)

    def key(self, index: int) -> bytes:
        return b"user%012d" % index

    def value(self, index: int, version: int = 0) -> bytes:
        stamp = b"v%d-k%d|" % (version, index)
        return (stamp * (self.value_size // len(stamp) + 1))[:self.value_size]

    def load_phase(self) -> Iterator[tuple[bytes, bytes]]:
        """(key, value) pairs to pre-populate the store."""
        for index in range(self.num_keys):
            yield self.key(index), self.value(index)

    def operations(self, count: int) -> Iterator[tuple]:
        """Yield ('get', key) / ('set', key, value) per the configured mix."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        keys = zipfian_keys(self.rng, self.num_keys, self.zipf.theta,
                            table=self.zipf)
        for serial in range(count):
            index = next(keys)
            if self.rng.chance(self.config.set_fraction):
                yield ("set", self.key(index), self.value(index, serial))
            else:
                yield ("get", self.key(index))
