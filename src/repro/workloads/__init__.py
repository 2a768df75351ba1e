"""Workload generators: YCSB (A/B/C, Zipf keys) and allocation churn."""

from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBConfig, YCSBWorkload
from repro.workloads.zipf import zipfian_keys

__all__ = [
    "YCSB_WORKLOADS",
    "YCSBConfig",
    "YCSBWorkload",
    "zipfian_keys",
]
