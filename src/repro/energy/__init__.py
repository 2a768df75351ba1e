"""Energy, CapEx, and FPGA-utilization models (paper section 7.3)."""

from repro.energy.capex import CapExComparison, MemoryMedia, compare_mn_options
from repro.energy.fpga_util import FPGA_UTILIZATION, FPGAUtilization
from repro.energy.power import (
    EnergyReport,
    SystemPowerProfile,
    default_profiles,
)

__all__ = [
    "CapExComparison",
    "EnergyReport",
    "FPGA_UTILIZATION",
    "FPGAUtilization",
    "MemoryMedia",
    "SystemPowerProfile",
    "compare_mn_options",
    "default_profiles",
]
