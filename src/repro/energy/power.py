"""Energy accounting for workload runs (paper Figure 18).

The paper's method: multiply the active power of each component (CPU
core, ARM, FPGA) by the run's total time, omitting DRAM and NIC energy.
Energy therefore reflects both per-op efficiency *and* total runtime —
which is how HERD-BF ends up worst despite its low-power ARM (slow ops
-> long runtime -> more joules).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import EnergyParams, SEC


@dataclass
class EnergyReport:
    """Joules per component plus the MN/CN split Figure 18 plots."""

    name: str
    mn_joules: float
    cn_joules: float

    @property
    def total_joules(self) -> float:
        return self.mn_joules + self.cn_joules


@dataclass(frozen=True)
class SystemPowerProfile:
    """Active power draw of one system while a workload runs.

    The paper's Figure 18 method multiplies active power by total
    runtime: RPC servers busy-poll (their cores draw full power for the
    whole run), the FPGA fabric is always on, and CN client threads spin
    on completions.  This is why HERD-BF — low-power ARM but the slowest
    runtime — consumes the *most* energy.
    """

    name: str
    mn_watts: float
    cn_watts: float

    def energy(self, runtime_ns: int) -> EnergyReport:
        seconds = runtime_ns / SEC
        return EnergyReport(name=self.name,
                            mn_joules=self.mn_watts * seconds,
                            cn_joules=self.cn_watts * seconds)


def default_profiles(params: EnergyParams,
                     cn_threads: int = 1,
                     herd_server_cores: int = 4,
                     bluefield_cores: int = 8) -> dict[str, SystemPowerProfile]:
    """The Figure 18 contenders' power profiles."""
    cn = cn_threads * params.cn_library_watt
    return {
        "Clio": SystemPowerProfile(
            "Clio", mn_watts=params.fpga_watt + params.arm_core_watt,
            cn_watts=cn),
        "Clover": SystemPowerProfile(
            # Passive MN: zero processing watts at the memory side, but
            # the CN burns extra management cycles (modeled as +50% CN
            # power: the client cores do the MN's job too).
            "Clover", mn_watts=0.0, cn_watts=cn * 1.5),
        "HERD": SystemPowerProfile(
            "HERD", mn_watts=herd_server_cores * params.xeon_core_watt,
            cn_watts=cn),
        "HERD-BF": SystemPowerProfile(
            "HERD-BF",
            mn_watts=(bluefield_cores * params.arm_core_watt
                      + params.bluefield_watt),
            cn_watts=cn),
    }
