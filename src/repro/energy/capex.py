"""CapEx and power comparison: server-based MN versus CBoard (section 7.3).

The paper estimates, from market prices, that a server-based MN hosting
1 TB of DRAM costs 1.1-1.5x and draws 1.9-2.7x the power of a CBoard;
with Optane DIMMs the gap grows to 1.4-2.5x cost and 5.1-8.6x power.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.params import GB, EnergyParams


class MemoryMedia(enum.Enum):
    DRAM = "dram"
    OPTANE = "optane"


@dataclass(frozen=True)
class MNCost:
    """Cost and wall power of one memory-node build."""

    kind: str
    capex_usd: float
    power_watt: float


@dataclass(frozen=True)
class CapExComparison:
    server: MNCost
    cboard: MNCost

    @property
    def cost_ratio(self) -> float:
        return self.server.capex_usd / self.cboard.capex_usd

    @property
    def power_ratio(self) -> float:
        return self.server.power_watt / self.cboard.power_watt


def _media_cost_and_power(capacity_bytes: int, media: MemoryMedia,
                          params: EnergyParams,
                          server_managed: bool) -> tuple[float, float]:
    gb = capacity_bytes / GB
    if media is MemoryMedia.DRAM:
        cost = gb * params.dram_cost_per_gb
        power = (gb / 64) * params.dram_watt_per_64gb
    else:
        cost = gb * params.optane_cost_per_gb
        dimms = max(1, int(gb / 128))
        # Host-attached Optane keeps the DIMMs (and the host memory
        # subsystem) in full-power mode; a CBoard drives them directly in
        # the low-power profile — the source of the paper's 5.1-8.6x gap.
        per_dimm = (params.optane_watt_per_dimm if server_managed
                    else params.optane_lowpower_watt_per_dimm)
        power = dimms * per_dimm
    return cost, power


def compare_mn_options(capacity_bytes: int = 1 << 40,
                       media: MemoryMedia = MemoryMedia.DRAM,
                       params: EnergyParams | None = None) -> CapExComparison:
    """Build the paper's server-vs-CBoard cost/power comparison."""
    params = params or EnergyParams()
    media_cost, media_power = _media_cost_and_power(
        capacity_bytes, media, params, server_managed=True)
    server = MNCost(kind=f"server+{media.value}",
                    capex_usd=params.server_base_cost + media_cost,
                    power_watt=params.server_idle_watt + media_power)
    cb_cost, cb_power = _media_cost_and_power(
        capacity_bytes, media, params, server_managed=False)
    cboard = MNCost(kind=f"cboard+{media.value}",
                    capex_usd=params.cboard_cost + cb_cost,
                    power_watt=params.cboard_idle_watt + cb_power)
    return CapExComparison(server=server, cboard=cboard)
