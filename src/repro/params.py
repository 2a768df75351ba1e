"""Calibration parameters for the Clio reproduction.

Every timing, capacity, and energy constant used by the simulation lives
here, in one frozen dataclass per subsystem, so that experiments can swap
profiles (FPGA prototype, ASIC projection, CloudLab RNIC) without touching
model code.  The values are taken from the paper's text and its cited
measurements; see DESIGN.md section 4 for the provenance of each number.

All times are integer nanoseconds; all sizes are bytes; all rates are
bits per second unless a name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# ---------------------------------------------------------------------------
# Unit helpers
# ---------------------------------------------------------------------------

NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

KB = 1 << 10
MB = 1 << 20
GB = 1 << 30
TB = 1 << 40

GBPS = 1_000_000_000  # bits per second


def transmit_time_ns(size_bytes: int, rate_bps: int) -> int:
    """Serialization delay of ``size_bytes`` on a ``rate_bps`` link, in ns."""
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return max(1, (size_bytes * 8 * SEC) // rate_bps)


# ---------------------------------------------------------------------------
# CBoard (memory node) parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CBoardParams:
    """Timing/capacity model of the CBoard memory node.

    The prototype profile matches the Xilinx ZCU106 board used in the
    paper (250 MHz FPGA, 512-bit datapath, 2 GB on-board DRAM); the ASIC
    projection scales the clock to 2 GHz and uses server-class DDR access
    time, mirroring the paper's Figure 6 projection methodology.
    """

    # Fast-path clock
    cycle_ns: float = 4.0                  # 250 MHz FPGA
    datapath_bits: int = 512               # bits ingested per cycle (II = 1)

    # Pipeline stage depths, in cycles.  The paper says every request
    # completes in a fixed number of cycles; these depths reflect the
    # described stages (MAT dispatch, translation, permission check,
    # request decode/response formation).
    mat_cycles: int = 2
    decode_cycles: int = 3
    translate_cycles: int = 2              # TLB CAM lookup
    permission_cycles: int = 1
    fault_cycles: int = 3                  # bounded page-fault handling
    response_cycles: int = 3

    # Memory system
    dram_capacity: int = 2 * GB
    dram_access_ns: int = 300              # FPGA board memory controller
    dram_bandwidth_bps: int = 120 * GBPS   # on-board DDR4 stream bandwidth
    tlb_entries: int = 64
    page_table_slots_per_bucket: int = 8   # 8 x 16B PTEs = one DRAM burst
    page_table_overprovision: float = 2.0  # 2x extra slots (paper default)
    default_page_size: int = 4 * MB        # huge pages (paper default)

    # Network stack on the board (thin checksum + ack layer)
    netstack_cycles: int = 4
    port_rate_bps: int = 10 * GBPS         # ZCU106 SFP+ port

    # Slow path (ARM Cortex-A53)
    arm_cores: int = 4
    fpga_arm_crossing_ns: int = 40 * US    # interconnect delay (paper §5)
    arm_polling_handoff_ns: int = 2 * US   # RX-ring poll + worker handoff
    arm_va_search_ns: int = 3 * US         # one VA-tree search pass
    arm_retry_ns: int = 500 * US           # per retry when PT nearly full (paper: ~0.5ms)
    arm_pa_alloc_ns: int = 15 * US         # single PA allocation (paper: <20us)
    # Pre-reserved free PAs.  Each entry is one 8-byte PPN, so a deep
    # buffer is still tiny on-chip state; depth bounds how large a fault
    # burst the board absorbs before the ARM's refill rate matters.
    async_buffer_depth: int = 512

    # Retry dedup buffer: 3 x TIMEOUT x bandwidth (30 KB in the paper)
    retry_buffer_bytes: int = 30 * KB

    @property
    def pipeline_cycles(self) -> int:
        """Fixed number of cycles a no-fault request spends in the pipeline."""
        return (
            self.mat_cycles
            + self.decode_cycles
            + self.translate_cycles
            + self.permission_cycles
            + self.response_cycles
            + self.netstack_cycles
        )

    def pipeline_ns(self, faulted: bool = False) -> int:
        cycles = self.pipeline_cycles + (self.fault_cycles if faulted else 0)
        return int(round(cycles * self.cycle_ns))

    def asic_projection(self) -> "CBoardParams":
        """Scale FPGA clock to a 2 GHz ASIC and use server DDR access time."""
        return replace(self, cycle_ns=0.5, dram_access_ns=100)


# ---------------------------------------------------------------------------
# Network parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkParams:
    """Ethernet fabric model: CN NIC -- ToR switch -- CBoard."""

    mtu: int = 1500                        # link-layer payload bytes
    header_bytes: int = 64                 # Ethernet + Clio header per packet
    # Per-sub-op descriptor inside a multi-op BATCH frame (opcode, VA,
    # size).  Small relative to header_bytes: that gap is exactly the
    # header amortization batching buys.
    subop_header_bytes: int = 16
    cn_nic_rate_bps: int = 40 * GBPS       # ConnectX-3 at the CN
    mn_port_rate_bps: int = 10 * GBPS      # ZCU106 SFP+ at the MN
    switch_rate_bps: int = 40 * GBPS
    propagation_ns: int = 200              # per hop
    switch_forward_ns: int = 300
    loss_rate: float = 0.0                 # packet loss probability
    corruption_rate: float = 0.0           # packet corruption probability
    jitter_ns: int = 120                   # per-packet uniform jitter bound


# ---------------------------------------------------------------------------
# CLib (compute-node library) parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CLibParams:
    """CN-side library costs and transport policy."""

    request_overhead_ns: int = 250         # total CLib processing (paper §7.1)
    poll_interval_ns: int = 100
    # Data-path retry TIMEOUT.  Must sit comfortably above the RTT band
    # the congestion controller tolerates (target_rtt), or healthy
    # requests under load retry spuriously and feed the queue they wait in.
    timeout_ns: int = 30 * US
    # Slow-path and offload requests legitimately take far longer than a
    # data access (VA allocation can retry for milliseconds near-full), so
    # they use a separate, generous timeout.
    slow_timeout_ns: int = 100 * MS
    # Hard cap on retransmission: original + max_retries attempts, then the
    # transport raises a typed RequestFailed.  This is what turns a dead
    # board or severed link into a bounded, loud failure instead of an
    # unbounded retry loop once the backoff saturates at slow_timeout_ns.
    max_retries: int = 4                   # retries before reporting an error

    # Congestion control. The algorithm is CN-side software and therefore
    # swappable (R7): "swift" (delay AIMD, the paper's design), "timely"
    # (gradient-based), or "static" (fixed window).
    cc_algorithm: str = "swift"
    cwnd_init: float = 8.0
    cwnd_min: float = 0.1                  # may fall below one packet
    cwnd_max: float = 256.0
    cwnd_additive_increase: float = 1.0
    cwnd_multiplicative_decrease: float = 0.7
    # Delay target for AIMD.  Keeping ~10 bulk responses queued at a
    # 10 Gbps port costs ~9 us, so the target must allow that much
    # standing queue or the controller throttles below line rate.
    target_rtt_ns: int = 15 * US

    # Incast control
    iwnd_bytes: int = 256 * KB             # max outstanding expected response bytes

    # Request batching (repro.clib.batch) — opt-in per thread and therefore
    # inert by default: nothing reads these unless a thread calls
    # ``enable_batching`` or issues a vector op.
    batch_max_ops: int = 16                # sub-ops coalesced per frame
    batch_window_ns: int = 500             # max linger before a forced flush

    def __post_init__(self) -> None:
        if self.batch_max_ops < 1:
            raise ValueError(
                f"batch_max_ops must be >= 1, got {self.batch_max_ops}")
        if self.batch_window_ns < 0:
            raise ValueError(
                f"batch_window_ns must be non-negative, "
                f"got {self.batch_window_ns}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries}")
        if self.timeout_ns <= 0:
            raise ValueError(
                f"timeout_ns must be positive, got {self.timeout_ns}")
        if self.slow_timeout_ns < self.timeout_ns:
            raise ValueError(
                f"slow_timeout_ns ({self.slow_timeout_ns}) must be >= "
                f"timeout_ns ({self.timeout_ns}): it is the backoff ceiling")


# ---------------------------------------------------------------------------
# CN-side hot-page cache parameters (repro.cache)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheParams:
    """CN-local DRAM hot-page cache (repro.cache) — opt-in, inert by default.

    Nothing reads these unless the cluster is built with the layer
    (``ClioCluster(layers=("caching",))``); a cache-off run schedules zero
    extra events and stays bit-identical to the pre-cache goldens.
    """

    line_bytes: int = 4 * KB               # cache-line granularity
    capacity_lines: int = 1024             # per-CN line capacity
    policy: str = "through"                # "through" | "back"
    hit_ns: int = 300                      # local DRAM access on a hit
    dir_process_ns: int = 500              # directory per-request processing
    flush_retry_ns: int = 20 * US          # backoff between flush attempts

    def __post_init__(self) -> None:
        if self.line_bytes < 8:
            raise ValueError(
                f"line_bytes must be >= 8 (atomic word), got {self.line_bytes}")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError(
                f"line_bytes must be a power of two, got {self.line_bytes}")
        if self.capacity_lines < 2:
            raise ValueError(
                f"capacity_lines must be >= 2, got {self.capacity_lines}")
        if self.policy not in ("through", "back"):
            raise ValueError(
                f"policy must be 'through' or 'back', got {self.policy!r}")
        if self.hit_ns <= 0:
            raise ValueError(f"hit_ns must be positive, got {self.hit_ns}")
        if self.dir_process_ns <= 0:
            raise ValueError(
                f"dir_process_ns must be positive, got {self.dir_process_ns}")
        if self.flush_retry_ns <= 0:
            raise ValueError(
                f"flush_retry_ns must be positive, got {self.flush_retry_ns}")


@dataclass(frozen=True)
class AllocParams:
    """ARM slow-path allocation strategy selection (repro.alloc).

    The defaults reproduce the paper exactly: a FIFO free-list for
    physical pages and first-fit VA search, bit-identical to the
    original allocators.  Alternative strategies are pure-bookkeeping
    swaps — no extra events, no RNG — so two runs differing only here
    diverge only where the allocator itself decides differently.
    """

    pa_strategy: str = "freelist"          # "freelist"|"slab"|"buddy"|"arena"
    va_policy: str = "first-fit"           # "first-fit"|"next-fit"|"best-fit"|"jump"
    slab_pages: int = 64                   # contiguous pages per slab
    slab_classes: int = 4                  # size classes (pids hash onto these)
    arena_batch_pages: int = 16            # global-pool pages per arena refill
    arena_stash_max: int = 64              # stash size triggering a lazy spill
    arena_buffer_depth: int = 32           # per-process async free-page buffer

    def __post_init__(self) -> None:
        if self.pa_strategy not in ("freelist", "slab", "buddy", "arena"):
            raise ValueError(
                f"pa_strategy must be one of freelist/slab/buddy/arena, "
                f"got {self.pa_strategy!r}")
        if self.va_policy not in ("first-fit", "next-fit", "best-fit", "jump"):
            raise ValueError(
                f"va_policy must be one of first-fit/next-fit/best-fit/jump, "
                f"got {self.va_policy!r}")
        for name in ("slab_pages", "slab_classes", "arena_batch_pages",
                     "arena_buffer_depth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.arena_stash_max < self.arena_batch_pages:
            raise ValueError(
                f"arena_stash_max ({self.arena_stash_max}) must be >= "
                f"arena_batch_pages ({self.arena_batch_pages})")


# ---------------------------------------------------------------------------
# Multi-tenant QoS parameters (repro.net.qos + controller quotas)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TenantConfig:
    """One tenant of a pooled memory deployment.

    ``clients`` are CN node names (``"cn0"``): the switch-egress shaper
    classifies packets by their source node, so a tenant is the set of
    compute nodes it runs on.  ``share`` is the fraction of the shaped
    egress port (or of the CXL pool port) reserved for the tenant;
    ``quota_bytes`` caps the tenant's allocated capacity (``None`` =
    uncapped) wherever capacity QoS is enforced (the global controller,
    the CXL pool allocator).
    """

    name: str
    clients: tuple = ()
    share: float = 1.0
    quota_bytes: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a non-empty name")
        if not 0.0 < self.share <= 1.0:
            raise ValueError(
                f"tenant {self.name!r}: share must be in (0, 1], "
                f"got {self.share}")
        if self.quota_bytes is not None and self.quota_bytes <= 0:
            raise ValueError(
                f"tenant {self.name!r}: quota_bytes must be positive, "
                f"got {self.quota_bytes}")


@dataclass(frozen=True)
class QoSParams:
    """Multi-tenant isolation knobs — opt-in, inert by default.

    ``tenants`` is the one tenant table: the ``"qos"`` cluster layer
    (``ClioCluster(layers=("qos",))``) builds an egress shaper in front
    of every MN downlink from it, and the capacity ledgers of the rack's
    global controller and the CXL pool take their quotas from it.  With
    no tenants (the default) nothing is shaped or capped, no extra event
    is scheduled, and runs stay bit-identical to the pre-QoS goldens.

    ``burst_bytes`` is the token-bucket depth per tenant at a shaped
    egress queue: how far a tenant may exceed its reserved rate before
    its packets queue in the shaper.  Shares are *reservations*, not
    work-conserving weights: a tenant is never throttled below its
    share, and never rides above it through another tenant's idleness —
    that hard ceiling is what makes the isolation guarantee composable.
    """

    tenants: tuple = ()
    burst_bytes: int = 3 * KB              # ~2 MTU-sized packets

    def __post_init__(self) -> None:
        if self.burst_bytes <= 0:
            raise ValueError(
                f"burst_bytes must be positive, got {self.burst_bytes}")
        names = [tenant.name for tenant in self.tenants]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate tenant names: {names}")
        total = sum(tenant.share for tenant in self.tenants)
        if self.tenants and total > 1.0 + 1e-9:
            raise ValueError(
                f"tenant shares sum to {total}, must be <= 1.0 "
                "(shares are hard reservations of one port)")
        clients = [c for tenant in self.tenants for c in tenant.clients]
        if len(clients) != len(set(clients)):
            raise ValueError(
                f"a client node may belong to only one tenant: {clients}")


# ---------------------------------------------------------------------------
# CXL load/store backend parameters (repro.baselines.cxl)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CXLParams:
    """Cache-line-granularity load/store pooled memory (CXL 2.0-style).

    The model is a timing model in the spirit of the other baselines —
    calibrated to published CXL.mem measurements (CXL-DMSim, emucxl):
    a far-memory line load lands in the 300-400 ns band, roughly 2-3x
    local DRAM and ~5x *below* an RDMA round trip, because a load/store
    has no RPC framing, no NIC doorbell, and no header amortization to
    win back.  The flip side the model also keeps: every access moves
    whole 64 B lines (sub-line wins, bulk loses), and pooled sharing
    pays coherence — a store to a line another host holds dirty must
    snoop and back-invalidate it first.
    """

    line_bytes: int = 64                   # CXL.mem transfer granularity
    load_ns: int = 350                     # far-memory line load (pooled)
    store_ns: int = 300                    # posted store to pooled device
    hdm_decode_ns: int = 30                # HDM decoder + interleave math
    switch_hop_ns: int = 80                # CXL switch traversal (pooling)
    line_pipeline_ns: int = 40             # per extra line, pipelined
    port_rate_bps: int = 64 * GBPS         # x8 CXL 2.0 link
    hdm_program_ns: int = 500              # decoder reprogram on alloc
    coherence: bool = True                 # track cross-host line sharing
    snoop_ns: int = 180                    # probe a clean remote copy
    back_invalidate_ns: int = 500          # recall a dirty remote line
    back_invalidate_pipelined_ns: int = 200  # per extra recalled line

    def __post_init__(self) -> None:
        if self.line_bytes < 8 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError(
                f"line_bytes must be a power of two >= 8, "
                f"got {self.line_bytes}")
        for name in ("load_ns", "store_ns", "port_rate_bps"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")
        for name in ("hdm_decode_ns", "switch_hop_ns", "line_pipeline_ns",
                     "hdm_program_ns", "snoop_ns", "back_invalidate_ns",
                     "back_invalidate_pipelined_ns"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be non-negative, got {getattr(self, name)}")


# ---------------------------------------------------------------------------
# Backend selection (repro.baselines.api)
# ---------------------------------------------------------------------------


#: Every comparison backend ``create_backend`` can build.
BACKEND_NAMES = ("clio", "cxl", "rdma", "legoos", "clover", "herd",
                 "herd-bf")


@dataclass(frozen=True)
class BackendParams:
    """Setup knobs for the comparison backends, in one place.

    Mirrors :class:`AllocParams`: the per-backend constructor kwargs that
    used to be scattered across ``benchmarks/`` (``dram_capacity=...``,
    ``on_bluefield=...``, ``capacity_slots=...``) fold into this block,
    so an experiment swaps backends by swapping ``ClioParams.backend``
    and nothing else.
    """

    dram_capacity: int | None = None       # None = CBoardParams default
    capacity_slots: int = 1 << 16          # Clover: value slots in the MR
    tenant: str = "default"                # CXL: tenant the backend runs as

    def __post_init__(self) -> None:
        if self.dram_capacity is not None and self.dram_capacity <= 0:
            raise ValueError(
                f"dram_capacity must be positive, got {self.dram_capacity}")
        if self.capacity_slots <= 0:
            raise ValueError(
                f"capacity_slots must be positive, got {self.capacity_slots}")


# ---------------------------------------------------------------------------
# RDMA baseline parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RDMAParams:
    """Model of a commodity RNIC (ConnectX-3 'local' profile by default).

    The scalability cliffs (Figure 4/5) come from finite on-chip caches for
    QP state, page-table entries (MTT), and memory-region metadata, with a
    PCIe crossing on every miss; the fault path goes through the host OS.
    """

    base_read_rtt_ns: int = 2000           # no-miss 16B read round trip (CX3)
    base_write_rtt_ns: int = 1200          # RNIC acks writes before DRAM commit
    per_byte_ns_num: int = 8               # serialization handled by net model
    qp_cache_entries: int = 256
    pte_cache_entries: int = 256           # 2^8 local cluster profile
    mr_cache_entries: int = 256
    pcie_miss_penalty_ns: int = 900        # PCIe round trip to host memory
    miss_amplification: float = 4.0        # paper: 4x when metadata off-chip
    qp_state_bytes: int = 375              # per-connection state
    max_mrs: int = 1 << 18                 # RDMA fails beyond 2^18 MRs
    mr_register_base_ns: int = 10 * US
    mr_register_per_page_ns: int = 600     # pinning cost per 4 KB page
    odp_page_fault_ns: int = 16_800 * US   # 16.8 ms (paper measurement)
    host_page_size: int = 4 * KB

    @classmethod
    def cloudlab(cls) -> "RDMAParams":
        """ConnectX-5 profile: bigger caches, same cliffs later (2^12)."""
        return cls(
            base_read_rtt_ns=1500,
            base_write_rtt_ns=1100,
            qp_cache_entries=1024,
            pte_cache_entries=4096,        # 2^12
            mr_cache_entries=1024,
        )


# ---------------------------------------------------------------------------
# Other baselines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LegoOSParams:
    """LegoOS software MN: thread pool + software hash translation over RDMA."""

    software_handling_ns: int = 2400       # per-request MN software cost
    thread_pool_size: int = 8
    peak_goodput_bps: int = 77 * GBPS      # paper measurement


@dataclass(frozen=True)
class CloverParams:
    """Clover-style passive disaggregated memory (PDM)."""

    write_round_trips: int = 3             # "at least 2 RTTs" per write:
                                           # out-of-place data write, cursor
                                           # lookup, metadata CAS commit
    metadata_lookup_ns: int = 450          # CN-side management work per op
    cursor_chase_probability: float = 0.15 # extra RTT chance on reads under contention


@dataclass(frozen=True)
class HERDParams:
    """HERD RPC key-value over RDMA; optionally on a BlueField SmartNIC."""

    cpu_handling_ns: int = 350             # MN CPU per-op RPC processing
    cpu_per_byte_ns: float = 0.8           # request/response memcpy on CPU
    bluefield_crossing_ns: int = 1500      # ConnectX-5 chip <-> ARM chip hop
    bluefield_handling_ns: int = 900       # slower ARM cores
    bluefield_per_byte_ns: float = 1.6     # slower ARM memcpy
    server_cores: int = 4                  # dedicated RPC polling cores


# ---------------------------------------------------------------------------
# Energy / cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyParams:
    """Per-unit power draw used in Figure 18 / section 7.3 accounting."""

    xeon_core_watt: float = 9.5            # Intel Xeon Gold 5218 per active core
    arm_core_watt: float = 0.75            # Cortex-A53 per core
    fpga_watt: float = 9.0                 # measured FPGA power (paper)
    bluefield_watt: float = 20.0           # BlueField card
    cn_library_watt: float = 9.5           # one busy CN core running CLib

    # CapEx inputs (USD, market prices circa the paper).  The paper's
    # framing: "a server box costs more than the DRAM it hosts".
    server_base_cost: float = 4500.0       # 2-socket host server, no DRAM
    cboard_cost: float = 2495.0            # ZCU106 market price (paper §5)
    dram_cost_per_gb: float = 4.0
    optane_cost_per_gb: float = 2.0
    server_idle_watt: float = 120.0
    cboard_idle_watt: float = 20.0
    optane_watt_per_dimm: float = 15.0     # host-attached, full-power mode
    optane_lowpower_watt_per_dimm: float = 2.0  # CBoard-driven standby mode
    dram_watt_per_64gb: float = 5.0


# ---------------------------------------------------------------------------
# Top-level bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClioParams:
    """Bundle of all subsystem parameter sets, with named profiles."""

    cboard: CBoardParams = field(default_factory=CBoardParams)
    network: NetworkParams = field(default_factory=NetworkParams)
    clib: CLibParams = field(default_factory=CLibParams)
    cache: CacheParams = field(default_factory=CacheParams)
    alloc: AllocParams = field(default_factory=AllocParams)
    rdma: RDMAParams = field(default_factory=RDMAParams)
    legoos: LegoOSParams = field(default_factory=LegoOSParams)
    clover: CloverParams = field(default_factory=CloverParams)
    herd: HERDParams = field(default_factory=HERDParams)
    cxl: CXLParams = field(default_factory=CXLParams)
    qos: QoSParams = field(default_factory=QoSParams)
    backend: BackendParams = field(default_factory=BackendParams)
    energy: EnergyParams = field(default_factory=EnergyParams)

    @classmethod
    def prototype(cls) -> "ClioParams":
        """The FPGA prototype used for all headline numbers."""
        return cls()

    @classmethod
    def asic_projection(cls) -> "ClioParams":
        """Figure 6's 'Clio if built as a 2 GHz ASIC' projection."""
        base = cls()
        return replace(base, cboard=base.cboard.asic_projection())

    @classmethod
    def cloudlab(cls) -> "ClioParams":
        """CloudLab profile: ConnectX-5 RNIC baseline parameters."""
        return replace(cls(), rdma=RDMAParams.cloudlab())


DEFAULT_PARAMS = ClioParams.prototype()
