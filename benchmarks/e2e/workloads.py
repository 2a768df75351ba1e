"""The seven workloads of the end-to-end benchmark.

Every workload has the same four steps, driven by ``run.py``:

* the constructor is the *set-up* (build the cluster, allocate, prime);
* ``prepare(index)`` generates slice ``index``'s inputs from the seed —
  the program under test only ever sees the generated ops;
* ``execute(inputs)`` is the *timed part*: it runs the slice, closed loop
  with the workload's stated client count, checks every result as it
  arrives, and logs when each op ended in simulated and in wall time;
  ``run.py`` times the call as a whole;
* ``summarize(raw)`` turns what ``execute`` logged into a :class:`Slice`
  (latencies, tick rates, failure count, replay digest) outside the
  timed part.

All state persists across slices of one workload object (one cluster,
one set of shadows); inputs of slice ``i`` depend only on ``(seed, i)``,
so two objects built from the same seed replay the same slices exactly.

Op counts per slice are constants here, chosen so a slice takes about
one second on the 2-core box the benchmark was written on and the twelve
slices of a run the ``run_seconds`` of ``BENCHMARK.json``; they are not
flags.  ``--seconds`` scales every count by ``seconds / run_seconds``
(the ``scale`` argument), so a shorter run is the same run with
proportionally smaller slices.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass
from time import perf_counter

KB = 1 << 10
MB = 1 << 20

ZERO64 = bytes(64)

#: Shortest stretch of a slice whose host rate is taken on its own.
TICK_S = 0.05


@dataclass
class Slice:
    """What one slice did, in simulated terms (host time is the caller's)."""

    ops: int           # operations attempted
    failed: int        # ops that raised, were refused, or returned wrong data
    latencies: list    # simulated ns, one per op (hand-off / allocation)
    sim_ns: int        # simulated time the slice covered
    events: int        # engine events scheduled (``env._seq`` delta)
    digest: str        # equal iff the slice replayed bit-identically
    problems: list     # failed slice-level checks (empty when fine)
    tick_rates: list   # host ops/s of each ~50 ms stretch of the slice


def slice_rng(seed: int, index: int, salt: str) -> random.Random:
    """Input stream of one slice: a function of (seed, slice, workload)."""
    return random.Random(f"{salt}/{seed}/{index}")


def zipf_cdf(n: int, theta: float) -> list:
    """Cumulative (unnormalised) Zipf weights for ``zipf_draw``."""
    total, cdf = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** theta
        cdf.append(total)
    return cdf


def zipf_draw(rng: random.Random, cdf: list) -> int:
    return bisect.bisect_left(cdf, rng.random() * cdf[-1])


def tick_rates(started: float, marks) -> list:
    """Host ops/s of each stretch of at least ``TICK_S`` of one slice.

    ``marks`` are ``(wall clock, ops done so far)`` in time order; a slice
    shorter than one tick is one stretch.
    """
    rates, since, counted = [], started, 0
    for now, done in marks:
        if now - since >= TICK_S:
            rates.append((done - counted) / (now - since))
            since, counted = now, done
    return rates or [done / (now - started)]


def scaled(count: int, scale: float) -> int:
    """``count`` at the declared run length, scaled to this run's."""
    return max(1, round(count * scale))


def log_digest(log) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(log).encode())
    return digest.hexdigest()


#: Registry field (after ``transport.<cn>.`` / ``cboard.<mn>.`` / ``rack.``)
#: -> the count it adds to.
_COUNTED = {
    "requests_issued": "requests_issued",
    "requests_completed": "requests_completed",
    "requests_failed": "requests_failed",
    "total_retries": "retries",
    "pipeline.requests": "pipeline_requests",
    "tlb.hits": "tlb_hits", "tlb.misses": "tlb_misses",
    "faults": "page_faults", "retry_dedups": "retry_dedups",
    "slowpath.allocs": "slowpath_allocs",
    "slowpath.frees": "slowpath_frees",
    "alloc.slow_crossings": "slow_crossings",
    "alloc.va_retries": "va_retries",
    "migrations": "migrations",
}


class ClusterWorkload:
    """Shared plumbing for the workloads that run on a ``ClioCluster``."""

    name = ""

    def __init__(self, cluster):
        from repro.clib.client import RemoteAccessError
        from repro.transport.clib_transport import RequestFailed
        self.cluster = cluster
        self.env = cluster.env
        #: What a failed op raises; anything else is a bug and propagates.
        self.op_errors = (RequestFailed, RemoteAccessError)
        self.failed = 0

    @property
    def tracer(self):
        return self.cluster.tracer

    def _setup(self, generator, tracing: bool) -> None:
        """Run the set-up process; what follows it is what gets counted."""
        self.cluster.run(until=self.env.process(generator))
        if tracing:
            self.cluster.enable_tracing()
        self._baseline = self._read_counts()

    def execute(self, inputs) -> dict:
        """Run one slice: one closed-loop client process per input list."""
        env = self.env
        seq, now, self.failed = env._seq, env.now, 0
        self.log = []         # (client, simulated start, simulated end, wall)
        started = perf_counter()
        self.cluster.run_all([env.process(self._client(client, ops))
                              for client, ops in enumerate(inputs)])
        return {"log": self.log, "failed": self.failed, "started": started,
                "events": env._seq - seq, "sim_ns": env.now - now}

    def summarize(self, raw: dict) -> Slice:
        log = raw["log"]
        return Slice(ops=len(log), failed=raw["failed"],
                     latencies=[end - start for _, start, end, _ in log],
                     sim_ns=raw["sim_ns"], events=raw["events"],
                     digest=log_digest([entry[:3] for entry in log]),
                     problems=[],
                     tick_rates=tick_rates(raw["started"], (
                         (entry[3], done)
                         for done, entry in enumerate(log, 1))))

    def _read_counts(self) -> dict:
        """Running per-layer counts, read through the public registry."""
        cluster = self.cluster
        hosts = {node.name for node in cluster.cns + cluster.mns}
        out = dict.fromkeys(("packets", "wire_bytes", "drops",
                             "switch_forwards", *_COUNTED.values()), 0)
        for key, value in cluster.metrics.snapshot().items():
            head, _, rest = key.partition(".")
            if head == "link":
                link, _, field = rest.rpartition(".")
                if field in ("packets_dropped", "packets_dropped_down",
                             "packets_corrupted"):
                    out["drops"] += value
                elif link.split("->")[0] in hosts:
                    if field == "packets_sent":
                        out["packets"] += value
                    elif field == "bytes_sent":
                        out["wire_bytes"] += value
            elif key.endswith(".packets_forwarded"):
                out["switch_forwards"] += value
            elif head in ("transport", "cboard", "rack"):
                field = rest if head == "rack" else rest.partition(".")[2]
                if field in _COUNTED:
                    out[_COUNTED[field]] += value
        return out

    def counters(self) -> dict:
        """Per-layer counts since set-up, plus three current readings."""
        cluster = self.cluster
        out = {key: value - self._baseline[key]
               for key, value in self._read_counts().items()}
        snap = cluster.metrics.snapshot()
        out["boards_in_service"] = snap.get("rack.boards_in_service",
                                            len(cluster.mns))
        out["fragmentation"] = max(
            value for key, value in snap.items()
            if key.endswith(".alloc.fragmentation"))
        windows = [cwnd for node in cluster.report()["cns"].values()
                   for cwnd in node["cwnd"].values()]
        out["cwnd_final"] = sum(windows) / len(windows) if windows else 0.0
        return out

    def problems(self) -> list:
        """End-of-run checks that are not per-op."""
        found = []
        for name, node in self.cluster.report()["cns"].items():
            if node["requests_issued"] != node["requests_completed"]:
                found.append(f"{name}: {node['requests_issued']} requests "
                             f"issued, {node['requests_completed']} completed")
            if node["requests_failed"]:
                found.append(f"{name}: {node['requests_failed']} requests "
                             "failed")
        return found


class EchoRead64(ClusterWorkload):
    """``rread(va + off, 64)`` on one primed 4 MB page: CN -> ToR -> MN."""

    name = "echo_read64"
    OPS = 11_000
    REGION = 4 * MB

    def __init__(self, seed: int, scale: float, tracing: bool = False):
        from repro.cluster import ClioCluster
        from repro.params import ClioParams
        super().__init__(ClioCluster(params=ClioParams.prototype(), seed=seed,
                                     num_cns=1, mn_capacity=256 * MB))
        self.seed = seed
        self.ops = scaled(self.OPS, scale)
        self.thread = self.cluster.cn(0).process("mn0").thread()
        self._setup(self._prime(), tracing)

    def _prime(self):
        self.va = yield from self.thread.ralloc(self.REGION)
        page = self.cluster.mn.page_spec.page_size
        for offset in range(0, self.REGION, page):
            yield from self.thread.rwrite(self.va + offset, ZERO64)

    def prepare(self, index: int) -> list:
        rng = slice_rng(self.seed, index, "echo")
        lines = self.REGION // 64
        return [[self.va + rng.randrange(lines) * 64
                 for _ in range(self.ops)]]      # one client

    def _client(self, client: int, addresses):
        env, rread, log = self.env, self.thread.rread, self.log
        for address in addresses:
            start = env.now
            try:
                if (yield from rread(address, 64)) != ZERO64:
                    self.failed += 1
            except self.op_errors:
                self.failed += 1
            log.append((client, start, env.now, perf_counter()))


class EchoRead64Traced(EchoRead64):
    """Identical inputs with span tracing on: the telemetry workload."""

    name = "echo_read64_traced"
    SPANS_PER_OP = 4    # request, attempt, mn, fastpath

    def __init__(self, seed: int, scale: float, tracing: bool = True):
        super().__init__(seed, scale, tracing=True)

    def prepare(self, index: int) -> list:
        # One slice's records at a time: the checks below are per slice.
        self.tracer.clear()
        return super().prepare(index)

    def summarize(self, raw: dict) -> Slice:
        result = super().summarize(raw)
        spans = len(self.tracer.spans)
        if spans != self.SPANS_PER_OP * result.ops:
            result.problems.append(
                f"tracer recorded {spans} spans for {result.ops} ops")
        if self.tracer.dropped:
            result.problems.append(f"tracer dropped {self.tracer.dropped}")
        return result


class MixedRWContended(ClusterWorkload):
    """4 CNs x 4 threads -> 1 MN: half writes, five sizes, zipf pages.

    256 pages are four times the 64-entry TLB, 4 096 B exceeds the MTU
    (fragments), and sixteen closed-loop clients queue on one downlink.
    Each thread owns an 8 KB stripe of every page and checks every read
    against its own shadow copy.
    """

    name = "mixed_rw_contended"
    CNS, THREADS_PER_CN = 4, 4
    clients = CNS * THREADS_PER_CN
    OPS_PER_CLIENT = 600
    PAGES = 256
    PAGE = 4 * MB
    STRIPE = 8 * KB
    SIZES = (16, 64, 256, 1024, 4096)
    THETA = 0.9
    PID = 9101

    def __init__(self, seed: int, scale: float, tracing: bool = False):
        from repro.cluster import ClioCluster
        from repro.params import ClioParams
        super().__init__(ClioCluster(
            params=ClioParams.prototype(), seed=seed, num_cns=self.CNS,
            mn_capacity=(self.PAGES + 8) * self.PAGE))
        self.seed = seed
        self.ops_per_client = scaled(self.OPS_PER_CLIENT, scale)
        self.threads = [self.cluster.cn(cn).process("mn0", pid=self.PID)
                        .thread()
                        for cn in range(self.CNS)
                        for _ in range(self.THREADS_PER_CN)]
        self._setup(self._prime(), tracing)
        self.cdf = zipf_cdf(self.PAGES, self.THETA)
        # Which page is hot is an input too.
        self.rank_to_page = list(range(self.PAGES))
        random.Random(f"mixed-pages/{seed}").shuffle(self.rank_to_page)
        self.shadows = [{} for _ in self.threads]

    def _prime(self):
        first = self.threads[0]
        self.va = yield from first.ralloc(self.PAGES * self.PAGE)
        for page in range(self.PAGES):
            yield from first.rwrite(self.va + page * self.PAGE, ZERO64)

    def prepare(self, index: int) -> list:
        rng = slice_rng(self.seed, index, "mixed")
        per_client = []
        for client in range(self.clients):
            ops = []
            for _ in range(self.ops_per_client):
                page = self.rank_to_page[zipf_draw(rng, self.cdf)]
                size = rng.choice(self.SIZES)
                offset = rng.randrange(self.STRIPE - size + 1)
                payload = (bytes([rng.randrange(1, 256)]) * size
                           if rng.random() < 0.5 else None)
                ops.append((page, client * self.STRIPE + offset, size,
                            payload))
            per_client.append(ops)
        return per_client

    def _client(self, client: int, ops):
        env, log, thread = self.env, self.log, self.threads[client]
        shadow = self.shadows[client]
        base, page_bytes, stripe = self.va, self.PAGE, self.STRIPE
        for page, offset, size, payload in ops:
            address = base + page * page_bytes + offset
            start = env.now
            try:
                if payload is not None:
                    yield from thread.rwrite(address, payload)
                    mine = shadow.get(page)
                    if mine is None:
                        mine = shadow[page] = bytearray(stripe)
                    local = offset % stripe
                    mine[local:local + size] = payload
                else:
                    data = yield from thread.rread(address, size)
                    mine = shadow.get(page)
                    local = offset % stripe
                    expected = (bytes(size) if mine is None
                                else bytes(mine[local:local + size]))
                    if data != expected:
                        self.failed += 1
            except self.op_errors:
                self.failed += 1
            log.append((client, start, env.now, perf_counter()))


class OnboardRead64(ClusterWorkload):
    """``CBoard.execute_local`` reads: the board pipeline and nothing else.

    Two local generators with seeded idle gaps between their reads, so
    that reads meet at the board's intake and read-DMA engine at
    seed-dependent offsets and the simulated latency is not one constant.
    """

    name = "onboard_read64"
    clients = 2
    OPS_PER_CLIENT = 45_000
    REGION = 4 * MB
    MAX_GAP_NS = 1_000

    def __init__(self, seed: int, scale: float, tracing: bool = False):
        from repro.cluster import ClioCluster
        from repro.core.addr import AccessType
        from repro.core.pipeline import Status
        from repro.params import ClioParams
        super().__init__(ClioCluster(params=ClioParams.prototype(), seed=seed,
                                     num_cns=1, mn_capacity=256 * MB))
        self.seed = seed
        self.ops_per_client = scaled(self.OPS_PER_CLIENT, scale)
        self.read, self.ok = AccessType.READ, Status.OK
        self.thread = self.cluster.cn(0).process("mn0").thread()
        self.pid = self.thread.process.pid
        self._setup(self._prime(), tracing)

    def _prime(self):
        self.va = yield from self.thread.ralloc(self.REGION)
        yield from self.thread.rwrite(self.va, ZERO64)

    def prepare(self, index: int) -> list:
        rng = slice_rng(self.seed, index, "onboard")
        lines = self.REGION // 64
        return [[(self.va + rng.randrange(lines) * 64,
                  rng.randrange(self.MAX_GAP_NS + 1))
                 for _ in range(self.ops_per_client)]
                for _ in range(self.clients)]

    def _client(self, client: int, ops):
        env, log, board = self.env, self.log, self.cluster.mn
        pid, read, ok = self.pid, self.read, self.ok
        for address, gap in ops:
            if gap:
                yield env.timeout(gap)
            start = env.now
            result = yield from board.execute_local(pid, read, address, 64)
            if result.status is not ok or result.data != ZERO64:
                self.failed += 1
            log.append((client, start, env.now, perf_counter()))

    def problems(self) -> list:
        return []       # no transport requests to balance


class EngineStorm:
    """The bare engine: timeouts, one Store pair, one callback chain.

    No model code runs, so this is the ceiling the model workloads are
    read against.  An op is one dispatched step (a worker wake-up, a put,
    a get, or a callback); latency is the Store's put -> get hand-off.

    The seed orders the inputs but does not change their mix: worker
    periods and burst sizes are fixed multisets that the seed shuffles,
    so runs with different seeds do the same amount of work and queue to
    the same depths, in a different order.
    """

    name = "engine_storm"
    WORKERS = 256
    HORIZON_NS = 7_000   # simulated time per slice
    CHUNKS = 20          # wall-clock marks per slice (no op log to stamp)
    TABLE = 4_096        # length of the seeded burst cycle
    MAX_BURST = 16       # the Store's capacity: a full burst fills it
    SERVICE_NS = 3
    IDLE_NS = 5          # producer's pause once the consumer has caught up
    CALLBACK_PERIOD_NS = 5

    tracer = None

    def __init__(self, seed: int, scale: float, tracing: bool = False):
        from repro.sim import Environment, Store
        rng = random.Random(f"storm/{seed}")
        self.env = env = Environment()
        # Whole callback periods, so the chain fires a known number of times.
        self.chunk_ns = self.CALLBACK_PERIOD_NS * scaled(
            self.HORIZON_NS // self.CHUNKS // self.CALLBACK_PERIOD_NS, scale)
        self.horizon_ns = self.chunk_ns * self.CHUNKS
        self.steps = [0]
        self.callbacks = [0]
        self.handoffs = []
        self.misordered = 0
        self.store = Store(env, capacity=self.MAX_BURST)
        self.bursts = [1 + index % self.MAX_BURST
                       for index in range(self.TABLE)]
        rng.shuffle(self.bursts)
        periods = [1 + index % 7 for index in range(self.WORKERS)]
        rng.shuffle(periods)
        for period in periods:
            env.process(self._worker(period))
        env.process(self._producer())
        env.process(self._consumer())
        env.schedule_callback(self.CALLBACK_PERIOD_NS, self._callback)

    def _worker(self, period: int):
        timeout, steps = self.env.timeout, self.steps
        while True:
            yield timeout(period)
            steps[0] += 1

    def _producer(self):
        env, store, steps = self.env, self.store, self.steps
        bursts, mask, serial, cycle = self.bursts, self.TABLE - 1, 0, 0
        while True:
            burst = bursts[cycle & mask]
            for _ in range(burst):
                yield store.put((serial, env.now))
                steps[0] += 1
                serial += 1
            yield env.timeout(burst * self.SERVICE_NS + self.IDLE_NS)
            cycle += 1

    def _consumer(self):
        env, store, steps = self.env, self.store, self.steps
        handoffs, service, expected = self.handoffs, self.SERVICE_NS, 0
        while True:
            serial, put_at = yield store.get()
            if serial != expected:
                self.misordered += 1
            handoffs.append((put_at, env.now))
            steps[0] += 1
            yield env.timeout(service)
            expected += 1

    def _callback(self):
        self.callbacks[0] += 1
        self.env.schedule_callback(self.CALLBACK_PERIOD_NS, self._callback)

    def prepare(self, index: int):
        return None      # the inputs are the seeded tables built at set-up

    def execute(self, inputs) -> dict:
        env = self.env
        before = (self.steps[0], self.callbacks[0], len(self.handoffs),
                  self.misordered, env._seq, env.now)
        steps, callbacks = self.steps, self.callbacks
        done = steps[0] + callbacks[0]
        started, marks = perf_counter(), []
        for _ in range(self.CHUNKS):
            env.run(until=env.now + self.chunk_ns)
            marks.append((perf_counter(), steps[0] + callbacks[0] - done))
        return {"before": before, "started": started, "marks": marks}

    def summarize(self, raw: dict) -> Slice:
        steps, callbacks, handoff_from, misordered, seq, start = raw["before"]
        env = self.env
        handoffs = self.handoffs[handoff_from:]
        fired = self.callbacks[0] - callbacks
        problems = []
        if fired != self.horizon_ns // self.CALLBACK_PERIOD_NS:
            problems.append(f"callback chain fired {fired} times in "
                            f"{self.horizon_ns} ns")
        ops = self.steps[0] - steps + fired
        return Slice(ops=ops, failed=self.misordered - misordered,
                     latencies=[got - put for put, got in handoffs],
                     sim_ns=env.now - start, events=env._seq - seq,
                     digest=log_digest((ops, handoffs)), problems=problems,
                     tick_rates=tick_rates(raw["started"], raw["marks"]))

    def counters(self) -> dict:
        return {}

    def problems(self) -> list:
        return []


class RackYcsb(ClusterWorkload):
    """Zipfian 95/5 KV accesses over an 8-board, 2-ToR sharded rack.

    The health monitor and membership sweep are live, every op resolves
    its lease through the controller first, and nothing else happens: no
    membership event, so any migration is a failure.  Client ``c`` owns
    value slot ``c`` of every 64-slot row and checks what it reads there
    against what it wrote.
    """

    name = "rack_ycsb"
    CNS = 4
    clients = 64
    OPS_PER_CLIENT = 140
    BOARDS, TORS = 8, 2
    REGIONS = 16
    REGION = 64 * KB
    THETA = 0.99
    WRITE_SHARE = 0.05
    PID = 9201

    def __init__(self, seed: int, scale: float, tracing: bool = False,
                 partitioned: bool = False):
        from repro.cluster import ClioCluster
        from repro.params import ClioParams
        from repro.rack import RackConfig
        super().__init__(ClioCluster(
            params=ClioParams.prototype(), seed=seed, num_cns=self.CNS,
            rack=RackConfig(boards=self.BOARDS, tors=self.TORS),
            page_size=self.REGION, mn_capacity=4 * MB,
            partitioned=partitioned))
        self.seed = seed
        self.ops_per_client = scaled(self.OPS_PER_CLIENT, scale)
        self.cluster.rack.start()
        self.controller = self.cluster.rack.controller
        self.threads = [{board.name: self.cluster.cn(cn)
                         .process(board.name, pid=self.PID).thread()
                         for board in self.cluster.mns}
                        for cn in range(self.CNS)]
        self.region_ids = []
        self._setup(self._allocate(), tracing)
        self.cdf = zipf_cdf(self.REGIONS, self.THETA)
        self.rows = self.REGION // 64 // self.clients
        self.shadows = [{} for _ in range(self.clients)]

    def _allocate(self):
        for _ in range(self.REGIONS):
            lease = yield from self.controller.allocate(self.PID, self.REGION)
            self.region_ids.append(lease.region_id)
            yield from self.threads[0][lease.mn].rwrite(lease.va, ZERO64)

    def prepare(self, index: int) -> list:
        rng = slice_rng(self.seed, index, "rack")
        per_client = []
        for client in range(self.clients):
            ops = []
            for _ in range(self.ops_per_client):
                region = zipf_draw(rng, self.cdf)
                row = rng.randrange(self.rows)
                value = (rng.getrandbits(64).to_bytes(8, "little") * 8
                         if rng.random() < self.WRITE_SHARE else None)
                ops.append((region, (row * self.clients + client) * 64,
                            value))
            per_client.append(ops)
        return per_client

    def _client(self, client: int, ops):
        env, log, lookup = self.env, self.log, self.controller.lookup
        threads = self.threads[client % self.CNS]
        region_ids, shadow = self.region_ids, self.shadows[client]
        for region, offset, value in ops:
            start = env.now
            try:
                lease = lookup(region_ids[region])
                thread = threads[lease.mn]
                if value is not None:
                    yield from thread.rwrite(lease.va + offset, value)
                    shadow[region, offset] = value
                else:
                    data = yield from thread.rread(lease.va + offset, 64)
                    if data != shadow.get((region, offset), ZERO64):
                        self.failed += 1
            except self.op_errors:
                self.failed += 1
            log.append((client, start, env.now, perf_counter()))

    def problems(self) -> list:
        found = super().problems()
        migrations = self.cluster.metrics.snapshot()["rack.migrations"]
        if migrations:
            found.append(f"{migrations} migrations with no membership event")
        return found


class AllocChurn:
    """``run_churn("small-large-mix")``: the metadata (ARM slow) path.

    One slice is one ``run_churn`` call on its own fresh cluster; an op
    is one allocation event (ralloc, first touch of every page, and the
    later rfree) and its latency is the report's allocation latency.
    ``run_churn`` cannot be looked into, so a slice is a single tick.
    """

    name = "alloc_churn"
    OPS = 1_800
    SCENARIO = "small-large-mix"

    tracer = None

    def __init__(self, seed: int, scale: float, tracing: bool = False):
        from repro.workloads.churn import run_churn
        self.run_churn = run_churn
        self.seed = seed
        self.ops = scaled(self.OPS, scale)
        self.totals = dict.fromkeys(
            ("slow_crossings", "va_retries", "page_faults",
             "slowpath_allocs", "slowpath_frees"), 0)
        self.fragmentation = 0.0

    def prepare(self, index: int) -> int:
        return self.seed * 1_000 + index      # the slice's scenario seed

    def execute(self, inputs) -> dict:
        started = perf_counter()
        report = self.run_churn(self.SCENARIO, ops=self.ops, seed=inputs)
        return {"report": report, "started": started,
                "ended": perf_counter()}

    def summarize(self, raw: dict) -> Slice:
        report = raw["report"]
        totals = self.totals
        totals["slow_crossings"] += report.slow_crossings
        totals["va_retries"] += report.retries_total
        totals["slowpath_allocs"] += report.ops_ok
        totals["slowpath_frees"] += report.frees
        # Every page of a new allocation is first-touched exactly once.
        totals["page_faults"] += sum(record[3] for record in report.oplog
                                     if record[2] != "fail")
        self.fragmentation = max(self.fragmentation,
                                 report.fragmentation_peak)
        problems = [f"invariant violated: {violation}"
                    for violation in report.violations]
        if report.frees != report.ops_ok:
            problems.append(f"{report.ops_ok} allocations, "
                            f"{report.frees} frees")
        return Slice(ops=report.ops_attempted, failed=report.ops_failed,
                     latencies=list(report.alloc_latencies_ns),
                     sim_ns=report.now_ns, events=report.events,
                     digest=report.fingerprint(), problems=problems,
                     tick_rates=tick_rates(raw["started"], [
                         (raw["ended"], report.ops_attempted)]))

    def counters(self) -> dict:
        return {**self.totals, "fragmentation": self.fragmentation}

    def problems(self) -> list:
        return []


WORKLOADS = {cls.name: cls for cls in (
    EchoRead64, EchoRead64Traced, MixedRWContended, OnboardRead64,
    EngineStorm, RackYcsb, AllocChurn)}
