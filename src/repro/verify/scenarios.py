"""The scenario registry: workloads, scripts and the named points in
workload x layers x script that ``repro verify``, ``repro rack``, the
perf suite and the tests all run through :func:`run_scenario`.

Adding a scenario is adding a row to :data:`SCENARIOS` (and, to have
``repro verify`` run it, to a suite in :data:`SUITES`); see the
"Scenarios" section of ``docs/correctness.md``.

Pinned constants: every PID below feeds the page-table hash and every
RandomStream name seeds a draw order, so changing one moves fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace
from typing import Optional

from repro.alloc.pa_strategies import PA_STRATEGIES
from repro.clib.client import RemoteAccessError
from repro.faults.schedule import FaultSchedule
from repro.params import (MB, MS, US, CacheParams, ClioParams, QoSParams,
                          TenantConfig)
from repro.transport.clib_transport import RequestFailed
from repro.verify.harness import VerifyRunResult
from repro.verify.linearize import HistoryOp
from repro.verify.runner import (
    TYPED_FAILURES,
    Bar,
    Scenario,
    Script,
    Workload,
    crash_board,
    oplog_digest,
    p99,
    verify_params,
)

# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class SyncWord(Workload):
    """Every CN hammers the one shared atomic word with a seeded mix of
    faa/cas/tas/store; the word's history goes to the linearizer."""

    ops: int
    rng_name = "verify/sync"

    def client(self, ctx, index: int):
        from repro.core.sync import AtomicOp
        thread = ctx.sync_threads[index]
        crng = ctx.rng.fork(f"client{index}")
        for _ in range(self.ops):
            roll = crng.uniform()
            if roll < 0.40:
                op = AtomicOp(kind="faa", value=crng.uniform_int(1, 3))
            elif roll < 0.65:
                op = AtomicOp(kind="cas", expected=crng.uniform_int(0, 3),
                              value=crng.uniform_int(0, 3))
            elif roll < 0.85:
                op = AtomicOp(kind="tas")
            else:
                op = AtomicOp(kind="store", value=crng.uniform_int(0, 3))
            try:
                yield from thread._atomic(ctx.word_va, op)
            except TYPED_FAILURES:
                pass
            yield ctx.env.timeout(crng.uniform_int(50, 800))


@dataclass(frozen=True)
class KvMix(Workload):
    """Clio-KV get/put under a YCSB-A-style 50/50 mix.

    Values are fixed-width so every post-load put is an in-place update:
    Clio-KV's growing-update path (unlink old, link new) is only
    read-committed, while in-place updates are single-write atomic and
    the whole workload is linearizable.  The workload records the history
    itself (KV ops ride OFFLOAD packets, which the CLib data hooks do
    not see): a failed put is kept as indeterminate — a crash may have
    eaten the response after the mutation applied — and a failed get is
    dropped (reads have no effect).
    """

    ops: int
    rng_name = "verify/kv"
    PID_BASE = 8801
    KEYS = tuple(f"key{k:02d}".encode() for k in range(6))

    @staticmethod
    def _value(client: int, sequence: int) -> bytes:
        return (client * 1_000_000 + sequence).to_bytes(8, "little")

    def setup(self, ctx):
        from repro.apps.kv_store import ClioKV, register_kv_offload
        register_kv_offload(ctx.cluster.mn.extend_path)
        ctx.kvs = [ClioKV(node.process("mn0", pid=self.PID_BASE + i).thread())
                   for i, node in enumerate(ctx.cluster.cns)]
        # Single-client load phase: every key exists before contention.
        for k, key in enumerate(self.KEYS):
            start = ctx.env.now
            yield from ctx.kvs[0].put(key, self._value(0, k))
            ctx.history.append(HistoryOp(
                client="load", action=("put", key, self._value(0, k)),
                result="ok", start_ns=start, end_ns=ctx.env.now))

    def client(self, ctx, index: int):
        env, kv = ctx.env, ctx.kvs[index]
        crng = ctx.rng.fork(f"kv{index}")

        def log(action, **outcome):
            ctx.history.append(HistoryOp(client=f"cn{index}", action=action,
                                         start_ns=start, **outcome))

        for op_index in range(self.ops):
            key = self.KEYS[crng.uniform_int(0, len(self.KEYS) - 1)]
            start = env.now
            if crng.uniform() < 0.5:
                try:
                    value = yield from kv.get(key)
                except TYPED_FAILURES:
                    continue     # reads have no effect: drop
                log(("get", key), result=value, end_ns=env.now)
            else:
                action = ("put", key, self._value(index + 1, op_index))
                try:
                    yield from kv.put(key, action[2])
                except TYPED_FAILURES:
                    log(action, completed=False)
                    continue
                log(action, result="ok", end_ns=env.now)
            yield env.timeout(crng.uniform_int(100, 2000))


#: Key-space shape shared by the raw-rread/rwrite YCSB workloads.
YCSB_KEYS = 64
YCSB_VALUE = 64


def _ycsb_a(ctx, index: int, ops: int):
    """``(serial, is_set, key offset, payload)`` per YCSB-A operation."""
    from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload
    workload = YCSBWorkload(YCSB_WORKLOADS["A"],
                            ctx.rng.fork(f"client{index}"),
                            num_keys=YCSB_KEYS, value_size=YCSB_VALUE)
    for serial, op in enumerate(workload.operations(ops)):
        yield (serial, op[0] == "set", int(op[1][4:]) * YCSB_VALUE,
               op[2] if op[0] == "set" else None)


@dataclass(frozen=True)
class BatchedYcsb(Workload):
    """YCSB-A over raw async rread/rwrite with per-thread batching on.

    Every client opts into the adaptive batcher, so the 50/50 get/set
    mix rides multi-op frames; the shared word is bumped between
    batches.  Clients use byte-granular ordering so independent keys in
    one 4 MB page actually coalesce instead of serializing on false
    conflicts.
    """

    ops: int
    rng_name = "verify/batched-ycsb"
    PID_BASE = 9901
    MAX_OPS = 8
    WINDOW_NS = 400

    def setup(self, ctx):
        ctx.threads = [
            node.process("mn0", pid=self.PID_BASE + i)
            .thread(ordering_granularity="byte")
            for i, node in enumerate(ctx.cluster.cns)]
        ctx.regions = []
        for thread in ctx.threads:
            va = yield from thread.ralloc(YCSB_KEYS * YCSB_VALUE)
            ctx.regions.append(va)

    def client(self, ctx, index: int):
        thread, region = ctx.threads[index], ctx.regions[index]
        thread.enable_batching(max_ops=self.MAX_OPS, window_ns=self.WINDOW_NS)
        inflight = []
        for serial, is_set, offset, payload in _ycsb_a(ctx, index, self.ops):
            if is_set:
                handle = yield from thread.rwrite_async(region + offset,
                                                        payload)
            else:
                handle = yield from thread.rread_async(region + offset,
                                                       YCSB_VALUE)
            inflight.append(handle)
            if len(inflight) >= 2 * self.MAX_OPS:
                completions = yield from thread.rpoll(inflight)
                inflight = []
                for completion in completions:
                    completion.result   # no faults here: all must land
            if serial % 8 == 7:
                yield from ctx.bump_word(index)
        thread._flush_batches()
        completions = yield from thread.rpoll(inflight)
        for completion in completions:
            completion.result

    def summarize(self, ctx):
        batchers = [thread._batcher for thread in ctx.threads]
        return {}, [f"batched {sum(b.subops_batched for b in batchers)} "
                    f"sub-ops into {sum(b.frames_issued for b in batchers)} "
                    "frames"]


@dataclass(frozen=True)
class SharedYcsb(Workload):
    """YCSB-A over ONE shared region: every client maps the same PID and
    the same key range, so with the caching layer on the zipf-hot keys
    ping-pong between CN caches — fills, recalls, downgrades, evictions
    all fire while the oracle audits every byte.

    On a multi-board cluster the region is placed by the controller and
    clients re-resolve the lease before every op, so it can migrate
    under them (the :data:`MIGRATE` script).
    """

    ops: int
    rng_name = "verify/cached-ycsb"
    PID = 9601

    def setup(self, ctx):
        ctx.threads = _threads_per_board(ctx, self.PID)
        size = YCSB_KEYS * YCSB_VALUE
        if ctx.controller is None:
            va = yield from ctx.threads[0]["mn0"].ralloc(size)
            ctx.lease = SimpleNamespace(mn="mn0", va=va)
        else:
            ctx.lease = yield from ctx.controller.allocate(self.PID, size)

    def client(self, ctx, index: int):
        env, lease = ctx.env, ctx.lease
        for serial, is_set, offset, payload in _ycsb_a(ctx, index, self.ops):
            thread = ctx.threads[index][lease.mn]
            start, ok = env.now, True
            try:
                if is_set:
                    yield from thread.rwrite(lease.va + offset, payload)
                else:
                    yield from thread.rread(lease.va + offset, YCSB_VALUE)
            except TYPED_FAILURES:
                ok = False
                ctx.tolerated += 1
            ctx.op_log.append((index, serial, is_set, ok, start, env.now))
            if serial % 8 == 7 and not (yield from ctx.bump_word(index)):
                ctx.tolerated += 1
            yield env.timeout(100 + 37 * index)


def _threads_per_board(ctx, pid: int) -> list[dict]:
    """One data thread per (CN, board), spares included: clients pick
    the thread bound to a region's current home, so regions can migrate
    under them."""
    return [{board.name: node.process(board.name, pid=pid).thread()
             for board in ctx.cluster.mns} for node in ctx.cluster.cns]


@dataclass(frozen=True)
class RackYcsb(Workload):
    """Zipfian YCSB against a sharded rack.

    ``clients`` generator processes spread over the CNs hammer
    ``regions`` regions (zipf-hot, so traffic concentrates) that the
    rack tier placed via the shard ring, re-resolving the lease before
    every attempt.  Per-op latencies are logged so the tail before and
    after a membership script can be compared, and the fingerprint
    digests the full op log.
    """

    num_clients: int
    ops: int
    regions: int
    rng_name = "verify/rack"
    PID = 7401
    PAGE = 64 * 1024
    THETA = 0.99
    #: Membership scripts fire this long after setup ends.
    EVENT_AT = 300 * US

    def setup(self, ctx):
        from repro.workloads.zipf import ZipfTable
        ctx.ztable = ZipfTable(self.regions, self.THETA)
        ctx.threads = _threads_per_board(ctx, self.PID)
        ctx.region_ids = []
        for _ in range(self.regions):
            lease = yield from ctx.controller.allocate(self.PID, self.PAGE)
            ctx.region_ids.append(lease.region_id)

    def clients(self, ctx):
        return [self.client(ctx, i) for i in range(self.num_clients)]

    def client(self, ctx, index: int):
        from repro.distributed.controller import LeaseLost
        from repro.workloads.zipf import zipfian_keys
        env, controller = ctx.env, ctx.controller
        crng = ctx.rng.fork(f"rack{index}")
        cn_index = index % len(ctx.threads)
        keys = zipfian_keys(crng, self.regions, self.THETA, table=ctx.ztable)
        slots = self.PAGE // YCSB_VALUE
        # Staggered starts spread arrivals over ~2x the membership-event
        # time at any client count, so traffic straddles the event
        # instead of bursting at t=0 and finishing before anything
        # happens.
        stagger_ns = max(200, 600_000 // self.num_clients)
        # Sync-word cadence: every 16th op at scale, but never less than
        # one atomic per client, so the history is never empty.
        sync_every = min(16, self.ops)
        yield env.timeout(stagger_ns * index
                          + crng.uniform_int(0, stagger_ns - 1))
        for serial in range(self.ops):
            region_id = ctx.region_ids[next(keys)]
            slot = crng.uniform_int(0, slots - 1)
            kind = "set" if crng.uniform() < 0.5 else "get"
            payload = ((index << 20) | serial).to_bytes(
                YCSB_VALUE, "little") if kind == "set" else None
            start = env.now
            ok = False
            for attempt in range(8):
                try:
                    lease = controller.lookup(region_id)
                except LeaseLost:
                    # Board believed dead: back off, then refresh.
                    yield env.timeout(30 * US + attempt * 20 * US)
                    continue
                thread = ctx.threads[cn_index][lease.mn]
                va = lease.va + slot * YCSB_VALUE
                try:
                    if kind == "set":
                        yield from thread.rwrite(va, payload)
                    else:
                        yield from thread.rread(va, YCSB_VALUE)
                    ok = True
                    break
                except TYPED_FAILURES:
                    # Stale lease, fenced write, or dark board: refresh
                    # the lease and retry.
                    yield env.timeout(10 * US + attempt * 10 * US)
            # (client, serial, kind, ok, start_ns, end_ns) per attempt.
            ctx.op_log.append((index, serial, kind, ok, start, env.now))
            if not ok:
                ctx.tolerated += 1
            if serial % sync_every == sync_every - 1:
                yield from ctx.bump_word(cn_index)
            yield env.timeout(crng.uniform_int(200, 2_000))

    def summarize(self, ctx):
        controller, tier = ctx.controller, ctx.cluster.rack
        log = ctx.op_log
        # Latency split around the membership event, for recovery
        # checks: before it fired vs after it settled (steady state: both
        # the nominal event time, so pre/post still split the run).
        event_at = ctx.start_ns + self.EVENT_AT
        event_done = getattr(ctx, "event_done_ns", event_at)
        pre = p99([end - start for _, _, _, ok, start, end in log
                   if ok and end <= event_at])
        post = p99([end - start for _, _, _, ok, start, end in log
                    if ok and start >= event_done])
        extras = {
            "ops_attempted": len(log),
            "ops_ok": sum(1 for r in log if r[3]),
            "pre_p99_ns": pre,
            "post_p99_ns": post,
            "recovery_ratio": post / pre if pre else 0.0,
            # First op start -> last op end: the span of the traffic.
            "span_ns": (max(r[5] for r in log) - min(r[4] for r in log)
                        if log else 0),
            "event_at_ns": event_at,
            "event_done_ns": event_done,
            "migrations": controller.migrations,
            "aborted_migrations": controller.aborted_migrations,
            "evictions": tier.evictions,
            "epoch": tier.epoch,
            "placement": tuple(sorted(
                (region_id, lease.mn)
                for region_id, lease in controller._leases.items())),
        }
        return extras, [
            f"{extras['ops_ok']}/{extras['ops_attempted']} ops ok, "
            f"p99 {pre}ns pre / {post}ns post event"]


@dataclass(frozen=True)
class NoisyNeighbor(Workload):
    """One victim tenant (cn0) issues 64-byte reads against mn0 while an
    aggressor tenant (cn1..cnN) floods the same board with page-strided
    pipelined writes — each aggressor keeps ``2 * PAGES`` async writes
    in flight across distinct pages, so the dependency tracker never
    serializes them and the incast actually builds a standing queue on
    mn0's downlink.  The victim's read p99 is measured alone (phase A)
    and under fire (phase B); with the QoS layer on, per-tenant GCRA
    shaping holds the inflation, without it the burst parks on the
    shared egress serializer.  The fingerprint digests the victim's
    latencies plus per-aggressor issue counts.
    """

    PID = 9901
    AGGRESSORS = 4
    PAGES = 8                 # per aggressor
    VICTIM_OPS = 400          # per phase
    WRITE_BYTES = 2048
    VICTIM_SHARE = 0.7

    def setup(self, ctx):
        threads = [node.process("mn0", pid=self.PID).thread()
                   for node in ctx.cluster.cns]
        ctx.victim, ctx.aggressors = threads[0], threads[1:]
        ctx.base_lat, ctx.noisy_lat = [], []
        ctx.issued = [0] * len(ctx.aggressors)
        ctx.baseline_done = ctx.victim_done = False
        ctx.armed = 0
        page = ctx.page = ctx.cluster.mn.page_spec.page_size
        # Prime every page both tenants touch, so phase latencies are
        # fault-free (first-touch faults would dominate the percentiles).
        ctx.victim_va = yield from ctx.victim.ralloc(page)
        yield from ctx.victim.rwrite(ctx.victim_va, b"\0" * 64)
        ctx.aggressor_vas = []
        for thread in ctx.aggressors:
            va = yield from thread.ralloc(self.PAGES * page)
            for offset in range(0, self.PAGES * page, page):
                yield from thread.rwrite(va + offset, b"\0" * 64)
            ctx.aggressor_vas.append(va)

    def client(self, ctx, index: int):
        return self._aggressor(ctx, index - 1) if index else self._victim(ctx)

    def _victim(self, ctx):
        def reads(latencies):
            for _ in range(self.VICTIM_OPS):
                start = ctx.env.now
                yield from ctx.victim.rread(ctx.victim_va, 64)
                latencies.append(ctx.env.now - start)

        try:
            yield from reads(ctx.base_lat)
            ctx.baseline_done = True
            while ctx.armed < len(ctx.aggressors):
                yield ctx.env.timeout(1_000)
            yield from reads(ctx.noisy_lat)
        finally:
            ctx.victim_done = True

    def _aggressor(self, ctx, index: int):
        thread, va = ctx.aggressors[index], ctx.aggressor_vas[index]
        payload = b"\xa5" * self.WRITE_BYTES
        window: list = []
        while not ctx.baseline_done:
            yield ctx.env.timeout(1_000)
        ctx.armed += 1
        serial = 0
        while not ctx.victim_done:
            offset = (serial % self.PAGES) * ctx.page
            handle = yield from thread.rwrite_async(va + offset, payload)
            window.append(handle)
            serial += 1
            ctx.issued[index] = serial
            if len(window) >= 2 * self.PAGES:
                yield from thread.rpoll([window.pop(0)])
        if window:
            yield from thread.rpoll(window)

    def summarize(self, ctx):
        ctx.history = ctx.base_lat + ctx.noisy_lat
        base, noisy = p99(ctx.base_lat), p99(ctx.noisy_lat)
        inflation = (noisy / base) if base else 0.0
        shapers = {node: shaper.metrics.snapshot()
                   for node, shaper in ctx.cluster.qos_shapers.items()}
        extras = {
            "fingerprint": oplog_digest(
                [b"b%d" % lat for lat in ctx.base_lat]
                + [b"n%d" % lat for lat in ctx.noisy_lat]
                + [b"a%d" % count for count in ctx.issued]),
            "victim_base_p99_ns": base,
            "victim_noisy_p99_ns": noisy,
            "victim_p99_inflation": round(inflation, 3),
            "aggressor_ops": sum(ctx.issued),
            "shaping": bool(shapers),
            "shapers": shapers,
        }
        notes = [f"victim p99 {base}ns alone -> {noisy}ns under fire "
                 f"({inflation:.2f}x, shaping {'on' if shapers else 'off'}); "
                 f"{sum(ctx.issued)} aggressor writes"]
        if shapers:
            shaped = sum(snapshot["tenant.aggressor.shaped"]
                         for snapshot in shapers.values())
            notes.append(f"{shaped} aggressor packets shaped at the switch")
        return extras, notes


@dataclass(frozen=True)
class AllocChurn(Workload):
    """One fragmentation/churn mix with the full checking stack on.

    :func:`repro.workloads.churn.run_churn` owns this workload's cluster
    and loop (``benchmarks/e2e`` times it directly, so it stays as it
    is); this class only folds its report into a result.  Every
    alloc/free triggers a complete board invariant sweep and the
    fingerprint digests the allocation history.
    """

    mix: str
    strategy: str
    va_policy: str
    ops: Optional[int]

    def run_external(self, scenario, seed: int) -> VerifyRunResult:
        from repro.workloads.churn import run_churn
        report = run_churn(self.mix, pa_strategy=self.strategy,
                           va_policy=self.va_policy, seed=seed, ops=self.ops,
                           verify=scenario.verify)
        extras = dict(report.summary())
        extras["sim_now_ns"] = report.now_ns
        extras["events"] = report.events
        notes = [
            f"{report.ops_ok}/{report.ops_attempted} allocs ok, "
            f"{report.frees} frees, {report.retries_total} VA retries, "
            f"{report.slow_crossings} slow-path crossings, frag "
            f"{report.fragmentation:.3f} (peak {report.fragmentation_peak:.3f})"]
        return VerifyRunResult(
            name=scenario.name, lin=None,
            history_len=report.ops_attempted + report.frees,
            violations=list(report.violations),
            report=report.verification or {}, notes=notes, extras=extras)


@dataclass(frozen=True)
class ChaosMix(Workload):
    """YCSB-A-style mix: each worker does ``ops`` 64-byte reads/writes at
    seeded offsets in its own region, tolerating typed failures and
    logging every op as ``(worker, index, op, start, end, status)``.

    With the caching layer on — and so coherence traffic actually
    crosses CNs — the workload flips from per-worker regions to ONE
    shared region (worker 0 allocates, everyone hammers it under the same
    PID).  The faults then land while lines are cached (and dirty, under
    write-back): recalls race crashes, invalidations ride flapping links.
    """

    schedule: str
    ops: int
    region_bytes: int
    rng_name = "faults/chaos"
    #: PID base for chaos workers; far from anything the global counter
    #: issues.
    PID_BASE = 9001
    IO_BYTES = 64

    def clients(self, ctx):
        ctx.region_ready = ctx.env.event()
        return super().clients(ctx)

    def client(self, ctx, index: int):
        env, io_bytes = ctx.env, self.IO_BYTES
        shared = ctx.cluster.cache_dir is not None
        thread = ctx.cluster.cn(index).process(
            "mn0", pid=self.PID_BASE + (0 if shared else index)).thread()
        wrng = ctx.rng.fork(f"worker{index}")
        if shared and index > 0:
            yield ctx.region_ready
            va = ctx.shared_va
        else:
            va = yield from thread.ralloc(self.region_bytes)
            if shared:
                ctx.shared_va = va
                ctx.region_ready.succeed()
        payload = bytes((index + 1,)) * io_bytes
        span = self.region_bytes - io_bytes
        for op_index in range(self.ops):
            offset = (wrng.uniform_int(0, span // io_bytes)) * io_bytes
            is_read = wrng.uniform() < 0.5
            started = env.now
            status = "ok"
            try:
                if is_read:
                    yield from thread.rread(va + offset, io_bytes)
                else:
                    yield from thread.rwrite(va + offset, payload)
            except RequestFailed:
                status = "request_failed"
            except RemoteAccessError:
                status = "remote_error"
            ctx.op_log.append((index, op_index, "read" if is_read else "write",
                               started, env.now, status))

    def summarize(self, ctx):
        ops = tuple(sorted(ctx.op_log))
        ctx.history = ops   # the verify table counts the ops
        cns = {node.name: {
            "requests_issued": node.transport.requests_issued,
            "requests_completed": node.transport.requests_completed,
            "requests_failed": node.transport.requests_failed,
            "total_retries": node.transport.total_retries,
        } for node in ctx.cluster.cns}
        window = next((script.window for script in ctx.scenario.scripts
                       if script.window is not None), None)
        return {
            "finished": ctx.finished, "ops": ops, "cns": cns,
            "boards": {board.name: board.metrics.snapshot()
                       for board in ctx.cluster.mns},
            "recovery": _recovery(ops, window),
            # Must be bit-identical for the same seed, with verification
            # on or off.
            "fingerprint": (
                self.schedule, ctx.seed, ctx.finished, ctx.env.now, ops,
                ctx.faults, tuple(sorted((name, tuple(sorted(c.items())))
                                         for name, c in cns.items()))),
        }, []


def _recovery(ops, window, settle_ns: int = 100 * US) -> Optional[dict]:
    """Ops/s before the crash vs after the restart (+ a settle margin).

    ``None`` without a single crash ``window`` or when either phase saw
    no completed op.
    """
    if window is None:
        return None
    crash_ns, restart_ns = window
    done = [(start, end) for _, _, _, start, end, status in ops
            if status == "ok"]
    phases = ([(start, end) for start, end in done if end < crash_ns],
              [(start, end) for start, end in done
               if start >= restart_ns + settle_ns])
    rates = []
    for phase in phases:
        if not phase:
            return None
        span = max(end for _, end in phase) - min(start for start, _ in phase)
        if span <= 0:
            return None
        rates.append(len(phase) * 1_000_000_000 / span)
    return {"pre_ops": len(phases[0]), "post_ops": len(phases[1]),
            "pre_ops_per_sec": rates[0], "post_ops_per_sec": rates[1],
            "recovery_ratio": rates[1] / rates[0]}


# -- scripts ---------------------------------------------------------------------

#: The two board-crash windows: early and short for the ~25 us-per-op
#: atomic workload, later and longer for the data workloads.  Both are
#: long enough that every attempt of an op in flight at the crash expires
#: against the dark port (20/40/80/160 us backoff), so no acknowledged op
#: can be a silent pre-crash double-execution.
CRASH_SYNC = crash_board(60 * US, 200 * US)
CRASH = crash_board(150 * US, 500 * US)


def _migrate(ctx):
    """Move the shared region to the other board at ~1.5 ms: with
    caching on, the directory freeze must recall every cached line
    (flushing dirty data to the *source*) before the copy."""
    yield ctx.env.timeout(1_500 * US)
    target = "mn1" if ctx.lease.mn == "mn0" else "mn0"
    yield from ctx.controller._migrate(ctx.lease, target)
    if ctx.controller.migrations:
        ctx.notes.append(f"region migrated to {ctx.lease.mn} at ~1.5ms "
                         "mid-run")


MIGRATE = Script("migrate", driver=_migrate)


# Rack membership scripts.  Every event targets mn1 (never mn0, which
# hosts the linearizer word, so its history has a single stable home).


def _drain(ctx):
    yield from ctx.cluster.rack.drain_board("mn1")
    ctx.notes.append(f"drained mn1 at {ctx.event_at_ns}ns "
                     f"({ctx.controller.migrations} migrations)")


def _add(ctx):
    spare = ctx.cluster.rack.spare(0)
    moved = yield from ctx.cluster.rack.add_board(spare)
    ctx.notes.append(f"added {spare.name} at {ctx.event_at_ns}ns, "
                     f"rebalanced {moved}")


def _crash_mid_migration(ctx):
    from repro.rack import DrainError
    env, cluster, controller = ctx.env, ctx.cluster, ctx.controller
    tier = cluster.rack

    def doomed_drain():
        # This drain is *expected* to fail: the board dies under it,
        # its in-flight copies abort, and regions remain.
        try:
            yield from tier.drain_board("mn1")
        except DrainError:
            pass

    drain_proc = env.process(doomed_drain())
    yield env.timeout(30 * US)   # let the first copies start
    cluster.board("mn1").crash()
    yield env.timeout(300 * US)
    cluster.board("mn1").restart()
    yield drain_proc
    # Health must re-trust the board before the retry can read it.
    while not cluster.health.is_alive("mn1"):
        yield env.timeout(50 * US)
    if "mn1" in controller._boards and controller.regions_on("mn1"):
        yield from tier.drain_board("mn1")
    ctx.notes.append(f"mn1 crashed mid-drain ({controller.aborted_migrations}"
                     " aborted), drain completed after restart")


def _evict(ctx):
    ctx.cluster.board("mn1").crash()
    ctx.notes.append(f"mn1 crashed at {ctx.event_at_ns}ns, never restarted "
                     "(lease-expiry eviction)")
    # Recovery point = the sweep's eviction, not the crash.
    while ctx.cluster.rack.evictions == 0:
        yield ctx.env.timeout(50 * US)


def _membership(name: str, body) -> Script:
    def driver(ctx):
        yield ctx.env.timeout(RackYcsb.EVENT_AT)
        ctx.event_at_ns = ctx.env.now
        yield from body(ctx)
        ctx.event_done_ns = ctx.env.now
    return Script(name, driver=driver)


#: * ``drain`` — a board drains under traffic (batched rate-limited live
#:   migrations; its write-fenced regions briefly reject writes);
#: * ``add`` — a spare joins and the rebalancer pulls arcs over;
#: * ``crash-mid-migration`` — the board crashes while its own drain is
#:   copying regions out, the in-flight migrations abort and roll back,
#:   and the drain is retried after the board recovers;
#: * ``evict`` — the board crashes for good; after its lease expires the
#:   membership sweep re-shards its regions zero-filled.
RACK_SCRIPTS = {
    "drain": _membership("drain", _drain),
    "add": _membership("add", _add),
    "crash-mid-migration": _membership("crash-mid-migration",
                                       _crash_mid_migration),
    "evict": _membership("evict", _evict),
}
RACK_SCENARIOS = tuple(RACK_SCRIPTS)
ALLOC_STRATEGIES = tuple(PA_STRATEGIES)

#: The chaos mix's fault scripts, times relative to the clients' start.
CHAOS_SCRIPTS = {
    "board-crash": crash_board(1 * MS, 1_500 * US),
    "link-flap": Script("link-flap", faults=lambda seed: (
        FaultSchedule()
        .link_down(1 * MS, "cn1", duration_ns=1 * MS)
        .link_down(3 * MS, "cn1", duration_ns=500 * US))),
    "slowpath-stall": Script("slowpath-stall", faults=lambda seed: (
        FaultSchedule().stall_slowpath(500 * US, "mn0", 300 * US))),
    "loss-burst": Script("loss-burst", faults=lambda seed: (
        FaultSchedule()
        .loss_burst(1 * MS, "cn0", 1 * MS, rate=0.3)
        .corruption_burst(2 * MS, "cn1", 500 * US, rate=0.2))),
    "random": Script("random", faults=lambda seed: FaultSchedule.random(
        seed, duration_ns=4 * MS, boards=["mn0"], nodes=["cn0", "cn1"])),
}

# -- bars (each typed here, once) --------------------------------------------------

RACK_RECOVERY = Bar("recovery_ratio", "<=", 1.5,
                    "post-event p99 must recover toward the pre-event p99")
QOS_SHAPED = Bar("victim_p99_inflation", "<=", 1.5,
                 "shaping must hold the victim's p99 inflation")
QOS_UNSHAPED = Bar("victim_p99_inflation", ">=", 2.0,
                   "unshaped, the aggressors must congest the shared "
                   "egress or the scenario exerts no pressure")

# -- the registry ------------------------------------------------------------------


def _tags(*tags) -> str:
    tags = [tag for tag in tags if tag]
    return f"[{'+'.join(tags)}]" if tags else ""


def sync_word(clients: int = 3, ops: int = 30, crash: bool = False):
    return Scenario(
        "sync-unit", SyncWord(ops), target="word", deadline_ns=50 * MS,
        cluster=dict(num_cns=clients, mn_capacity=64 * MB),
        scripts=(CRASH_SYNC,) if crash else ())


def clio_kv(ops: int = 30, crash: bool = False):
    return Scenario(
        "clio-kv", KvMix(ops), target="kv",
        cluster=dict(num_cns=2, mn_capacity=128 * MB),
        scripts=(CRASH,) if crash else ())


def batched_ycsb(clients: int = 2, ops: int = 80):
    return Scenario(
        "batched-ycsb-a", BatchedYcsb(ops), target="word",
        cluster=dict(num_cns=clients, mn_capacity=128 * MB))


#: One tenant per CN, equal shares: the QoS layer for two-CN scenarios.
_PER_CN_QOS = QoSParams(tenants=tuple(
    TenantConfig(name=f"t{i}", clients=(f"cn{i}",), share=0.5)
    for i in range(2)))


def cached_ycsb(ops: int = 80, policy: str = "through", crash: bool = False,
                migrate: bool = False, qos: bool = False):
    """Shared-region YCSB-A with the caching layer on (capacity well
    below the working set, so evictions fire)."""
    params = replace(verify_params(), cache=CacheParams(
        policy=policy, line_bytes=512, capacity_lines=8))
    if qos:
        params = replace(params, qos=_PER_CN_QOS)
    return Scenario(
        "cached-ycsb-a" + _tags(policy, qos and "qos", crash and "crash",
                                migrate and "migrate"),
        SharedYcsb(ops), target="word", params=params,
        layers=("caching", "qos") if qos else ("caching",),
        cluster=dict(num_cns=2, num_mns=2 if migrate else 1,
                     mn_capacity=128 * MB),
        scripts=((CRASH,) if crash else ()) + ((MIGRATE,) if migrate else ()))


def rack_ycsb(boards: int = 8, tors: int = 2, cns: int = 4,
              clients: int = 1024, ops: int = 4,
              script: Optional[str] = None):
    from repro.rack import RackConfig
    regions = 2 * boards
    return Scenario(
        "rack-ycsb" + _tags(script), RackYcsb(clients, ops, regions),
        target="word", deadline_ns=60 * MS,
        cluster=dict(num_cns=cns, page_size=RackYcsb.PAGE,
                     mn_capacity=2 * regions * RackYcsb.PAGE + 4 * MB,
                     rack=RackConfig(boards=boards, tors=tors,
                                     spares=1 if script == "add" else 0)),
        scripts=(RACK_SCRIPTS[script],) if script else (),
        bars=(RACK_RECOVERY,) if script else ())


def alloc_churn(mix: str = "small-large-mix", strategy: str = "freelist",
                va_policy: str = "first-fit", ops: Optional[int] = None,
                verify: bool = True):
    return Scenario(f"alloc-churn[{mix}/{strategy}/{va_policy}]",
                    AllocChurn(mix, strategy, va_policy, ops), verify=verify)


def qos_noisy_neighbor(shaping: bool = True):
    workload = NoisyNeighbor()
    share = workload.VICTIM_SHARE
    params = ClioParams.prototype()
    params = replace(params, qos=QoSParams(tenants=(
        TenantConfig(name="victim", clients=("cn0",), share=share),
        TenantConfig(name="aggressor", share=round(1.0 - share, 6),
                     clients=tuple(f"cn{i + 1}"
                                   for i in range(workload.AGGRESSORS))))))
    return Scenario(
        "qos-noisy-neighbor" + _tags("shaped" if shaping else "unshaped"),
        workload, params=params, deadline_ns=400 * MS,
        cluster=dict(num_cns=1 + workload.AGGRESSORS, mn_capacity=max(
            256 * MB, 2 * workload.AGGRESSORS * workload.PAGES
            * params.cboard.default_page_size)),
        layers=("qos",) if shaping else (),
        bars=(QOS_SHAPED if shaping else QOS_UNSHAPED,))


def chaos(schedule: str = "board-crash", ops: int = 1200,
          region_bytes: int = 4 * MB, verify: bool = True,
          cached: Optional[str] = None):
    """The chaos mix on two CNs under the named fault script.

    ``cached="through"`` / ``cached="back"`` opts every CN into the
    hot-page cache (and the workload into one shared region).
    """
    if schedule not in CHAOS_SCRIPTS:
        raise ValueError(f"unknown chaos schedule {schedule!r}; "
                         f"pick one of {sorted(CHAOS_SCRIPTS)}")
    params = verify_params()
    if cached is not None:
        params = replace(params, cache=CacheParams(policy=cached,
                                                   capacity_lines=64))
    return Scenario(
        f"chaos:{schedule}", ChaosMix(schedule, ops, region_bytes),
        cluster=dict(num_cns=2, mn_capacity=256 * MB), params=params,
        layers=("caching",) if cached is not None else (),
        scripts=(CHAOS_SCRIPTS[schedule],), deadline_ns=200 * MS,
        verify=verify)


#: name -> factory taking the sizes callers really vary.
SCENARIOS = {
    "sync": sync_word,
    "sync+crash": partial(sync_word, crash=True),
    "kv": clio_kv,
    "kv+crash": partial(clio_kv, crash=True),
    "batched": batched_ycsb,
    "cached-through": cached_ycsb,
    "cached-back": partial(cached_ycsb, policy="back"),
    "cached-back+crash": partial(cached_ycsb, policy="back", crash=True),
    "cached-back+migrate": partial(cached_ycsb, policy="back", migrate=True),
    "cached-back+qos+crash": partial(cached_ycsb, policy="back", qos=True,
                                     crash=True),
    "rack": rack_ycsb,
    **{f"rack+{name}": partial(rack_ycsb, script=name)
       for name in RACK_SCRIPTS},
    **{f"alloc-{name}": partial(alloc_churn, strategy=name)
       for name in ALLOC_STRATEGIES},
    "qos-shaped": qos_noisy_neighbor,
    "qos-unshaped": partial(qos_noisy_neighbor, shaping=False),
    "chaos": chaos,
}


def scenario(name: str, **sizes) -> Scenario:
    """Build the registered scenario ``name`` at the given sizes."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"pick one of {sorted(SCENARIOS)}")
    return SCENARIOS[name](**sizes)


def _crashed(name: str, crash: bool) -> str:
    return f"{name}+crash" if crash else name


#: ``repro verify SUITE...``: suite -> the rows it runs, given the CLI's
#: ``sizes`` (ops, clients, crash, chaos).  ``core`` and ``chaos``
#: always run; the others are opt-in.  Table order is row order.
SUITES = {
    "core": lambda sizes: [
        scenario(_crashed("sync", sizes.crash), clients=sizes.clients,
                 ops=sizes.ops),
        scenario(_crashed("kv", sizes.crash), ops=sizes.ops),
        scenario("batched", clients=sizes.clients, ops=sizes.ops)],
    "cache": lambda sizes: [
        scenario("cached-through", ops=sizes.ops),
        scenario(_crashed("cached-back", sizes.crash), ops=sizes.ops),
        scenario("cached-back+migrate", ops=sizes.ops)],
    "alloc": lambda sizes: [
        scenario(f"alloc-{name}", ops=sizes.ops * 2)
        for name in ALLOC_STRATEGIES],
    "rack": lambda sizes: [
        scenario(f"rack+{name}", clients=64, ops=sizes.ops)
        for name in ("drain", "crash-mid-migration")],
    "qos": lambda sizes: [scenario("qos-shaped"), scenario("qos-unshaped")],
    "chaos": lambda sizes: [
        scenario("chaos", schedule=sizes.chaos, ops=sizes.ops * 10)],
}
