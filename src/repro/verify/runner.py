"""One scenario runner: a declarative :class:`Scenario` and the single
loop that executes it.

The paper's evaluation is one testbed asked many questions.  A question
here is a *value*: cluster shape + enabled layers + workload + fault or
membership scripts + linearizer target + acceptance bars.  Every step of
answering it — build the cluster, attach the checkers, run the setup,
spawn the clients, arm the scripts, run to the deadline, check the
history, sweep the invariants, evaluate the bars — lives once, in
:func:`run_scenario`.  A workload supplies only what is genuinely its
own: a setup generator, its client generators and a ``summarize``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from hashlib import blake2b
from types import SimpleNamespace
from typing import Callable, Iterable, Optional

from repro.clib.client import RemoteAccessError
from repro.cluster import ClioCluster
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.params import MS, US, ClioParams
from repro.sim.rng import RandomStream
from repro.transport.clib_transport import RequestFailed
from repro.verify.harness import VerifyRunResult
from repro.verify.linearize import AtomicWordModel, KVModel, check_history

#: The typed failures a client tolerates under faults.
TYPED_FAILURES = (RequestFailed, RemoteAccessError)

#: Shared-word PID: with ``target="word"`` every CN opens a process with
#: this PID on mn0, so all clients address the same atomic word.
SYNC_PID = 7701


def verify_params() -> ClioParams:
    """Prototype params with failure timeouts shrunk to chaos scale.

    The default 100 ms backoff ceiling is right for production but makes
    a few-ms fault window spend its whole budget in one retry sleep; the
    cap stays (bounded retransmission), just smaller.
    """
    params = ClioParams.prototype()
    return replace(params, clib=replace(params.clib, timeout_ns=20 * US,
                                        slow_timeout_ns=1 * MS,
                                        max_retries=3))


def p99(samples: list[int]) -> int:
    """The sorted samples' entry at index ``floor(0.99 * n)``, clamped to
    the last (0 for no samples).  Not nearest-rank: at n = 100 this is
    the maximum, where nearest-rank gives the 99th value."""
    if not samples:
        return 0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, (len(ordered) * 99) // 100)]


def oplog_digest(records: Iterable) -> str:
    """blake2b-128 over an op log: ``bytes`` records verbatim, anything
    else by ``repr`` — same seed, same digest."""
    digest = blake2b(digest_size=16)
    for record in records:
        digest.update(record if isinstance(record, bytes)
                      else repr(record).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class Bar:
    """An acceptance threshold on one ``extras`` metric, typed once."""

    metric: str
    op: str                     # "<=" or ">="
    limit: float
    why: str

    def failure(self, value) -> Optional[str]:
        """``None`` when ``value`` clears the bar, else the complaint."""
        ok = value <= self.limit if self.op == "<=" else value >= self.limit
        if ok:
            return None
        return (f"{self.metric} is {value}, bar is {self.op} {self.limit} "
                f"({self.why})")


@dataclass(frozen=True)
class Script:
    """Something that happens to the cluster mid-run.

    ``faults(seed)`` builds a :class:`FaultSchedule` the runner arms
    through a :class:`FaultInjector`; ``driver(ctx)`` is a generator the
    runner spawns as a process (migrations, membership events).  A script
    may carry either or both; ``window`` is the (crash, restart) span of
    a single-crash schedule, relative to arming.
    """

    name: str
    faults: Optional[Callable[[int], FaultSchedule]] = None
    driver: Optional[Callable] = None
    window: Optional[tuple[int, int]] = None


def crash_board(at_ns: int, down_ns: int, board: str = "mn0") -> Script:
    """Fail-stop ``board`` at ``at_ns`` and power it back ``down_ns`` later."""
    return Script(
        "crash", window=(at_ns, at_ns + down_ns),
        faults=lambda seed: FaultSchedule().crash_board(
            at_ns, board, restart_after_ns=down_ns))


class Workload:
    """What a scenario runs.  Subclasses are frozen dataclasses holding
    sizes; all per-run state lives on the :class:`RunContext`."""

    #: RandomStream name; pinned per workload so fingerprints hold.
    rng_name = "verify"
    #: ``setup(ctx)`` generator run to completion before the clients
    #: start; ``None`` skips the phase (and its events) entirely.
    setup = None
    #: ``run_external(scenario, seed)``, set by a workload that owns its
    #: cluster and loop outright; it reads no ``Scenario.cluster``.
    run_external = None

    def clients(self, ctx) -> list:
        """The client generators, one process each: by default
        ``client(ctx, index)`` per CN."""
        return [self.client(ctx, i) for i in range(len(ctx.cluster.cns))]

    def summarize(self, ctx) -> tuple[dict, list[str]]:
        """``(extras, notes)`` once the run reached its deadline."""
        return {}, []


@dataclass(frozen=True)
class Scenario:
    """One verification question, as a value."""

    name: str
    workload: Workload
    #: ClioCluster keyword arguments: the cluster's shape, and its
    #: engine (``partitioned``).
    cluster: dict = field(default_factory=dict)
    #: Carries the layers' configuration too (``params.cache``,
    #: ``params.qos``).
    params: ClioParams = field(default_factory=verify_params)
    #: ClioCluster layer names, e.g. ``("caching", "qos")``; the runner
    #: adds ``"verification"`` / ``"tracing"`` per ``verify`` / ``trace``.
    layers: tuple = ()
    scripts: tuple = ()
    #: Linearizer target: ``"word"`` (the shared atomic word the runner
    #: allocates on mn0), ``"kv"`` (the workload's own ``ctx.history``
    #: against the KV model) or ``None``.
    target: Optional[str] = None
    bars: tuple = ()
    deadline_ns: int = 100 * MS
    #: Attach the checking stack (oracle + invariants); chaos runs turn
    #: it off to prove checking is passive.
    verify: bool = True


class RunContext(SimpleNamespace):
    """Everything one run shares: ``scenario``, ``cluster``, ``env``,
    ``verifier``, ``controller``, ``seed``, ``rng``, ``sync_threads``,
    ``word_va``, ``start_ns`` (when the clients started), ``history``,
    ``op_log`` (digested into the fingerprint), ``tolerated`` (ops that
    failed typed), ``notes``, ``findings``, and from the deadline on
    ``finished`` and ``faults`` (the injectors' applied faults) — plus
    whatever the workload and scripts stash for each other."""

    def bump_word(self, cn_index: int):
        """Contended faa on the shared word — linearizer food between
        data ops.  Returns False when the op failed typed."""
        try:
            yield from self.sync_threads[cn_index].rfaa(self.word_va, 1)
        except TYPED_FAILURES:
            return False
        return True


def run_scenario(scenario: Scenario, *, seed: int, trace: bool = False,
                 mutate: Optional[Callable] = None) -> VerifyRunResult:
    """Execute ``scenario`` and return its verdict.

    ``mutate(cluster)`` runs after the checkers attach — the seeded-bug
    tests use it to break the machinery and prove the checkers can fail.
    """
    workload = scenario.workload
    if workload.run_external is not None:
        return workload.run_external(scenario, seed)

    layers = scenario.layers
    if scenario.verify:
        layers += ("verification",)
    if trace:
        layers += ("tracing",)
    cluster = ClioCluster(params=scenario.params, seed=seed, layers=layers,
                          **scenario.cluster)
    if cluster.rack is not None:
        cluster.rack.start()
    verifier = cluster.verifier
    if mutate is not None:
        mutate(cluster)
    env = cluster.env

    # A multi-board cluster needs someone to place regions: the rack's
    # controller (wired by the cluster), or a plain one over the boards.
    controller = None
    if cluster.rack is not None:
        controller = cluster.rack.controller
    elif len(cluster.mns) > 1:
        from repro.distributed.controller import GlobalController
        controller = GlobalController(env, cluster.mns)
        controller.verifier = verifier
        controller.cache_directory = cluster.cache_dir

    ctx = RunContext(scenario=scenario, cluster=cluster, env=env,
                     verifier=verifier, controller=controller, seed=seed,
                     rng=RandomStream(seed, workload.rng_name),
                     history=[], op_log=[], tolerated=0, notes=[],
                     findings=[])
    word = scenario.target == "word"
    if word:
        ctx.sync_threads = [node.process("mn0", pid=SYNC_PID).thread()
                            for node in cluster.cns]

    def setup():
        if workload.setup is not None:
            yield from workload.setup(ctx)
        if word:
            ctx.word_va = yield from ctx.sync_threads[0].ralloc(4096)

    if word or workload.setup is not None:
        cluster.run(until=env.process(setup()))

    # No try/finally: a client that raises fails the run anyway, and one
    # left waiting on an event nothing references is collected by the GC
    # — which must read as hung, not as done.
    def finishing(client, done):
        yield from client
        done.succeed()

    ctx.start_ns = env.now
    clients = workload.clients(ctx)
    done_events = [env.event() for _ in clients]
    for client, done in zip(clients, done_events):
        env.process(finishing(client, done))
    injectors = []
    for script in scenario.scripts:
        if script.faults is not None:
            injector = FaultInjector(cluster, script.faults(seed))
            injector.arm()
            injectors.append(injector)
        if script.driver is not None:
            env.process(script.driver(ctx))

    # run(until=deadline), NOT until=event: a hung client must surface as
    # a finding, not as a wall-clock hang (background MN processes keep
    # the queue alive forever).
    all_done = env.all_of(done_events)
    cluster.run(until=scenario.deadline_ns)
    ctx.finished = all_done.triggered
    ctx.faults = sum((injector.applied_fingerprint()
                      for injector in injectors), ())
    notes = [] if ctx.finished else ["workload hit the deadline"]
    ctx.findings.extend(notes)
    for node in cluster.cns:
        transport = node.transport
        settled = transport.requests_completed + transport.requests_failed
        if transport.requests_issued != settled:
            ctx.findings.append(
                f"{node.name}: {transport.requests_issued} issued != "
                f"{settled} settled (a request neither completed nor failed)")
    for script in scenario.scripts:
        if script.window is not None:
            crash_ns, restart_ns = script.window
            notes.append(f"board-crash window {crash_ns // US}us.."
                         f"{restart_ns // US}us spanned the run")
    notes.extend(ctx.notes)
    if ctx.tolerated:
        notes.append(f"{ctx.tolerated} ops failed typed (tolerated)")
    # Engine-side counters (for the perf suite), then the workload's own.
    extras = {"sim_now_ns": env.now, "events": env._seq, "faults": ctx.faults}
    if ctx.op_log:
        extras["fingerprint"] = oplog_digest(ctx.op_log)
    summary, summary_notes = workload.summarize(ctx)
    extras.update(summary)
    notes.extend(summary_notes)
    notes.extend(_drain_caches(cluster, scenario.deadline_ns, extras))

    lin = None
    history = ctx.history
    if word:
        history = verifier.atomic_histories.get(
            ("mn0", SYNC_PID, ctx.word_va), [])
        lin = check_history(history, AtomicWordModel)
    elif scenario.target == "kv":
        lin = check_history(history, KVModel)
    report = {}
    if verifier is not None:
        verifier.sweep()
        report = verifier.report()
    for bar in scenario.bars:
        failure = bar.failure(extras[bar.metric])
        if failure is not None:
            ctx.findings.append(failure)
    return VerifyRunResult(
        name=scenario.name, lin=lin, history_len=len(history),
        violations=list(verifier.violations) if verifier else [],
        report=report, tracer=cluster.tracer, notes=notes, extras=extras,
        findings=ctx.findings)


def _drain_caches(cluster, deadline_ns: int, extras: dict) -> list[str]:
    """With the caching layer on: put its counters in ``extras["cache"]``
    and note them, then flush every dirty line and depart the directory
    so the final sweep sees a cluster with no cached state outstanding."""
    if cluster.cache_dir is None:
        return []
    counters = extras["cache"] = {
        node.name: node.cache.metrics.snapshot() for node in cluster.cns}
    counters["dir"] = cluster.cache_dir.metrics.snapshot()
    total = {name: sum(counters[node.name][name] for node in cluster.cns)
             for name in ("hits", "misses", "invalidations", "writebacks")}
    notes = [f"cache[{cluster.cns[0].cache.policy}]: "
             f"{total['hits']} hits / {total['misses']} misses, "
             f"{total['invalidations']} invalidations, "
             f"{total['writebacks']} writebacks"]
    drains = [cluster.env.process(node.cache.shutdown())
              for node in cluster.cns]
    cluster.env.run(until=deadline_ns + 1 * MS)
    if not all(process.triggered for process in drains):
        notes.append("cache drain did not settle before the deadline")
    return notes

