"""Hypothesis stateful testing of the cache coherence state machine.

A :class:`RuleBasedStateMachine` drives random read/write/invalidate/
crash sequences through a real two-CN cached cluster (write-through or
write-back, drawn per example) while:

* a plain per-byte Python model predicts every successful read, with
  indeterminate-byte tracking for writes that failed typed mid-crash
  (the write may or may not have applied);
* the repro.verify shadow oracle + invariant sweeps ride along and must
  stay clean after every rule — the same checkers the chaos harness
  uses, here steered adversarially by Hypothesis.

"Invalidate" is exercised the way the protocol defines it: a write from
the *other* CN recalls/downgrades whatever the victim cached.  The
deterministic profile (tests/conftest.py) keeps CI reproducible.

Each example runs over recording copies of the protocol tables and ends
by asserting that every step it took was a row of them: a lookup with
no row raises inside a simulated process, where nobody may be waiting
to see it.
"""

from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cache import protocol
from repro.clib.client import RemoteAccessError
from repro.cluster import ClioCluster
from repro.params import KB, MB, US, CacheParams
from repro.transport.clib_transport import RequestFailed
from tests.cache.test_cache import _PID  # shared pinned harness PID
from tests.cache.test_protocol_table import Recording

from repro.verify.runner import verify_params

REGION = 8 * KB        # 16 lines of 512 B
LINE = 512
IO = 64                # every op touches one 64 B slot
SLOTS = REGION // IO


class CacheCoherenceMachine(RuleBasedStateMachine):

    @initialize(policy=st.sampled_from(["through", "back"]),
                seed=st.integers(min_value=0, max_value=2 ** 16))
    def setup(self, policy, seed):
        self.tables = (protocol.LINE_TABLE, protocol.DIR_TABLE)
        protocol.LINE_TABLE, protocol.DIR_TABLE = map(Recording, self.tables)
        params = replace(verify_params(), cache=CacheParams(
            policy=policy, line_bytes=LINE, capacity_lines=4))
        self.cluster = ClioCluster(params=params, seed=seed, num_cns=2,
                                   mn_capacity=64 * MB,
                                   layers=("verification", "caching"))
        self.verifier = self.cluster.verifier
        self.env = self.cluster.env
        self.threads = [
            self.cluster.cn(i).process("mn0", pid=_PID).thread()
            for i in range(2)
        ]
        holder = {}

        def setup_proc():
            holder["va"] = yield from self.threads[0].ralloc(REGION)

        self.cluster.run(until=self.env.process(setup_proc()))
        self.va = holder["va"]
        # Per-byte model: region starts zeroed; offsets in `unknown`
        # were targeted by a typed-failed write and may hold either value.
        self.shadow = bytearray(REGION)
        self.unknown = set()
        self.stamp = 0

    def teardown(self):
        if not hasattr(self, "tables"):
            return
        taken = (protocol.LINE_TABLE, protocol.DIR_TABLE)
        protocol.LINE_TABLE, protocol.DIR_TABLE = self.tables
        for table in taken:
            assert not table.missed, f"steps outside the table: {table.missed}"

    def _run(self, generator):
        return self.cluster.run(until=self.env.process(generator))

    def _read(self, cn, slot):
        offset = slot * IO
        out = {}

        def app():
            try:
                out["data"] = yield from self.threads[cn].rread(
                    self.va + offset, IO)
            except (RequestFailed, RemoteAccessError):
                out["data"] = None

        self._run(app())
        if out["data"] is None:
            return
        for i, byte in enumerate(out["data"]):
            if offset + i in self.unknown:
                continue
            assert byte == self.shadow[offset + i], (
                f"cn{cn} read slot {slot} byte {i}: got {byte}, "
                f"model holds {self.shadow[offset + i]}")

    def _write(self, cn, slot):
        offset = slot * IO
        self.stamp = (self.stamp + 1) % 251
        payload = bytes([self.stamp]) * IO
        out = {"ok": False}

        def app():
            try:
                yield from self.threads[cn].rwrite(self.va + offset, payload)
                out["ok"] = True
            except (RequestFailed, RemoteAccessError):
                pass

        self._run(app())
        if out["ok"]:
            self.shadow[offset:offset + IO] = payload
            self.unknown.difference_update(
                range(offset, offset + IO))
        else:
            # The write died typed mid-fault: it may or may not have
            # landed, so those bytes are indeterminate until rewritten.
            self.unknown.update(range(offset, offset + IO))

    @rule(cn=st.integers(min_value=0, max_value=1),
          slot=st.integers(min_value=0, max_value=SLOTS - 1))
    def read(self, cn, slot):
        self._read(cn, slot)

    @rule(cn=st.integers(min_value=0, max_value=1),
          slot=st.integers(min_value=0, max_value=SLOTS - 1))
    def write(self, cn, slot):
        self._write(cn, slot)

    @rule(victim=st.integers(min_value=0, max_value=1),
          slot=st.integers(min_value=0, max_value=SLOTS - 1))
    def invalidate(self, victim, slot):
        # Make the victim cache the line, then write it from the other
        # CN: the directory must recall/downgrade the victim's copy.
        self._read(victim, slot)
        self._write(1 - victim, slot)
        self._read(victim, slot)

    @precondition(lambda self: self.cluster.mn.alive)
    @rule(hold_us=st.integers(min_value=50, max_value=400))
    def crash_restart(self, hold_us):
        board = self.cluster.mn
        board.crash()

        def wait():
            yield self.env.timeout(hold_us * US)

        self._run(wait())
        board.restart()

        def settle():
            # Let in-flight retries and flush retransmissions land.
            yield self.env.timeout(600 * US)

        self._run(settle())

    @invariant()
    def checkers_stay_clean(self):
        if not hasattr(self, "verifier"):
            return
        assert self.verifier.oracle.ok, (
            self.verifier.oracle.report())
        self.verifier.sweep()
        assert self.verifier.total_violations == 0, (
            [v.describe() for v in self.verifier.violations])


CacheCoherenceMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=20, deadline=None)
TestCacheCoherence = CacheCoherenceMachine.TestCase
