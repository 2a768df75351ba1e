"""The four comparison verbs against a bytes model, on every backend.

A Hypothesis state machine runs ``alloc / free / store / load`` on one
``create_backend`` model with a 1 MB memory and checks every load
against a plain model of what the live allocations hold.  Allocations
are one size per run, so which of them fit is exact on every backend
(no fragmentation to allow for), and the draws free and allocate again
until far more than the capacity has been handed out in total: freed
memory must come back, reading as zeros.

Clover is a key-value store underneath: a load returns what the store
at that offset left, for a range stored as one unit, or zeros where no
store began.  Its model is that map, not bytes.

Tier-1 replays one derandomized set of runs (tests/conftest.py); the
``baselines`` CI row draws fresh ones with ``HYPOTHESIS_PROFILE=random``.
"""

from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from repro.baselines.api import create_backend
from repro.params import BACKEND_NAMES, BackendParams, ClioParams

KB = 1 << 10
CAPACITY = 1 << 20
#: Clio's page here, so one allocation size is a whole number of pages
PAGE = 64 * KB


def contract_params() -> ClioParams:
    params = ClioParams.prototype()
    return replace(
        params,
        cboard=replace(params.cboard, default_page_size=PAGE),
        backend=BackendParams(dram_capacity=CAPACITY,
                              capacity_slots=CAPACITY // KB))


class VerbsMachine(RuleBasedStateMachine):
    backend = ""

    @initialize(pages=st.integers(1, 5))
    def build(self, pages):
        self.memory = create_backend(self.backend, contract_params())
        self.size = pages * PAGE
        self.live = []                 # [region, model], in alloc order
        self.keyed = self.backend == "clover"

    def run(self, generator):
        return self.memory.env.run(until=self.memory.env.process(generator))

    @precondition(lambda self: len(self.live) < CAPACITY // self.size)
    @rule()
    def alloc(self):
        region = self.run(self.memory.alloc(self.size))
        self.live.append([region, {} if self.keyed else bytearray(self.size)])

    def _pick(self, data) -> int:
        return data.draw(st.integers(0, len(self.live) - 1), label="region")

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free(self, data):
        region, _ = self.live.pop(self._pick(data))
        self.run(self.memory.free(region))

    def _range(self, data, size):
        """An offset that fits ``size``: near the start, or at the end."""
        return data.draw(st.one_of(st.integers(0, 3 * KB),
                                   st.just(self.size - size)))

    @precondition(lambda self: self.live)
    @rule(data=st.data(), payload=st.binary(min_size=1, max_size=3 * KB))
    def store(self, data, payload):
        region, model = self.live[self._pick(data)]
        offset = self._range(data, len(payload))
        self.run(self.memory.store(region, offset, payload))
        if self.keyed:
            model[offset] = payload
        else:
            model[offset:offset + len(payload)] = payload

    @precondition(lambda self: self.live)
    @rule(data=st.data(), size=st.integers(1, 3 * KB))
    def load(self, data, size):
        region, model = self.live[self._pick(data)]
        if self.keyed and model and data.draw(st.booleans()):
            offset = data.draw(st.sampled_from(sorted(model)))
            expected = model[offset]
            size = len(expected)
        else:
            offset = self._range(data, size)
            if self.keyed:
                expected = bytes(size)
                if offset in model:     # not a never-written range
                    return
            else:
                expected = bytes(model[offset:offset + size])
        got, _ = self.run(self.memory.load(region, offset, size))
        assert got == expected, (self.backend, offset, size)


def _machine(name: str):
    machine = type(f"Verbs_{name}", (VerbsMachine,), {"backend": name})
    case = machine.TestCase
    case.settings = settings(case.settings, max_examples=15,
                             stateful_step_count=25, deadline=None)
    return case


for _name in BACKEND_NAMES:
    globals()[f"TestVerbs_{_name.replace('-', '_')}"] = _machine(_name)
