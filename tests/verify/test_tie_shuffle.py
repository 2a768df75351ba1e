"""Tie order is not semantics: the checkers stay clean when ties shuffle.

The engine breaks a tie at one ``(time, priority)`` by the order the
entries were scheduled in.  Real hardware has no such order between two
components, so a scenario whose oracle, invariants or linearizer pass only
under that order has a race the model hides.  Here every entry scheduled
ahead (``delay > 0``) is ranked among its ties by a seeded draw; entries
for now (``delay == 0``) keep their FIFO order after them, which is what
a resumed waiter or a fired event relies on.  The default engine is not
touched: the shuffled one is a subclass injected where the cluster builds
its environment.

Hypothesis draws the tie seed.  Tier-1's deterministic profile fixes two
of them for the five ``cached-*`` rows; the ``tie-shuffle`` CI row draws
fresh ones and also runs the ``qos`` and ``rack`` suites, which are too
slow for tier-1 (5-8 s per QoS row).
"""

import random
from argparse import Namespace
from contextlib import contextmanager
from heapq import heappush
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.core import NORMAL
from repro.verify import SUITES, run_scenario, scenario

CACHED = ("cached-through", "cached-back", "cached-back+crash",
          "cached-back+migrate", "cached-back+qos+crash")

#: A rank below this orders an entry scheduled ahead; one for now is
#: ranked at or above it, by its sequence number.
_NOW_RANK = 1 << 72


class TieShuffledEnvironment(Environment):
    """An :class:`Environment` whose ties among entries scheduled ahead
    pop in a seeded random order; ``_seq`` still counts every entry."""

    __slots__ = ("_ties",)

    def __init__(self, tie_seed: int):
        super().__init__()
        self._ties = random.Random(tie_seed)

    def _rank(self, delay: int) -> int:
        seq = self._seq
        self._seq = seq + 1
        if delay > 0:
            return self._ties.getrandbits(32) << 40 | seq
        return _NOW_RANK | seq

    def _schedule(self, event, priority, delay=0, fn=None):
        heappush(self._queue, (self.now + delay, priority,
                               self._rank(delay), event, fn))

    def schedule_callback(self, delay, fn):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heappush(self._queue, (self.now + delay, NORMAL, self._rank(delay),
                               None, fn))


@contextmanager
def shuffled(tie_seed: int):
    """Build every flat cluster under ``with`` on a tie-shuffled engine;
    yields the list of the engines built."""
    built = []

    def build():
        built.append(TieShuffledEnvironment(tie_seed))
        return built[-1]

    with patch("repro.cluster.Environment", build):
        yield built


def test_ties_shuffle_but_now_entries_stay_fifo_after_them():
    env = TieShuffledEnvironment(tie_seed=7)
    popped = []

    def later(tag):
        popped.append(tag)
        if tag == "a0":
            env.schedule_callback(0, lambda: popped.append("now1"))
            env.schedule_callback(0, lambda: popped.append("now2"))

    for tag in ("a0", "a1", "a2", "a3", "a4", "a5"):
        env.schedule_callback(5, lambda tag=tag: later(tag))
    env.run()
    ahead = [tag for tag in popped if tag.startswith("a")]
    assert sorted(ahead) == ["a0", "a1", "a2", "a3", "a4", "a5"]
    assert ahead != sorted(ahead)                 # seed 7 reorders them
    assert popped[-2:] == ["now1", "now2"]
    assert env._seq == 8 and env.now == 5


@pytest.mark.parametrize("name", CACHED)
@settings(max_examples=2)
@given(tie_seed=st.integers(0, 2 ** 32 - 1))
def test_cached_rows_stay_clean_with_ties_shuffled(name, tie_seed):
    with shuffled(tie_seed) as built:
        result = run_scenario(scenario(name, ops=24), seed=0)
    assert built
    assert result.problems() == []
    assert result.ok


@pytest.mark.skipif(settings.default.derandomize,
                    reason="5-8 s per QoS row: the tie-shuffle CI row runs "
                    "these under HYPOTHESIS_PROFILE=random")
@pytest.mark.parametrize("suite", ["qos", "rack"])
@settings(max_examples=1)
@given(tie_seed=st.integers(0, 2 ** 32 - 1))
def test_slow_suites_stay_clean_with_ties_shuffled(suite, tie_seed):
    sizes = Namespace(ops=4, clients=2, crash=False, chaos="board-crash")
    for point in SUITES[suite](sizes):
        with shuffled(tie_seed) as built:
            result = run_scenario(point, seed=0)
        assert built
        assert result.problems() == [], tie_seed
        assert result.ok, tie_seed
