"""Partitioned-engine throughput: the 8-board packet-echo rack.

One model, two engine modes, identical event streams:

* ``rack_echo_flat``        — the global-heap :class:`Environment`;
* ``rack_echo_partitioned`` — the single-process partitioned scheduler
  (must dispatch exactly the same events — it is bit-identical by
  construction).

The model: 8 nodes, each a client+board pair in its own partition.
Client ``i`` keeps ``INFLIGHT`` echo slots against board ``(i+3) % 8``;
every hop crosses a channel with the link propagation delay as its
lookahead, and the board charges a service delay per request.  Three
events per round trip (request delivery, service completion, reply
delivery) — all pure callbacks.
"""

from __future__ import annotations

import json
import os

from perf_common import (
    BENCH_FILE,
    best_of,
    record,
    run_timed,
    validate_section,
)

from repro.sim import Environment, PartitionedEnvironment

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))

NODES = 8
INFLIGHT = 8 if TINY else 48
ROUNDS = 10 if TINY else 40
HOP_NS = 1_000          # link propagation == channel lookahead
SERVICE_NS = 500
ROUND_NS = 2 * HOP_NS + SERVICE_NS
DEADLINE_NS = (ROUNDS + 2) * ROUND_NS
EXPECTED_EVENTS = NODES * INFLIGHT * ROUNDS * 3


def _peer(i: int) -> int:
    return (i + 3) % NODES


def _run_and_count(env, done) -> dict:
    """Time a deadline run, counting *all* dispatched events.

    The kickoff sends are scheduled at build time, before the timed
    region, but dispatched inside it — and every event this model
    schedules fires before the deadline, so the final sequence counter
    is the dispatch count.
    """
    metrics = run_timed(env, lambda: env.run(until=DEADLINE_NS))
    assert sum(done) == NODES * INFLIGHT
    metrics["events"] = env._seq
    if metrics["wall_s"] > 0:
        metrics["events_per_sec"] = round(env._seq / metrics["wall_s"])
    return metrics


def build_flat():
    """The same echo rack on the flat global-heap engine."""
    env = Environment()
    done = [0] * NODES

    def handle(i, msg):
        if msg[0] == "req":
            _, src, slot, remaining = msg
            env.schedule_callback(
                SERVICE_NS,
                lambda: env.schedule_callback(
                    HOP_NS, lambda: handle(src, ("rep", slot, remaining))))
        else:
            _, slot, remaining = msg
            if remaining > 1:
                env.schedule_callback(
                    HOP_NS,
                    lambda: handle(_peer(i), ("req", i, slot, remaining - 1)))
            else:
                done[i] += 1

    for i in range(NODES):
        for slot in range(INFLIGHT):
            env.schedule_callback(
                HOP_NS,
                lambda i=i, slot=slot: handle(_peer(i),
                                              ("req", i, slot, ROUNDS)))
    return env, done


def build_partitioned():
    """The echo rack as 8 logical processes joined by channels."""
    env = PartitionedEnvironment()
    parts = [env.partition(f"node{i}") for i in range(NODES)]
    done = [0] * NODES
    chans = {}

    def make_handler(i):
        part = parts[i]

        def handle(msg):
            if msg[0] == "req":
                _, src, slot, remaining = msg
                part.schedule_callback(
                    SERVICE_NS,
                    lambda: chans[(i, src)].send(("rep", slot, remaining)))
            else:
                _, slot, remaining = msg
                if remaining > 1:
                    chans[(i, _peer(i))].send(
                        ("req", i, slot, remaining - 1))
                else:
                    done[i] += 1

        return handle

    handlers = [make_handler(i) for i in range(NODES)]
    for i in range(NODES):
        for j in (_peer(i), (i - 3) % NODES):
            if (i, j) not in chans:
                chans[(i, j)] = env.open_channel(parts[i], parts[j],
                                                 handlers[j], HOP_NS)
    for i in range(NODES):
        for slot in range(INFLIGHT):
            chans[(i, _peer(i))].send(("req", i, slot, ROUNDS))
    return env, done


def test_perf_rack_echo_flat():
    def measure():
        env, done = build_flat()
        return _run_and_count(env, done)

    metrics = best_of(3, measure)
    record("engine", "rack_echo_flat", metrics)
    print(f"rack_echo_flat: {metrics}")
    assert metrics["events"] == EXPECTED_EVENTS
    assert metrics["events_per_sec"] > 20_000


def test_perf_rack_echo_partitioned():
    def measure():
        env, done = build_partitioned()
        metrics = _run_and_count(env, done)
        stats = env.partition_stats()
        metrics["drain_runs"] = stats["drain_runs"]
        metrics["channel_messages"] = stats["channel_messages"]
        return metrics

    metrics = best_of(3, measure)
    record("engine", "rack_echo_partitioned", metrics)
    print(f"rack_echo_partitioned: {metrics}")
    assert metrics["events"] == EXPECTED_EVENTS
    assert metrics["events_per_sec"] > 20_000


def test_bench_engine_schema():
    """The committed BENCH_perf.json engine section stays well-formed."""
    with open(BENCH_FILE) as handle:
        data = json.load(handle)
    problems = validate_section(data, "engine")
    assert not problems, problems
