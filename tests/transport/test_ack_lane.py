"""The transport's ack lane: how an acked attempt completes.

A response that completes an attempt settles it at once and schedules
``Transport._ack`` in the slot the attempt's ``done`` event would take;
the lane frees the window slot and hands the caller to the completion
overhead.  The first of response, NACK, corruption and TIMEOUT settles
an attempt, and whatever arrives after it counts as stale.
"""

from dataclasses import replace

from repro.cluster import ClioCluster
from repro.net.packet import Packet, PacketType
from repro.params import ClioParams

MB = 1 << 20
US = 1_000

#: Ack-time RTT of the primed 64 B read below, on ``ClioParams.prototype()``.
PRIMED_RTT_NS = 2327


def primed_read(timeout_ns=None, on_deliver=None):
    """One 64 B ``Transport.request`` READ to a primed page; returns the
    outcome, the transport and how long the call took.
    ``on_deliver(real, packet)`` stands in for the CN's downlink
    delivery during that request."""
    cluster = ClioCluster(params=ClioParams.prototype(), mn_capacity=512 * MB)
    env = cluster.env
    thread = cluster.cn(0).process("mn0").thread()
    transport = cluster.cn(0).transport
    downlink = cluster.topology._downlinks["cn0"]
    real = downlink.deliver
    result = {}

    def app():
        va = yield from thread.ralloc(4 * MB)
        yield from thread.rwrite(va, b"x" * 64)     # prime PTE + TLB
        yield env.timeout(100 * US)                 # stale TIMEOUTs pop
        if on_deliver is not None:
            downlink.deliver = lambda packet: on_deliver(real, packet)
        start = env.now
        result["outcome"] = yield from transport.request(
            "mn0", PacketType.READ, pid=thread.process.pid, va=va, size=64,
            timeout_ns=timeout_ns)
        result["took"] = env.now - start

    env.run(until=env.process(app()))
    return result["outcome"], transport, result["took"]


def test_primed_echo_rtt_is_the_ack_time_rtt():
    outcome, transport, took = primed_read()
    assert outcome.rtt_ns == PRIMED_RTT_NS
    assert outcome.retries == 0 and outcome.data == b"x" * 64
    # The caller resumes one completion overhead after the ack.
    clib = ClioParams.prototype().clib
    tail = clib.request_overhead_ns - clib.request_overhead_ns // 2
    assert took == PRIMED_RTT_NS + tail
    assert transport.stale_responses == 0 and not transport._pending


def test_response_and_timeout_in_the_same_nanosecond():
    """The TIMEOUT is armed at send, half the request overhead after the
    attempt starts; the response lands ``rtt`` after it starts.  In the
    same nanosecond the TIMEOUT's entry is older and wins: the attempt is
    retried and the response is stale.  One nanosecond later the
    response wins and the TIMEOUT is a no-op."""
    send_delay = ClioParams.prototype().clib.request_overhead_ns // 2
    tie = PRIMED_RTT_NS - send_delay
    outcome, transport, _ = primed_read(timeout_ns=tie)
    assert outcome.retries == 1
    assert transport.stale_responses == 1
    assert outcome.data == b"x" * 64

    outcome, transport, _ = primed_read(timeout_ns=tie + 1)
    assert outcome.retries == 0 and outcome.rtt_ns == PRIMED_RTT_NS
    assert transport.stale_responses == 0


def test_nack_after_the_ack_lane_is_scheduled_is_stale():
    """A NACK for an attempt whose response already arrived (the lane is
    scheduled, not yet run) does not turn the ack into a retry."""

    def deliver_then_nack(real, packet):
        real(packet)
        if packet.header.packet_type is PacketType.RESPONSE:
            real(Packet(header=replace(packet.header,
                                       packet_type=PacketType.NACK)))

    outcome, transport, _ = primed_read(on_deliver=deliver_then_nack)
    assert outcome.retries == 0 and outcome.rtt_ns == PRIMED_RTT_NS
    assert outcome.data == b"x" * 64
    assert transport.stale_responses == 1
    assert transport.total_retries == 0
