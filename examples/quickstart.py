#!/usr/bin/env python3
"""Quickstart: allocate, read, write, lock, and poll disaggregated memory.

Builds a one-CN / one-CBoard cluster and walks the core CLib API from the
paper's Figure 1: ralloc, synchronous and asynchronous rread/rwrite,
rpoll, rlock/runlock, rfence, and atomics — printing the simulated time
each step takes.

Run:  python examples/quickstart.py
"""

from repro import ClioCluster

MB = 1 << 20


def main() -> None:
    cluster = ClioCluster(num_cns=1, mn_capacity=256 * MB)
    env = cluster.env
    thread = cluster.cn(0).process("mn0").thread()

    def app():
        print("== Clio quickstart ==")

        t0 = env.now
        remote_addr = yield from thread.ralloc(4 * MB)
        print(f"ralloc(4 MB)           -> va={remote_addr:#x}  "
              f"({(env.now - t0) / 1000:.1f} us, slow path)")

        message = b"hello, disaggregated world"
        t0 = env.now
        yield from thread.rwrite(remote_addr, message)
        print(f"rwrite({len(message)}B, sync)   -> done "
              f"({(env.now - t0) / 1000:.2f} us; first touch page-faulted "
              f"in hardware)")

        t0 = env.now
        data = yield from thread.rread(remote_addr, len(message))
        assert data == message
        print(f"rread({len(message)}B, sync)    -> {data!r} "
              f"({(env.now - t0) / 1000:.2f} us, TLB hit)")

        # Asynchronous writes overlap; CLib enforces same-page ordering.
        t0 = env.now
        e0 = yield from thread.rwrite_async(remote_addr, b"A" * 512)
        e1 = yield from thread.rwrite_async(remote_addr + 1 * MB, b"B" * 512)
        yield from thread.rpoll([e0, e1])
        print(f"2x rwrite_async + rpoll -> done ({(env.now - t0) / 1000:.2f} us, "
              f"independent pages overlap)")

        # A remote lock is an 8-byte word; TAS executes at the MN.
        lock = yield from thread.ralloc(8)
        t0 = env.now
        yield from thread.rlock(lock)
        yield from thread.runlock(lock)
        print(f"rlock + runlock         -> done ({(env.now - t0) / 1000:.2f} us, "
              f"atomics at MN)")

        old = yield from thread.rfaa(remote_addr + 2 * MB, 5)
        now = yield from thread.rfaa(remote_addr + 2 * MB, 0)
        print(f"rfaa(+5)                -> old={old}, now={now}")

        yield from thread.rfence()
        print("rfence                  -> all in-flight requests drained")

        stats = cluster.mn.metrics.snapshot()
        print(f"\nCBoard stats: {stats['requests_served']} requests, "
              f"{stats['faults']} hardware page faults, "
              f"TLB hit rate {stats['tlb.hit_rate']:.0%}")
        print(f"Total simulated time: {env.now / 1000:.1f} us")

    cluster.run(until=env.process(app()))


if __name__ == "__main__":
    main()
