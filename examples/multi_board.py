#!/usr/bin/env python3
"""Two CBoards behind one ToR: a process per board, striped application data.

The paper scopes a distributed-MN control plane to future work (section
3.3), but a single CN can already talk to several CBoards: each board is
independent, and the application stripes data across them — here a simple
two-way striped array with interleaved async writes.

Run:  python examples/multi_board.py
"""

from repro import ClioCluster

MB = 1 << 20
STRIPE = 1024


def main() -> None:
    cluster = ClioCluster(num_cns=1, num_mns=2, mn_capacity=256 * MB)
    env = cluster.env
    node = cluster.cn(0)
    # One Clio process (one RAS) per memory node.
    threads = [node.process(board.name).thread() for board in cluster.mns]
    state = {}

    def app():
        print("== Striping across two CBoards ==")
        bases = []
        for thread in threads:
            base = yield from thread.ralloc(16 * MB)
            bases.append(base)
        print(f"allocated a 16 MB region on each of "
              f"{[board.name for board in cluster.mns]}")

        # Write 16 stripes round-robin, all asynchronously.
        payload = [bytes([index]) * STRIPE for index in range(16)]
        start = env.now
        handles = []
        for index, chunk in enumerate(payload):
            board = index % 2
            handle = yield from threads[board].rwrite_async(
                bases[board] + (index // 2) * STRIPE, chunk)
            handles.append((board, handle))
        for board, handle in handles:
            yield from threads[board].rpoll([handle])
        write_us = (env.now - start) / 1000
        print(f"wrote 16 x {STRIPE} B stripes across 2 boards in "
              f"{write_us:.1f} us (async, overlapped)")

        # Read back and verify placement.
        start = env.now
        for index in range(16):
            board = index % 2
            data = yield from threads[board].rread(
                bases[board] + (index // 2) * STRIPE, STRIPE)
            assert data == payload[index], f"stripe {index} corrupt"
        read_us = (env.now - start) / 1000
        print(f"read + verified all stripes in {read_us:.1f} us (sync)")
        state["ok"] = True

    cluster.run(until=env.process(app()))
    assert state.get("ok")
    for board in cluster.mns:
        stats = board.metrics.snapshot()
        print(f"{board.name}: {stats['requests_served']} requests, "
              f"{stats['faults']} page faults")
    print("\nEach board manages its own memory; a LegoOS-style global")
    print("controller could federate them into one virtual space (§3.3).")


if __name__ == "__main__":
    main()
