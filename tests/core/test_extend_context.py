"""Focused tests for the OffloadContext API (extend path plumbing)."""

from repro.core.cboard import CBoard
from repro.params import ClioParams
from repro.sim import Environment

MB = 1 << 20


def make_board():
    env = Environment()
    board = CBoard(env, ClioParams.prototype(), dram_capacity=512 * MB)
    return env, board


def run(env, generator):
    return env.run(until=env.process(generator))


def test_caller_pid_cannot_be_forged_by_args():
    """The caller PID comes from the request header, not from args."""
    env, board = make_board()
    seen = {}

    def offload(ctx, args, caller_pid):
        seen["caller"] = caller_pid
        return caller_pid
        yield  # pragma: no cover - makes this a generator

    board.extend_path.register("who-am-i", offload)
    result = run(env, board.extend_path.invoke("who-am-i", ("spoof", 999),
                                               caller_pid=42))
    assert result.ok and result.value == 42
    assert seen["caller"] == 42


def test_caller_aware_detection():
    env, board = make_board()

    def plain(ctx, args):
        yield from ctx._compute(1)
        return "plain"

    def aware(ctx, args, caller_pid):
        yield from ctx._compute(1)
        return caller_pid

    board.extend_path.register("plain", plain)
    board.extend_path.register("aware", aware)
    assert not board.extend_path.caller_aware("plain")
    assert board.extend_path.caller_aware("aware")
    assert board.extend_path.names() == ["aware", "plain"]


def test_offload_write_to_caller_memory():
    """An offload can also write the caller's RAS when given the PID."""
    env, board = make_board()

    def stamp(ctx, args, caller_pid):
        va = args
        yield from ctx.write(va, b"stamped-by-mn", pid=caller_pid)
        return True

    board.extend_path.register("stamp", stamp)

    def driver():
        response = yield from board.slow_path.handle_alloc(7, 4096)
        from repro.core.addr import AccessType
        result = yield from board.extend_path.invoke(
            "stamp", response.va, caller_pid=7)
        assert result.ok
        read = yield from board.execute_local(
            7, AccessType.READ, response.va, 13)
        return read.data

    assert run(env, driver()) == b"stamped-by-mn"
