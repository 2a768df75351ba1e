"""The extend path: application computation offloading (paper section 4.6).

Offloads deploy to the on-board FPGA (fast, per-operation cycle cost) or
to the ARM (slower per-op cost), and each offload gets its *own* PID and
remote virtual address space, accessed through exactly the same virtual
memory interface client processes use — the design that makes writing an
offload feel like ordinary multi-threaded programming.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.core.addr import AccessType, Permission
from repro.core.pipeline import FastPath, Status
from repro.core.slowpath import SlowPath
from repro.params import CBoardParams


class OffloadError(Exception):
    """Raised inside offload handlers for application-level failures."""


@dataclass
class OffloadResult:
    ok: bool
    value: Any = None
    error: Optional[str] = None


class OffloadContext:
    """Virtual-memory API an offload uses to touch on-board memory.

    All accesses run through the fast path with the offload's own PID, so
    they are translated, permission-checked, and can fault, exactly like
    accesses from a CN — but without any network hop.
    """

    def __init__(self, env, pid: int, fast_path: FastPath,
                 slow_path: SlowPath, params: CBoardParams,
                 on_fpga: bool = True):
        self.env = env
        self.pid = pid
        self.fast_path = fast_path
        self.slow_path = slow_path
        self.params = params
        self.on_fpga = on_fpga
        self.ops = 0
        self.active_ns = 0

    def _compute(self, cycles: int):
        """Charge offload compute time (FPGA cycles or ARM-scaled)."""
        scale = 1.0 if self.on_fpga else 8.0   # ARM runs the same logic slower
        cost = int(round(cycles * self.params.cycle_ns * scale))
        self.active_ns += cost
        yield self.env.timeout(cost)

    def alloc(self, size: int,
              permission: Permission = Permission.READ_WRITE):
        """Allocate in the offload's own RAS (slow path); returns the VA."""
        response = yield from self.slow_path.handle_alloc(
            self.pid, size, permission=permission)
        if not response.ok:
            raise OffloadError(f"offload alloc failed: {response.error}")
        return response.va

    def free(self, va: int):
        response = yield from self.slow_path.handle_free(self.pid, va)
        if not response.ok:
            raise OffloadError(f"offload free failed: {response.error}")
        return response.freed_pages

    def read(self, va: int, size: int, pid: Optional[int] = None):
        """Read on-board memory; ``pid`` defaults to the offload's own RAS.

        Passing a client's PID (received via the caller-PID argument, see
        :meth:`ExtendPath.register`) lets an offload share data with CN
        processes — the paper's pointer-chasing API works this way.
        """
        self.ops += 1
        result = yield from self.fast_path.execute(
            pid if pid is not None else self.pid, AccessType.READ, va, size,
            wire_bytes=size, serialize_dma=False)
        if result.status is not Status.OK:
            raise OffloadError(f"offload read at {va:#x}: {result.status.value}")
        return result.data

    def write(self, va: int, data: bytes, pid: Optional[int] = None):
        self.ops += 1
        result = yield from self.fast_path.execute(
            pid if pid is not None else self.pid, AccessType.WRITE, va,
            len(data), data=data, wire_bytes=len(data))
        if result.status is not Status.OK:
            raise OffloadError(f"offload write at {va:#x}: {result.status.value}")

    def read_u64(self, va: int, pid: Optional[int] = None):
        data = yield from self.read(va, 8, pid=pid)
        return int.from_bytes(data, "little")

    def write_u64(self, va: int, value: int, pid: Optional[int] = None):
        yield from self.write(va, value.to_bytes(8, "little"), pid=pid)


#: An offload handler: generator taking (ctx, args) and returning a value.
Handler = Callable[[OffloadContext, Any], Generator]


class ExtendPath:
    """Registry + executor for computation offloads."""

    _next_offload_pid = 1 << 20   # offload PIDs live above client PIDs

    def __init__(self, env, params: CBoardParams, fast_path: FastPath,
                 slow_path: SlowPath):
        self.env = env
        self.params = params
        self.fast_path = fast_path
        self.slow_path = slow_path
        self._offloads: dict[str, tuple[Handler, OffloadContext, bool]] = {}
        self.invocations = 0

    def register(self, name: str, handler: Handler,
                 on_fpga: bool = True) -> OffloadContext:
        """Deploy an offload; returns its context (own PID and RAS).

        A handler taking ``(ctx, args)`` sees only its own RAS; a handler
        taking ``(ctx, args, caller_pid)`` also receives the PID of the
        invoking client process (taken from the request header, so clients
        cannot spoof it) and may pass it to ``ctx.read``/``ctx.write`` to
        share the caller's memory.
        """
        if name in self._offloads:
            raise ValueError(f"offload {name!r} already registered")
        pid = ExtendPath._next_offload_pid
        ExtendPath._next_offload_pid += 1
        ctx = OffloadContext(self.env, pid, self.fast_path, self.slow_path,
                             self.params, on_fpga=on_fpga)
        takes_caller = len(inspect.signature(handler).parameters) >= 3
        self._offloads[name] = (handler, ctx, takes_caller)
        return ctx

    def names(self) -> list[str]:
        return sorted(self._offloads)

    def caller_aware(self, name: str) -> bool:
        return self._offloads[name][2]

    def invoke(self, name: str, args: Any, caller_pid: int = 0):
        """Process-generator: run an offload; returns OffloadResult."""
        entry = self._offloads.get(name)
        if entry is None:
            return OffloadResult(ok=False, error=f"unknown offload {name!r}")
        handler, ctx, takes_caller = entry
        self.invocations += 1
        try:
            if takes_caller:
                value = yield from handler(ctx, args, caller_pid)
            else:
                value = yield from handler(ctx, args)
            return OffloadResult(ok=True, value=value)
        except OffloadError as exc:
            return OffloadResult(ok=False, error=str(exc))
