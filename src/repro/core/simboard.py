"""SimBoard: the paper's software CBoard simulator (section 5).

    "To assist Clio users in building their applications, we implemented
    a simple software simulator of CBoard which works with CLib for
    developers to test their code without the need to run an actual
    CBoard."

SimBoard is that artifact inside this reproduction: a drop-in MN that
speaks the same packet protocol as :class:`repro.core.cboard.CBoard` —
same RAS semantics, permissions, fences, atomics, retry dedup, offloads —
but implemented as plain software maps with a single flat service delay.
Use it when a test needs Clio *semantics* without Clio *timing* (it runs
with far fewer simulation events than the full board).

Differences from CBoard, by design:

* no pipeline/TLB/fault timing — every request costs ``service_ns``;
* no physical page management — memory is allocated per page on first
  touch and cannot run out before host memory does;
* no slow-path/fast-path split — everything is one software path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.addr import AccessType, PageSpec, Permission
from repro.core.cboard import ResponseBody
from repro.core.extend import ExtendPath
from repro.core.pipeline import Status
from repro.core.retry_buffer import RetryBuffer
from repro.core.sync import AtomicOp, AtomicResult, ATOMIC_WIDTH
from repro.net.packet import ClioHeader, Packet, PacketType, fragment_payload
from repro.params import ClioParams
from repro.sim import Environment


@dataclass
class _SimAllocation:
    va: int
    size: int
    permission: Permission


@dataclass
class _SimSpace:
    """One process's RAS: allocations plus page contents."""

    allocations: list[_SimAllocation] = field(default_factory=list)
    pages: dict[int, bytearray] = field(default_factory=dict)
    next_va: int = 1 << 22


class SimBoard:
    """A software stand-in for CBoard with identical request semantics."""

    PAGE = 4 << 20

    def __init__(self, env: Environment, params: ClioParams,
                 name: str = "mn0", service_ns: int = 500):
        if service_ns < 0:
            raise ValueError(f"service_ns must be non-negative, got {service_ns}")
        self.env = env
        self.params = params
        self.name = name
        self.service_ns = service_ns
        self.page_spec = PageSpec(self.PAGE)
        self._spaces: dict[int, _SimSpace] = {}
        self.retry_buffer = RetryBuffer(params.cboard.retry_buffer_bytes)
        self.topology = None
        self.requests_served = 0
        self._write_progress: dict[int, int] = {}
        self._offloads: dict[str, Any] = {}

    # -- wiring ----------------------------------------------------------------------

    def attach(self, topology) -> None:
        self.topology = topology
        topology.add_node(self.name, self.receive,
                          port_rate_bps=self.params.cboard.port_rate_bps,
                          node_env=self.env)

    # -- address space helpers ----------------------------------------------------------

    def _space(self, pid: int) -> _SimSpace:
        return self._spaces.setdefault(pid, _SimSpace())

    def _find_allocation(self, pid: int, va: int,
                         size: int) -> Optional[_SimAllocation]:
        for allocation in self._space(pid).allocations:
            if allocation.va <= va and va + size <= allocation.va + allocation.size:
                return allocation
        return None

    def _read_bytes(self, pid: int, va: int, size: int) -> bytes:
        space = self._space(pid)
        out = bytearray()
        position = va
        remaining = size
        while remaining > 0:
            page = position // self.PAGE
            offset = position % self.PAGE
            take = min(remaining, self.PAGE - offset)
            content = space.pages.get(page)
            if content is None:
                out += bytes(take)
            else:
                out += content[offset:offset + take]
            position += take
            remaining -= take
        return bytes(out)

    def _write_bytes(self, pid: int, va: int, data: bytes) -> None:
        space = self._space(pid)
        position = va
        offset = 0
        while offset < len(data):
            page = position // self.PAGE
            page_offset = position % self.PAGE
            take = min(len(data) - offset, self.PAGE - page_offset)
            content = space.pages.get(page)
            if content is None:
                content = bytearray(self.PAGE)
                space.pages[page] = content
            content[page_offset:page_offset + take] = \
                data[offset:offset + take]
            position += take
            offset += take

    # -- request handling --------------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        self.env.spawn(self._handle(packet))

    def _handle(self, packet: Packet):
        header = packet.header
        yield self.env.timeout(self.service_ns)
        if packet.corrupt:
            self._send(header.src, header.request_id, PacketType.NACK,
                       ResponseBody(status=Status.OK))
            return
        handler = {
            PacketType.READ: self._do_read,
            PacketType.WRITE: self._do_write,
            PacketType.ATOMIC: self._do_atomic,
            PacketType.FENCE: self._do_fence,
            PacketType.ALLOC: self._do_alloc,
            PacketType.FREE: self._do_free,
            PacketType.OFFLOAD: self._do_offload,
        }.get(header.packet_type)
        if handler is not None:
            handler(packet)

    def _check_access(self, header: ClioHeader,
                      access: AccessType) -> Optional[Status]:
        allocation = self._find_allocation(header.pid, header.va, header.size)
        if allocation is None:
            return Status.INVALID_VA
        if access.required_permission not in allocation.permission:
            return Status.PERMISSION
        return None

    def _do_read(self, packet: Packet) -> None:
        header = packet.header
        error = self._check_access(header, AccessType.READ)
        self.requests_served += 1
        if error is not None:
            self._send(header.src, header.request_id, PacketType.RESPONSE,
                       ResponseBody(status=error))
            return
        data = self._read_bytes(header.pid, header.va, header.size)
        mtu = self.params.network.mtu
        fragments = fragment_payload(header.size, mtu)
        for index, (offset, size) in enumerate(fragments):
            self._send(header.src, header.request_id, PacketType.RESPONSE,
                       ResponseBody(status=Status.OK,
                                    data=data[offset:offset + size]),
                       fragment=index, fragments=len(fragments),
                       payload_bytes=size, total_size=header.size)

    def _do_write(self, packet: Packet) -> None:
        header = packet.header
        remaining = self._write_progress.get(header.request_id,
                                             header.fragments)
        executed, _ = self.retry_buffer.check(header.retry_of)
        status = Status.OK
        if not executed:
            error = self._check_access(header, AccessType.WRITE)
            if error is not None:
                status = error
            else:
                self._write_bytes(header.pid, header.va, packet.payload)
        remaining -= 1
        if remaining > 0:
            self._write_progress[header.request_id] = remaining
            return
        self._write_progress.pop(header.request_id, None)
        self.requests_served += 1
        if status is Status.OK:
            self.retry_buffer.remember(header.request_id)
            if header.retry_of is not None:
                self.retry_buffer.remember(header.retry_of)
        self._send(header.src, header.request_id, PacketType.RESPONSE,
                   ResponseBody(status=status))

    def _do_atomic(self, packet: Packet) -> None:
        header = packet.header
        op: AtomicOp = packet.payload
        executed, cached = self.retry_buffer.check(header.retry_of)
        if executed:
            self._send(header.src, header.request_id, PacketType.RESPONSE,
                       ResponseBody(status=Status.OK, atomic=cached))
            return
        allocation = self._find_allocation(header.pid, header.va,
                                           ATOMIC_WIDTH)
        if allocation is None:
            self._send(header.src, header.request_id, PacketType.RESPONSE,
                       ResponseBody(status=Status.INVALID_VA))
            return
        old = int.from_bytes(
            self._read_bytes(header.pid, header.va, ATOMIC_WIDTH), "little")
        from repro.core.sync import AtomicUnit
        new, success = AtomicUnit._apply(old, op)
        if new is not None:
            self._write_bytes(header.pid, header.va,
                              new.to_bytes(ATOMIC_WIDTH, "little"))
        result = AtomicResult(old_value=old, success=success)
        self.requests_served += 1
        self.retry_buffer.remember(header.request_id, result)
        if header.retry_of is not None:
            self.retry_buffer.remember(header.retry_of, result)
        self._send(header.src, header.request_id, PacketType.RESPONSE,
                   ResponseBody(status=Status.OK, atomic=result))

    def _do_fence(self, packet: Packet) -> None:
        header = packet.header
        # Software board processes requests in arrival order already.
        self.requests_served += 1
        self._send(header.src, header.request_id, PacketType.RESPONSE,
                   ResponseBody(status=Status.OK))

    def _do_alloc(self, packet: Packet) -> None:
        header = packet.header
        size, permission, fixed_va = packet.payload
        space = self._space(header.pid)
        aligned = self.page_spec.round_up(size)
        va = fixed_va if fixed_va is not None else space.next_va
        if fixed_va is None:
            space.next_va += aligned
        space.allocations.append(
            _SimAllocation(va=va, size=aligned, permission=permission))
        self.requests_served += 1
        from repro.core.slowpath import AllocResponse
        self._send(header.src, header.request_id, PacketType.RESPONSE,
                   ResponseBody(status=Status.OK,
                                value=AllocResponse(ok=True, va=va,
                                                    size=aligned)))

    def _do_free(self, packet: Packet) -> None:
        header = packet.header
        space = self._space(header.pid)
        from repro.core.slowpath import FreeResponse
        for allocation in space.allocations:
            if allocation.va == header.va:
                space.allocations.remove(allocation)
                first = allocation.va // self.PAGE
                count = allocation.size // self.PAGE
                for page in range(first, first + count):
                    space.pages.pop(page, None)
                self.requests_served += 1
                self._send(header.src, header.request_id,
                           PacketType.RESPONSE,
                           ResponseBody(status=Status.OK,
                                        value=FreeResponse(
                                            ok=True, freed_pages=count)))
                return
        self.requests_served += 1
        self._send(header.src, header.request_id, PacketType.RESPONSE,
                   ResponseBody(status=Status.INVALID_VA,
                                value=FreeResponse(ok=False,
                                                   error="unknown va")))

    def _do_offload(self, packet: Packet) -> None:
        # SimBoard runs offloads as plain host callables (no timing).
        header = packet.header
        name, args = packet.payload
        from repro.core.extend import OffloadResult
        handler = self._offloads.get(name)
        if handler is None:
            body = ResponseBody(status=Status.INVALID_VA,
                                value=OffloadResult(
                                    ok=False, error=f"unknown offload {name!r}"))
        else:
            value = handler(self, header.pid, args)
            body = ResponseBody(status=Status.OK,
                                value=OffloadResult(ok=True, value=value))
        self.requests_served += 1
        self._send(header.src, header.request_id, PacketType.RESPONSE, body)

    def register_offload(self, name: str, handler) -> None:
        """Register ``handler(board, caller_pid, args) -> value``."""
        if name in self._offloads:
            raise ValueError(f"offload {name!r} already registered")
        self._offloads[name] = handler

    # -- response plumbing --------------------------------------------------------------------

    def _send(self, dst: str, request_id: int, packet_type: PacketType,
              body: ResponseBody, fragment: int = 0, fragments: int = 1,
              payload_bytes: int = 0, total_size: int = 0) -> None:
        if self.topology is None:
            return
        header = ClioHeader(src=self.name, dst=dst, request_id=request_id,
                            packet_type=packet_type, size=payload_bytes,
                            total_size=total_size or payload_bytes,
                            fragment=fragment, fragments=fragments)
        wire = self.params.network.header_bytes + payload_bytes
        self.topology.send(Packet(header=header, payload=body,
                                  wire_bytes=wire, sent_at=self.env.now))
