"""Capacity tenancy: who is charged for pooled memory, and how much.

One :class:`TenantLedger` is the whole of capacity QoS wherever it is
enforced — the :class:`~repro.distributed.controller.GlobalController`
placing regions on CBoards and the
:class:`~repro.baselines.cxl.CXLPool` programming HDM windows each hold
one.  The quota table comes from :class:`~repro.params.QoSParams`:
a tenant whose :class:`~repro.params.TenantConfig` pins ``quota_bytes``
is refused, typed, once a request would push its footprint past the
ceiling; tenants outside the table — including the implicit
``"default"`` — are accounted but never capped.

Bandwidth tenancy is deliberately *not* here: the switch's GCRA over
packets (:mod:`repro.net.qos`) and the CXL pool's per-tenant serializer
slice in a closed-form timing model share no logic.
"""

from __future__ import annotations

from typing import Optional


class PlacementError(Exception):
    """No MN can host the requested region."""


class TenantQuotaExceeded(PlacementError):
    """The tenant's capacity quota cannot cover the requested region.

    A subclass of :class:`PlacementError` so quota-unaware callers keep
    working, but typed so a tenant-aware CN can tell "the pool is full"
    apart from "you hit your own ceiling — free something first".
    """

    def __init__(self, tenant: str, requested: int, used: int, quota: int):
        super().__init__(
            f"tenant {tenant!r} quota exceeded: {requested} bytes requested,"
            f" {used}/{quota} bytes already in use")
        self.tenant = tenant
        self.requested = requested
        self.used = used
        self.quota = quota


class TenantLedger:
    """Per-tenant capacity accounting against a quota table."""

    def __init__(self, qos=None, registry=None, scope: str = "tenant"):
        #: tenant -> capacity ceiling in bytes (``None`` = uncapped).
        self.quotas: dict[str, Optional[int]] = {
            tenant.name: tenant.quota_bytes
            for tenant in (qos.tenants if qos is not None else ())}
        self._used: dict[str, int] = {}
        self.rejections = 0
        if registry is not None:
            for name in self.quotas:
                registry.scope(f"{scope}.{name}").gauge(
                    "used_bytes", "capacity charged to the tenant",
                    unit="bytes", fn=lambda n=name: self.usage(n))

    def usage(self, tenant: str) -> int:
        """Bytes currently charged to ``tenant``."""
        return self._used.get(tenant, 0)

    def total(self) -> int:
        """Bytes currently charged across all tenants."""
        return sum(self._used.values())

    def check(self, tenant: str, size: int) -> None:
        """Raise :class:`TenantQuotaExceeded` if ``size`` more bytes
        would push ``tenant`` past its quota."""
        quota = self.quotas.get(tenant)
        used = self.usage(tenant)
        if quota is not None and used + size > quota:
            self.rejections += 1
            raise TenantQuotaExceeded(tenant, size, used, quota)

    def charge(self, tenant: str, size: int) -> None:
        self._used[tenant] = self.usage(tenant) + size

    def credit(self, tenant: str, size: int) -> None:
        self._used[tenant] = max(0, self.usage(tenant) - size)
