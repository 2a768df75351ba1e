"""Capacity QoS at the controller: per-tenant quotas on region placement."""

import pytest

from repro.cluster import ClioCluster
from repro.distributed.controller import GlobalController
from repro.distributed.tenancy import TenantQuotaExceeded
from repro.params import ClioParams, QoSParams, TenantConfig

MB = 1 << 20


QOS = QoSParams(tenants=(
    TenantConfig(name="gold", clients=("cn0",), share=0.6,
                 quota_bytes=8 * MB),
    TenantConfig(name="bronze", clients=("cn1",), share=0.4),
))


def make(qos=QOS, registry=False):
    cluster = ClioCluster(params=ClioParams.prototype(), seed=0,
                          num_cns=2, mn_capacity=1 << 30)
    controller = GlobalController(
        cluster.env, cluster.mns, qos=qos,
        registry=cluster.metrics if registry else None)
    return cluster, controller


def run(cluster, generator):
    holder = {}

    def wrapper():
        holder["result"] = yield from generator

    cluster.run(until=cluster.env.process(wrapper()))
    return holder.get("result")


def test_quota_rejects_and_frees_credit_back():
    cluster, controller = make()

    def app():
        lease = yield from controller.allocate(1, 4 * MB, tenant="gold")
        assert lease.tenant == "gold"
        with pytest.raises(TenantQuotaExceeded) as excinfo:
            yield from controller.allocate(1, 6 * MB, tenant="gold")
        assert excinfo.value.tenant == "gold"
        assert excinfo.value.used == 4 * MB
        assert excinfo.value.quota == 8 * MB
        yield from controller.free(lease.region_id)
        # The freed capacity is available again.
        lease = yield from controller.allocate(1, 6 * MB, tenant="gold")
        yield from controller.free(lease.region_id)

    run(cluster, app())
    assert controller.tenants.rejections == 1
    assert controller.tenants.usage("gold") == 0


def test_usage_charged_at_page_rounded_grant():
    cluster, controller = make()
    page = cluster.mn.page_spec.page_size

    def app():
        lease = yield from controller.allocate(1, 100, tenant="bronze")
        return lease

    lease = run(cluster, app())
    assert lease.size == page
    assert controller.tenants.usage("bronze") == page


def test_unknown_tenant_is_accounted_but_uncapped():
    cluster, controller = make()

    def app():
        lease = yield from controller.allocate(1, 64 * MB)
        return lease

    lease = run(cluster, app())
    assert lease.tenant == "default"
    assert controller.tenants.usage("default") == 64 * MB


def test_quota_is_typed_placement_error():
    from repro.distributed.controller import PlacementError

    assert issubclass(TenantQuotaExceeded, PlacementError)


def test_no_qos_means_no_quotas():
    cluster, controller = make(qos=None)

    def app():
        lease = yield from controller.allocate(1, 64 * MB, tenant="gold")
        return lease

    lease = run(cluster, app())
    assert lease.tenant == "gold"
    assert controller.tenants.usage("gold") == 64 * MB


def test_tenant_metrics_exported():
    cluster, controller = make(registry=True)

    def app():
        yield from controller.allocate(1, 4 * MB, tenant="gold")
        try:
            yield from controller.allocate(1, 6 * MB, tenant="gold")
        except TenantQuotaExceeded:
            pass

    run(cluster, app())
    snapshot = cluster.metrics.snapshot()
    assert snapshot["tenant.gold.used_bytes"] == 4 * MB
    assert snapshot["tenant.gold.quota_bytes"] == 8 * MB
    assert snapshot["tenant.gold.regions"] == 1
    assert snapshot["tenant.quota_rejections"] == 1
    assert snapshot["tenant.bronze.used_bytes"] == 0


def test_migration_keeps_tenant_charge():
    cluster = ClioCluster(params=ClioParams.prototype(), seed=0,
                          num_cns=1, num_mns=2, mn_capacity=1 << 30)
    controller = GlobalController(cluster.env, cluster.mns, qos=QOS)

    def app():
        lease = yield from controller.allocate(1, 4 * MB, tenant="gold")
        target = "mn1" if lease.mn == "mn0" else "mn0"
        ok = yield from controller._migrate(lease, target)
        assert ok
        assert lease.tenant == "gold"
        yield from controller.free(lease.region_id)

    run(cluster, app())
    assert controller.tenants.usage("gold") == 0


def test_concurrent_allocations_are_both_charged():
    """Two allocations of one tenant in flight together: the second to
    finish must add to the first's charge, not overwrite it with a
    total computed before either landed."""
    cluster, controller = make()
    env = cluster.env

    def app():
        both = [env.process(controller.allocate(1, 4 * MB, tenant="bronze"))
                for _ in range(2)]
        yield env.all_of(both)

    run(cluster, app())
    assert controller.tenants.usage("bronze") == 8 * MB
    assert controller.tenants.total() == 8 * MB
