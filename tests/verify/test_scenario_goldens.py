"""What "same behaviour" means: one golden row per scenario entry point.

Every value below was recorded at the commit *before* the scenario
runner existed, by calling the old hand-written harnesses
(``run_sync_linearizability`` ... ``run_qos_noisy_neighbor``) at these
sizes and seed 0.  The rows now run through ``run_scenario``; a refactor
of the runner, a workload or a script that moves an event, a latency or
a fingerprint fails here.  ``events``/``sim_now_ns`` pin the engine's
dispatch count and clock, so even a reordering that leaves the op log
intact is caught.  The 14 ``events`` integers — and nothing else — were
re-recorded when board handlers stopped costing an ``Initialize`` and a
completion event each (2 fewer per MN request, every other event in the
same relative order; CHANGES.md lists old -> new per row).  The three
``cached-*`` rows gained their ``events`` / ``fingerprint`` / ``sim_now_ns``
at the commit before the cache line protocol became a table.

Notes are compared as a set: their content is pinned, their order is
presentation.
"""

import pytest

from repro.verify import run_scenario, scenario
from tests.engines import run_partitioned

# (registry name, sizes, partitioned,
#  result.name, history_len, lin.ok, read_mismatches, len(violations),
#  extras subset, sorted notes)
GOLDENS = [('sync', {'clients': 2, 'ops': 12}, False, 'sync-unit', 24, True, 0, 0, {},
  []),
 ('sync+crash', {'clients': 2, 'ops': 12}, False, 'sync-unit', 24, True, 0,
  0, {}, ['board-crash window 60us..260us spanned the run']),
 ('kv', {'ops': 12}, False, 'clio-kv', 30, True, 0, 0, {}, []),
 ('kv+crash', {'ops': 12}, False, 'clio-kv', 30, True, 0, 0, {},
  ['board-crash window 150us..650us spanned the run']),
 ('batched', {'clients': 2, 'ops': 24}, False, 'batched-ycsb-a', 6, True, 0,
  0, {}, ['batched 48 sub-ops into 13 frames']),
 ('cached-through', {'ops': 24}, False, 'cached-ycsb-a[through]', 6, True,
  0, 0,
  {'events': 8628, 'fingerprint': '377ed39c063baa9095980275cdcaa2a0',
   'sim_now_ns': 100000000},
  ['cache[through]: 6 hits / 15 misses, 10 invalidations, 0 writebacks']),
 ('cached-back+crash', {'ops': 24}, False, 'cached-ycsb-a[back+crash]', 6,
  True, 0, 0,
  {'events': 8374, 'fingerprint': '8a82338633bc708df12fc166a6e4f5e6',
   'sim_now_ns': 100000000},
  ['board-crash window 150us..650us spanned the run',
   'cache[back]: 13 hits / 8 misses, 19 invalidations, 13 writebacks']),
 ('cached-back+migrate', {'ops': 24}, False, 'cached-ycsb-a[back+migrate]',
  6, True, 0, 0,
  {'events': 15152, 'fingerprint': 'bc4539b5efe0db5cd43067ca0ca3ad3c',
   'sim_now_ns': 100000000},
  ['cache[back]: 13 hits / 8 misses, 28 invalidations, 19 writebacks',
   'region migrated to mn1 at ~1.5ms mid-run']),
 ('rack', {'clients': 64, 'ops': 3}, False, 'rack-ycsb', 64, True, 0, 0,
  {'aborted_migrations': 0,
   'epoch': 0,
   'events': 38120,
   'evictions': 0,
   'fingerprint': 'c384b7594fcd0348dcf513d672ad5266',
   'migrations': 0,
   'ops_ok': 192,
   'post_p99_ns': 5068,
   'pre_p99_ns': 5172,
   'sim_now_ns': 60000000},
  ['192/192 ops ok, p99 5172ns pre / 5068ns post event']),
 ('rack+drain', {'clients': 64, 'ops': 3}, False, 'rack-ycsb[drain]', 64,
  True, 0, 0,
  {'aborted_migrations': 0,
   'epoch': 2,
   'events': 38175,
   'evictions': 0,
   'fingerprint': 'd64516489da7dfff486cbe8c3bbc35af',
   'migrations': 3,
   'ops_ok': 192,
   'post_p99_ns': 5179,
   'pre_p99_ns': 5172,
   'sim_now_ns': 60000000},
  ['192/192 ops ok, p99 5172ns pre / 5179ns post event',
   'drained mn1 at 453175ns (3 migrations)']),
 ('rack+add', {'clients': 64, 'ops': 3}, False, 'rack-ycsb[add]', 64, True,
  0, 0,
  {'aborted_migrations': 0,
   'epoch': 1,
   'events': 42254,
   'evictions': 0,
   'fingerprint': '4c7c092363160ae1bd9b988d6105fa76',
   'migrations': 2,
   'ops_ok': 192,
   'post_p99_ns': 5058,
   'pre_p99_ns': 5172,
   'sim_now_ns': 60000000},
  ['192/192 ops ok, p99 5172ns pre / 5058ns post event',
   'added mn8 at 453175ns, rebalanced 2']),
 ('rack+crash-mid-migration', {'clients': 64, 'ops': 3}, False,
  'rack-ycsb[crash-mid-migration]', 64, True, 0, 0,
  {'aborted_migrations': 1,
   'epoch': 3,
   'events': 38282,
   'evictions': 0,
   'fingerprint': '4121c29a563f16ef391e39c218c99c12',
   'migrations': 3,
   'ops_ok': 192,
   'post_p99_ns': 0,
   'pre_p99_ns': 5172,
   'sim_now_ns': 60000000},
  ['192/192 ops ok, p99 5172ns pre / 0ns post event',
   'mn1 crashed mid-drain (1 aborted), drain completed after restart']),
 ('rack+evict', {'clients': 64, 'ops': 3}, False, 'rack-ycsb[evict]', 64,
  True, 0, 0,
  {'aborted_migrations': 0,
   'epoch': 1,
   'events': 38667,
   'evictions': 3,
   'fingerprint': 'd652c612d2a2414e7f727714deda34d2',
   'migrations': 0,
   'ops_ok': 192,
   'post_p99_ns': 4912,
   'pre_p99_ns': 5172,
   'sim_now_ns': 60000000},
  ['192/192 ops ok, p99 5172ns pre / 4912ns post event',
   'mn1 crashed at 453175ns, never restarted (lease-expiry eviction)']),
 ('rack+drain', {'clients': 64, 'ops': 3}, True, 'rack-ycsb[drain]', 64,
  True, 0, 0,
  {'aborted_migrations': 0,
   'epoch': 2,
   'events': 38175,
   'evictions': 0,
   'fingerprint': 'd64516489da7dfff486cbe8c3bbc35af',
   'migrations': 3,
   'ops_ok': 192,
   'post_p99_ns': 5179,
   'pre_p99_ns': 5172,
   'sim_now_ns': 60000000},
  ['192/192 ops ok, p99 5172ns pre / 5179ns post event',
   'drained mn1 at 453175ns (3 migrations)']),
 ('alloc-freelist', {'ops': 40}, False,
  'alloc-churn[small-large-mix/freelist/first-fit]', 80, None, 0, 0,
  {'events': 2976,
   'fingerprint': 'f13117cbca01875d53cab9b9372f1e40',
   'sim_now_ns': 1014118},
  ['40/40 allocs ok, 40 frees, 0 VA retries, 680 slow-path crossings, frag '
   '0.000 (peak 0.000)']),
 ('alloc-arena', {'ops': 40}, False,
  'alloc-churn[small-large-mix/arena/first-fit]', 80, None, 0, 0,
  {'events': 3271,
   'fingerprint': 'b1b6dd10e87b25e86d94a2404c248093',
   'sim_now_ns': 1014118},
  ['40/40 allocs ok, 40 frees, 0 VA retries, 13 slow-path crossings, frag '
   '0.095 (peak 0.111)']),
 ('alloc-arena', {'ops': 40}, True,
  'alloc-churn[small-large-mix/arena/first-fit]', 80, None, 0, 0,
  {'events': 3271,
   'fingerprint': 'b1b6dd10e87b25e86d94a2404c248093',
   'sim_now_ns': 1014118},
  ['40/40 allocs ok, 40 frees, 0 VA retries, 13 slow-path crossings, frag '
   '0.095 (peak 0.111)']),
 ('qos-shaped', {}, False, 'qos-noisy-neighbor[shaped]', 800, None, 0, 0,
  {'aggressor_ops': 184,
   'events': 46648,
   'fingerprint': '2f4f0da0acd489f9ce2a93377445afee',
   'sim_now_ns': 400000000,
   'victim_base_p99_ns': 2610,
   'victim_noisy_p99_ns': 3592,
   'victim_p99_inflation': 1.376},
  ['411 aggressor packets shaped at the switch',
   'victim p99 2610ns alone -> 3592ns under fire (1.38x, shaping on); 184 '
   'aggressor writes']),
 ('qos-unshaped', {}, False, 'qos-noisy-neighbor[unshaped]', 800, None, 0,
  0,
  {'aggressor_ops': 2507,
   'events': 108408,
   'fingerprint': '211d1564e61d04397b8b209998132a54',
   'sim_now_ns': 400000000,
   'victim_base_p99_ns': 2610,
   'victim_noisy_p99_ns': 19257,
   'victim_p99_inflation': 7.378},
  ['victim p99 2610ns alone -> 19257ns under fire (7.38x, shaping off); '
   '2507 aggressor writes']),
 ('qos-shaped', {}, True, 'qos-noisy-neighbor[shaped]', 800, None, 0, 0,
  {'aggressor_ops': 184,
   'events': 46648,
   'fingerprint': '2f4f0da0acd489f9ce2a93377445afee',
   'sim_now_ns': 400000000,
   'victim_base_p99_ns': 2610,
   'victim_noisy_p99_ns': 3592,
   'victim_p99_inflation': 1.376},
  ['411 aggressor packets shaped at the switch',
   'victim p99 2610ns alone -> 3592ns under fire (1.38x, shaping on); 184 '
   'aggressor writes'])]


@pytest.mark.parametrize(
    "golden", GOLDENS,
    ids=[f"{g[0]}{'/pdes' if g[2] else ''}" for g in GOLDENS])
def test_scenario_matches_parent_commit_golden(golden):
    (name, sizes, partitioned, result_name, history_len, lin_ok,
     read_mismatches, violations, extras, notes) = golden
    run = run_partitioned if partitioned else run_scenario
    result = run(scenario(name, **sizes), seed=0)
    assert result.problems() == []
    assert result.name == result_name
    assert result.history_len == history_len
    assert (result.lin.ok if result.lin is not None else None) == lin_ok
    assert result.report.get("read_mismatches", 0) == read_mismatches
    assert len(result.violations) == violations
    assert {key: result.extras[key] for key in extras} == extras
    assert sorted(result.notes) == notes
