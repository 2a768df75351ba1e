"""Chaos scenarios with the hot-page cache on: the ISSUE's hard cases.

Two canned histories the coherence protocol must survive with the full
checking stack clean:

* **board crash while lines are cached and dirty** (write-back): local
  hits keep serving through the outage, and every dirty line's flush
  retries until the restarted board takes it;
* **invalidation lost to a link-down burst** (write-through): the
  directory retransmits CACHE_INVALs with backoff until the flapping
  link delivers one, so no CN serves a stale line afterwards.

Plus the determinism contract: cached chaos runs are bit-identical
same-seed, on both engines.
"""

import hashlib

from repro.params import KB
from repro.verify import run_scenario, scenario
from tests.engines import run_partitioned

CACHED = dict(region_bytes=64 * KB, ops=400)


def chaos(schedule, seed, cached, verify=False, partitioned=False):
    run = run_partitioned if partitioned else run_scenario
    return run(scenario("chaos", schedule=schedule, cached=cached,
                        verify=verify, **CACHED), seed=seed)


def test_board_crash_while_cached_dirty_verifies_clean():
    result = chaos("board-crash", seed=1234, cached="back", verify=True)
    assert result.extras["finished"]
    assert result.problems() == []
    counters = result.extras["cache"]
    # Dirty write-back lines existed (and were flushed) around the crash.
    writebacks = sum(c["writebacks"] for name, c in counters.items()
                     if name != "dir")
    assert writebacks > 0
    # At least one flush had to retry across the dark-board window.
    flush_retries = sum(c["flush_retries"] for name, c in counters.items()
                        if name != "dir")
    assert flush_retries > 0
    assert counters["dir"]["recalls"] > 0


def test_inval_lost_to_link_down_is_retransmitted():
    result = chaos("link-flap", seed=42, cached="through", verify=True)
    assert result.extras["finished"]
    assert result.problems() == []
    # Invalidations crossed the flapping link and some needed resending;
    # the oracle staying clean proves no stale line was ever served.
    directory = result.extras["cache"]["dir"]
    assert directory["invals_sent"] > 0
    assert directory["inval_retries"] > 0


def test_cached_chaos_is_bit_identical():
    first = chaos("board-crash", seed=77, cached="back")
    again = chaos("board-crash", seed=77, cached="back")
    assert first.extras["fingerprint"] == again.extras["fingerprint"]
    other = chaos("board-crash", seed=78, cached="back")
    assert other.extras["fingerprint"] != first.extras["fingerprint"]


def test_cached_chaos_flat_matches_partitioned():
    flat = chaos("board-crash", seed=1234, cached="back")
    pdes = chaos("board-crash", seed=1234, cached="back", partitioned=True)
    assert flat.extras["fingerprint"] == pdes.extras["fingerprint"]


def test_cached_chaos_departure_on_loss_burst():
    # Corruption + loss bursts: CACHE_REQ/INVAL packets get dropped and
    # corrupted mid-protocol; dedup + retransmission must keep every op
    # typed and the run deterministic.
    result = chaos("loss-burst", seed=9, cached="back", verify=True)
    assert result.extras["finished"]
    assert result.problems() == []


#: What ``repro chaos --cache`` runs (seed 0, 1200 ops per worker, board
#: crash over dirty write-back lines): the sha256 of its report
#: fingerprint and the counters its coherence table is built from,
#: recorded at the commit before the line protocol became a table.  The
#: counters are each cache's and the directory's whole metrics snapshot.
GOLDEN_CHAOS_CACHE = (
    "a58fb109c3258a0205461f49bb3081fd0b39746619feb0c26e48c1a12baa195a",
    36061,
    {"cn0": {"hits": 554, "misses": 43, "evictions": 0,
             "invalidations": 153, "writebacks": 129, "flush_retries": 2,
             "fills": 41, "flush_failures": 0, "hit_rate": 554 / 597,
             "lines": 0, "write_fills": 41, "write_hits": 562,
             "write_throughs": 0},
     "cn1": {"hits": 551, "misses": 79, "evictions": 0,
             "invalidations": 163, "writebacks": 71, "flush_retries": 2,
             "fills": 70, "flush_failures": 0, "hit_rate": 551 / 630,
             "lines": 16, "write_fills": 63, "write_hits": 507,
             "write_throughs": 0},
     "dir": {"requests_served": 554, "fills": 122, "write_txns": 216,
             "recalls": 210, "downgrades": 106, "invals_sent": 316,
             "inval_retries": 12,
             "freezes": 0, "open_txns": 0, "syncs": 0,
             "tracked_lines": 16}})


def test_cli_chaos_cache_run_matches_golden():
    result = run_scenario(
        scenario("chaos", schedule="board-crash", ops=1200, verify=True,
                 cached="back", region_bytes=64 * KB), seed=0)
    assert result.problems() == []
    digest = hashlib.sha256(
        repr(result.extras["fingerprint"]).encode()).hexdigest()
    assert (digest, result.extras["events"],
            result.extras["cache"]) == GOLDEN_CHAOS_CACHE
