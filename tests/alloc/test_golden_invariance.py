"""Golden invariance: the allocator overhaul must not move a single bit.

The default strategy pair (``freelist`` + ``first-fit``) reproduces the
pre-refactor allocator exactly, so the three pre-existing golden
fingerprints — no-fault chaos, batched YCSB, coherent-cache — must stay
where earlier PRs pinned them, and a cluster built with the explicit
defaults must match one built with no alloc parameters at all.

This file also pins NEW goldens for the strategy-specific runs: move
them only with a deliberate re-pin.
"""

from tests.cache.test_cache import GOLDEN_CACHED, cached_fingerprint
from tests.clib.test_batching import GOLDEN_BATCHED, batched_fingerprint
from tests.faults.test_chaos import GOLDEN_NO_FAULT, no_fault_fingerprint

from repro.params import AllocParams
from repro.workloads.churn import run_churn

# -- pre-existing goldens: the default strategy must not move them ------------


def test_default_strategy_keeps_no_fault_golden():
    assert no_fault_fingerprint() == GOLDEN_NO_FAULT


def test_default_strategy_keeps_batched_golden():
    assert batched_fingerprint() == GOLDEN_BATCHED


def test_default_strategy_keeps_cached_golden():
    assert cached_fingerprint() == GOLDEN_CACHED


def test_explicit_default_matches_implicit_default():
    implicit = run_churn("small-churn", seed=9, ops=40)
    explicit = run_churn("small-churn", pa_strategy="freelist",
                         va_policy="first-fit", seed=9, ops=40)
    assert implicit.fingerprint() == explicit.fingerprint()
    assert AllocParams().pa_strategy == "freelist"
    assert AllocParams().va_policy == "first-fit"


# -- new goldens: per-strategy churn fingerprints -----------------------------

#: small-churn, seed 5, 120 ops.  The fingerprint covers VAs, latencies
#: and completion times, and which PPN a strategy hands out never feeds
#: back into timing: slab and buddy pools that picked other pages shared
#: this digest (and ``GOLDEN_CHURN_MIX``) with the free list, which is
#: why neither is a strategy any more.  Arena differs (by design): batch
#: refills change *when* the slow path runs.
GOLDEN_CHURN_DEFAULT = "adcf0360091815d0a0cb8a83662268f3"
GOLDEN_CHURN_ARENA = "2d09f5f9f3e895cbb8cace6f99aa2ab4"

#: small-large-mix, seed 5, 120 ops, freelist strategy.
GOLDEN_CHURN_MIX = "52f895471c11c35a06c412828dd5aebe"

#: retry-storm, seed 5, 60 ops, jump VA policy.
GOLDEN_CHURN_JUMP_STORM = "5223ec3c3aab3d0ab3aef83a5df3dbb7"


def test_churn_default_golden():
    report = run_churn("small-churn", pa_strategy="freelist", seed=5, ops=120)
    assert report.fingerprint() == GOLDEN_CHURN_DEFAULT


def test_churn_arena_golden():
    report = run_churn("small-churn", pa_strategy="arena", seed=5, ops=120)
    assert report.fingerprint() == GOLDEN_CHURN_ARENA
    assert report.fingerprint() != GOLDEN_CHURN_DEFAULT


def test_churn_mix_golden():
    report = run_churn("small-large-mix", pa_strategy="freelist", seed=5,
                       ops=120)
    assert report.fingerprint() == GOLDEN_CHURN_MIX


def test_churn_jump_storm_golden():
    report = run_churn("retry-storm", pa_strategy="freelist",
                       va_policy="jump", seed=5, ops=60)
    assert report.fingerprint() == GOLDEN_CHURN_JUMP_STORM
