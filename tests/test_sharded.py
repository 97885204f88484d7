"""Tests for the sharded intra-query parallel scan (repro.core.sharded).

The load-bearing property is *bitwise* identity: for every variant, every
shard count (including adversarial ones) and every query (including
degenerate ones), ``ShardedFexiproIndex`` must return exactly the ids and
scores of the single sequential scan.  ``workers=1`` runs the shards
inline in band order, which makes the property deterministic; the
process fan-out is exercised in ``tests/test_mp.py`` (scheduling may
reorder shard completions, but the merged answer may not change).
"""

import math

import numpy as np
import pytest

from repro import FexiproIndex, ShardedFexiproIndex
from repro.core.sharded import SharedThreshold, default_shards, shard_spans
from repro.core.stats import aggregate_stats
from repro.exceptions import ValidationError

from conftest import make_mf_like

ALL_VARIANTS = ["F-S", "F-I", "F-SI", "F-SR", "F-SIR"]
N, D, K = 600, 16, 7


def _adversarial_queries(queries):
    """The workload plus an all-zero and a denormal query row."""
    extra = np.zeros((2, queries.shape[1]))
    extra[1] = 5e-310
    return np.vstack([queries[:6], extra])


# ----------------------------------------------------------------------
# The exactness property
# ----------------------------------------------------------------------

@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("shards", [1, 7, N, N + 13])
def test_sharded_bitwise_identical_to_single_scan(variant, shards):
    items, queries = make_mf_like(N, D, seed=90)
    sharded = ShardedFexiproIndex(items, shards=shards, workers=1,
                                  variant=variant)
    for q in _adversarial_queries(queries):
        mine, reports = sharded.query_detailed(q, K)
        truth = sharded.index.query(q, K)
        assert mine.ids == truth.ids
        assert mine.scores == truth.scores  # bitwise, not approx
        # The response's counters are the exact sum of the shard reports.
        total = aggregate_stats(r.stats for r in reports)
        assert mine.stats.as_dict() == total.as_dict()
        assert len(reports) == shards


def test_single_shard_counters_equal_single_scan():
    items, queries = make_mf_like(N, D, seed=91)
    sharded = ShardedFexiproIndex(items, shards=1, workers=1,
                                  variant="F-SIR")
    for q in queries[:5]:
        mine = sharded.query(q, K)
        truth = sharded.index.query(q, K)
        # With one shard the sharded scan IS the single scan — every
        # pruning counter must match, not just the answer.
        assert mine.stats.as_dict() == truth.stats.as_dict()


def test_pooled_scan_matches_inline_scan():
    items, queries = make_mf_like(N, D, seed=92)
    inline = ShardedFexiproIndex(items, shards=6, workers=1,
                                 variant="F-SIR")
    with ShardedFexiproIndex.from_index(inline.index, shards=6,
                                        workers=4) as pooled:
        for q in queries[:6]:
            a = inline.query(q, K)
            b = pooled.query(q, K)
            assert a.ids == b.ids
            assert a.scores == b.scores


def test_shard_skips_fire_and_are_reported():
    items, queries = make_mf_like(2_000, D, seed=93)
    sharded = ShardedFexiproIndex(items, shards=8, workers=1,
                                  variant="F-SIR")
    result, reports = sharded.query_detailed(queries[0], 5)
    assert result.stats.shards_skipped > 0
    skipped = [r for r in reports if r.skipped]
    assert len(skipped) == result.stats.shards_skipped
    for r in skipped:
        # A skipped shard was eliminated by an achieved threshold from
        # earlier bands, before any of its items were scanned.
        assert r.seeded_threshold > -math.inf
        assert r.stats.scanned == 0
        assert r.stats.length_terminated == 1


def test_batch_query_matches_query_loop():
    items, queries = make_mf_like(N, D, seed=94)
    sharded = ShardedFexiproIndex(items, shards=5, workers=1)
    batch = sharded.batch_query(queries[:4], K)
    for q, result in zip(queries[:4], batch):
        assert result.ids == sharded.query(q, K).ids


def test_add_and_remove_items_delegate_and_respan():
    items, queries = make_mf_like(N, D, seed=95)
    sharded = ShardedFexiproIndex(items, shards=4, workers=1,
                                  variant="F-SIR")
    new_ids = sharded.add_items(items[:8] * 1.5)
    assert len(new_ids) == 8
    assert sharded.n == N + 8
    # Base spans still cover the preprocessed tier only; the delta tier
    # rides as one extra pseudo-span appended at scan time.
    assert sharded.spans[-1][1] == N
    snap = sharded.index._live
    assert sharded._catalog_spans(snap)[-1] == (N, N + 8)
    removed = sharded.remove_items(new_ids)
    assert removed == 8
    q = queries[0]
    assert sharded.query(q, K).ids == sharded.index.query(q, K).ids
    # Compaction folds the (now dead) delta rows away and re-bands.
    assert sharded.compact()
    assert sharded.n == N
    assert sharded.spans[-1][1] == N
    assert sharded.query(q, K).ids == sharded.index.query(q, K).ids


# ----------------------------------------------------------------------
# shard_spans / SharedThreshold units
# ----------------------------------------------------------------------

def test_shard_spans_partition_exactly():
    for n, s in ((10, 3), (10, 1), (3, 10), (0, 4), (1000, 16)):
        spans = shard_spans(n, s)
        assert len(spans) == s
        assert spans[0][0] == 0 and spans[-1][1] == n
        sizes = [stop - start for start, stop in spans]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # larger bands first
        for (_, a_stop), (b_start, _) in zip(spans, spans[1:]):
            assert a_stop == b_start


def test_shard_spans_validation():
    with pytest.raises(ValidationError):
        shard_spans(10, 0)
    with pytest.raises(ValidationError):
        shard_spans(10, True)
    with pytest.raises(ValidationError):
        shard_spans(-1, 2)


def test_default_shards_bounds():
    assert 2 <= default_shards() <= 16


def test_shared_threshold_is_monotone():
    cell = SharedThreshold()
    assert cell.value == -math.inf
    assert not cell.offer(-math.inf)  # unfilled buffers never move it
    assert cell.offer(1.5)
    assert not cell.offer(1.0)  # never backwards
    assert not cell.offer(1.5)  # ties are not improvements
    assert cell.offer(2.0)
    assert cell.value == 2.0


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------

def test_requires_blocked_engine():
    items, __ = make_mf_like(100, 8, seed=96)
    with pytest.raises(ValidationError):
        ShardedFexiproIndex(items, engine="reference")
    reference = FexiproIndex(items, engine="reference")
    with pytest.raises(ValidationError):
        ShardedFexiproIndex.from_index(reference)
    with pytest.raises(ValidationError):
        ShardedFexiproIndex.from_index("not an index")


def test_validates_shards_and_workers():
    items, __ = make_mf_like(100, 8, seed=97)
    for bad in (0, -1, True, 2.0):
        with pytest.raises(ValidationError):
            ShardedFexiproIndex(items, shards=bad)
        with pytest.raises(ValidationError):
            ShardedFexiproIndex(items, workers=bad)


def test_from_index_shares_preprocessing():
    items, queries = make_mf_like(300, 12, seed=98)
    index = FexiproIndex(items, variant="F-SIR")
    sharded = ShardedFexiproIndex.from_index(index, shards=3, workers=1)
    assert sharded.index is index
    q = queries[0]
    assert sharded.query(q, K).scores == index.query(q, K).scores
