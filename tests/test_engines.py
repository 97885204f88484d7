"""Reference scanner vs blocked engine: identical results AND counters.

This is the load-bearing equivalence test of the repository: the blocked
engine is only allowed to be faster, never different.
"""

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro import FexiproIndex, VARIANTS
from repro.core.blocked import scan_blocked
from repro.core.index import prepare_query_states
from repro.core.options import ScanOptions
from repro.core.scanner import scan_reference

from conftest import make_mf_like


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("k", [1, 5, 17])
def test_engines_agree_on_results_and_counts(variant, k):
    items, queries = make_mf_like(700, 18, seed=42)
    reference = FexiproIndex(items, variant=variant, engine="reference")
    blocked = FexiproIndex(items, variant=variant, engine="blocked",
                           block_size=128)
    for q in queries[:8]:
        ref = reference.query(q, k)
        blk = blocked.query(q, k)
        np.testing.assert_allclose(blk.scores, ref.scores, atol=1e-9)
        assert blk.stats.as_dict() == ref.stats.as_dict()


@pytest.mark.parametrize("block_size", [1, 7, 64, 100000])
def test_block_size_never_changes_answers(block_size):
    items, queries = make_mf_like(350, 12, seed=13)
    baseline = FexiproIndex(items, variant="F-SIR", engine="reference")
    blocked = FexiproIndex(items, variant="F-SIR", engine="blocked",
                           block_size=block_size)
    for q in queries[:5]:
        ref = baseline.query(q, k=6)
        blk = blocked.query(q, k=6)
        assert blk.ids == ref.ids or np.allclose(blk.scores, ref.scores)
        assert blk.stats.as_dict() == ref.stats.as_dict()


def test_blocked_handles_tiny_index():
    items, queries = make_mf_like(3, 8, seed=1)
    blocked = FexiproIndex(items, variant="F-SIR", block_size=2)
    result = blocked.query(queries[0], k=3)
    assert len(result) == 3


def test_engines_agree_under_adversarial_queries():
    # Queries aligned / anti-aligned with items stress the threshold paths.
    items, __ = make_mf_like(500, 10, seed=3)
    reference = FexiproIndex(items, variant="F-SIR", engine="reference")
    blocked = FexiproIndex(items, variant="F-SIR", engine="blocked",
                           block_size=64)
    for q in (items[0], -items[0], items[10] * 100, np.zeros(10)):
        ref = reference.query(q, k=4)
        blk = blocked.query(q, k=4)
        np.testing.assert_allclose(blk.scores, ref.scores, atol=1e-9)
        assert blk.stats.as_dict() == ref.stats.as_dict()


# --- Replay stress: the blocked engine's segment bookkeeping ---------------
#
# The blocked engine walks only each block's candidates and attributes the
# other visited rows afterwards, per segment of constant live (t, t').  A
# segment opens whenever an admission moves t or t'.  The catalog below
# forces every kind of admission: exact-duplicate rows tie bitwise (t stays
# put), and queries scaled into the denormal range quantise scores so that
# distinct rows tie too (the k-th slot changes hands at an equal score, so
# t' moves while t does not).

STRESS_BLOCK_SIZES = [1, 2, 3, 7, 64]


def _stress_case():
    items, queries = make_mf_like(300, 12, seed=5)
    items = np.concatenate([items, items[:80]])
    rows = [queries[0], queries[1], -queries[2], items[4], np.zeros(12),
            queries[3] * 1e-308, queries[4] * 1e-322, queries[5] * 1e-322,
            queries[6] * 1e-323]
    return items, np.array(rows)


def _span_view(snap, start, stop):
    """``snap`` restricted to sorted positions ``[start, stop)``.

    The reference engine has no span parameter; scanning this view is its
    equivalent of ``scan_blocked(start=..., stop=...)`` (positions come
    back relative to ``start``).
    """
    def cut(part):
        if part is None:
            return None
        view = copy.copy(part)
        for name, value in vars(part).items():
            if isinstance(value, np.ndarray) and value.shape[:1] == (snap.n,):
                setattr(view, name, value[start:stop])
        view.n = stop - start
        return view

    return SimpleNamespace(
        n=stop - start, w=snap.w,
        items_bar=snap.items_bar[start:stop],
        norms_sorted=snap.norms_sorted[start:stop],
        bar_tail_norms=snap.bar_tail_norms[start:stop],
        scaled=cut(snap.scaled), reduction=cut(snap.reduction))


def _outcome(buffer, stats, offset=0):
    ids, scores = buffer.items_and_scores()
    return ([i - offset for i in ids], [float(s).hex() for s in scores],
            stats.as_dict())


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("block_size", STRESS_BLOCK_SIZES)
@pytest.mark.parametrize("k", [1, 10, "n"])
def test_blocked_replay_matches_reference_bitwise(variant, block_size, k):
    items, queries = _stress_case()
    index = FexiproIndex(items, variant=variant, engine="blocked")
    snap = index._live
    k = index.n if k == "n" else k
    start, stop = index.n // 5, (4 * index.n) // 5
    span = _span_view(snap, start, stop)
    for qs in prepare_query_states(snap, queries):
        ref = scan_reference(snap, qs, k)
        blk = scan_blocked(snap, qs, k, block_size)
        assert _outcome(*blk) == _outcome(*ref)

        # A strict warm start: just below the true k-th score.
        kth = ref[0].threshold
        if kth > -math.inf:
            warm = ScanOptions(
                initial_threshold=math.nextafter(kth, -math.inf))
            assert (_outcome(*scan_blocked(snap, qs, k, block_size,
                                           options=warm))
                    == _outcome(*scan_reference(snap, qs, k, options=warm)))

        span_k = min(k, stop - start)
        assert (_outcome(*scan_blocked(snap, qs, span_k, block_size,
                                       start=start, stop=stop), offset=start)
                == _outcome(*scan_reference(span, qs, span_k)))


def test_replay_stress_catalog_moves_t_prime_alone(monkeypatch):
    # Guards the premise of the stress test above: its catalog produces
    # admissions that leave t unchanged, some of which move t' alone.
    items, queries = _stress_case()
    index = FexiproIndex(items, variant="F-SIR", engine="blocked")
    snap = index._live
    reduction_type = type(snap.reduction)
    original = reduction_type.threshold
    calls = []

    def recording(self, t, query, kth_item):
        value = original(self, t, query, kth_item)
        calls.append((t, value))
        return value

    monkeypatch.setattr(reduction_type, "threshold", recording)
    t_still = t_prime_alone = 0
    for qs in prepare_query_states(snap, queries):
        calls.clear()
        scan_blocked(snap, qs, 10, 7)
        for (t_a, tp_a), (t_b, tp_b) in zip(calls, calls[1:]):
            if t_a == t_b:
                t_still += 1
                t_prime_alone += tp_a != tp_b
    assert t_prime_alone > 0
    assert t_still > t_prime_alone


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_blocked_matches_reference_when_the_first_row_terminates(variant):
    # A seed above every score ends the scan on its first row, before the
    # first block computes a single bound.
    items, queries = _stress_case()
    index = FexiproIndex(items, variant=variant, engine="blocked")
    snap = index._live
    above = ScanOptions(initial_threshold=1e9)
    for qs in prepare_query_states(snap, queries[:3]):
        blk = scan_blocked(snap, qs, 10, 64, options=above)
        assert _outcome(*blk) == _outcome(*scan_reference(snap, qs, 10,
                                                          options=above))
        assert blk[1].scanned == 0 and blk[1].length_terminated == 1
