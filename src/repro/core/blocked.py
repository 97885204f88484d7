"""Vectorized block-scan retrieval engine.

CPython's per-element loop overhead makes the literal Algorithm 4/5 scan
(:mod:`repro.core.scanner`) orders of magnitude slower than the same
algorithm in C++.  This engine restores the paper's cost profile by doing
all vector arithmetic with NumPy while keeping the *decisions* — and
therefore the results and every pruning counter — bit-identical to the
reference scan.

How equivalence is kept
-----------------------
Items are processed in length-sorted blocks.  Within a block, each pruning
stage's bound values are precomputed with vectorized kernels using the
threshold ``t0`` frozen at block entry; since the live threshold only grows,
any item a stage would prune under ``t0`` is also pruned under the live
threshold, so later-stage values are lazily computed *only* for
``t0``-survivors and are never needed for anything else.

Only the rows that survive every stage under ``t0`` (the *candidates*) can
reach a full product, so Python walks just those, in order, re-applying the
cascade with the live threshold.  The live pair ``(t, t')`` is constant
between the admissions that move it, which splits the block into a few
segments; the Cauchy–Schwarz termination point is the first failing row of
the last segment, and once the visited prefix is known one array pass
attributes every visited row to the stage the reference scan would have
stopped it at, using its segment's threshold pair.  The stage attribution, early termination and
admitted scores are exactly those of the reference scan, while all O(n*d)
arithmetic and the per-row bookkeeping stay inside NumPy.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .. import _faultsites
from .options import DEFAULT_SCAN_OPTIONS, ScanOptions
from .stats import PruningStats
from .topk import TopKBuffer

if TYPE_CHECKING:  # pragma: no cover - imported only for type checking
    from .index import FexiproIndex, QueryState

#: Default (maximum) number of items per vectorized block.
DEFAULT_BLOCK_SIZE = 1024

#: First-block size of the geometric schedule (see :func:`block_schedule`).
INITIAL_BLOCK_SIZE = 32


def block_schedule(n: int, k: int, cap: int):
    """Yield ``(start, stop)`` block bounds with geometrically growing sizes.

    The scan's threshold ``t`` is useless (``-inf``) until ``k`` results
    exist, so a large first block would be computed exhaustively.  Starting
    small (just past ``k``) and doubling up to ``cap`` establishes the
    threshold cheaply while keeping the steady-state blocks large enough
    for NumPy to be efficient.  Block boundaries never change *decisions*
    (verified by the engine-equivalence tests), only constant factors.
    """
    size = min(cap, max(INITIAL_BLOCK_SIZE, 2 * k))
    start = 0
    while start < n:
        stop = min(start + size, n)
        yield start, stop
        start = stop
        size = min(size * 2, cap)


def scan_blocked(index: "FexiproIndex", qs: "QueryState", k: int,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 *, start: int = 0, stop: Optional[int] = None,
                 options: Optional[ScanOptions] = None,
                 ) -> Tuple[TopKBuffer, PruningStats]:
    """Blocked, vectorized equivalent of :func:`repro.core.scanner.scan_reference`.

    Per-call behaviour rides in ``options`` (a
    :class:`~repro.core.options.ScanOptions`).

    When ``options.timings`` is given, the wall time of each vectorized
    stage section is accumulated per block (a handful of clock calls per
    block — cheap enough to leave on in production serving), with the
    candidate walk and the attribution pass counted as ``select`` and the
    walk's full-product dots as ``full``.

    ``start``/``stop`` restrict the scan to a contiguous span of sorted
    positions (a length-band *shard*); the returned buffer then holds
    absolute positions, so per-shard buffers merge directly.
    ``options.shared`` is an optional
    :class:`repro.core.sharded.SharedThreshold`: its value seeds the live
    threshold and is re-polled at every block boundary.  The cell is
    monotone and only ever holds *achieved* k-th-best scores, so a stale
    read merely weakens pruning — decisions stay exact — and with the
    defaults (full span, no cell) the scan is bit-identical to the
    reference engine.

    ``options.deadline`` is an optional
    :class:`repro.serve.resilience.Deadline`, polled at the same block
    boundaries as ``shared``.  On expiry the scan stops *before* the next
    block and flags ``stats.deadline_hit``; the returned buffer is then
    the **exact** top-k of the ``stats.scanned`` items visited so far —
    every pruned item is provably below the achieved threshold, and the
    length-sorted order makes the visited set a contiguous prefix.  A
    deadline that never fires changes nothing: the poll only gates which
    blocks run, never how any item is scored (property-tested).  Each
    block boundary is also a ``scan`` fault-injection site
    (:mod:`repro._faultsites`), a no-op unless an injector is armed.

    ``options.initial_threshold`` seeds the live threshold ``t`` before
    the first block (the warm-start path of :mod:`repro.serve.cache`).
    The caller must guarantee it is a **strict** lower bound on the
    query's true k-th inner product; every pruning test discards on
    ``bound <= t``, so a strict bound can never touch an item whose score
    ties or beats the true k-th value — ids and scores stay bitwise
    identical to the cold scan (property-tested, including adversarial
    duplicates and ties), only the pruning *counters* change.

    ``options.span`` records one ``block`` event per block boundary (the
    same boundary where ``shared``/``deadline`` are polled) carrying the
    live threshold at block entry, plus termination/deadline events; a
    ``None`` span costs one branch per block.
    """
    opts = DEFAULT_SCAN_OPTIONS if options is None else options
    timings = opts.timings
    shared = opts.shared
    deadline = opts.deadline
    budget = opts.budget
    span = opts.span
    stop = index.n if stop is None else stop
    buffer = TopKBuffer(k)
    stats = PruningStats(n_items=stop - start)
    timed = timings is not None

    items_bar = index.items_bar
    norms = index.norms_sorted
    tail_norms = index.bar_tail_norms
    w = index.w
    q_norm = qs.q_norm
    q_head = qs.q_bar[:w]
    q_tail = qs.q_bar[w:]
    q_tail_norm = qs.q_bar_tail_norm

    scaled = index.scaled
    reduction = index.reduction
    use_integer = scaled is not None
    use_reduction = reduction is not None
    if use_integer:
        head_factor_base = qs.scaled.max_head * scaled.max_head
        tail_factor_base = qs.scaled.max_tail * scaled.max_tail
        e_sq = scaled.e * scaled.e

    t = float(opts.initial_threshold)
    if shared is not None and shared.value > t:
        t = shared.value
    t_prime = -math.inf
    if span is not None:
        span.set(engine="blocked", start=start, stop=stop,
                 initial_threshold=t)

    width = items_bar.shape[1]
    for bstart, bstop in block_schedule(stop - start, k, block_size):
        bstart += start
        bstop += start
        if deadline is not None and deadline.expired():
            stats.deadline_hit = 1
            if span is not None:
                span.event("deadline_expired", position=bstart, threshold=t)
            break
        if budget is not None:
            # Poll-then-charge at the same boundary as the deadline poll:
            # a spent budget stops *before* this block, so the visited set
            # stays a contiguous prefix of exactly `scanned` items.
            if budget.exhausted():
                stats.budget_exhausted = 1
                if span is not None:
                    span.event("budget_exhausted", position=bstart,
                               spent=budget.spent, threshold=t)
                break
            budget.charge((bstop - bstart) * width)
        if _faultsites.active is not None:
            _faultsites.fire(_faultsites.SCAN, f"block={bstart}")
        if shared is not None:
            polled = shared.value
            if polled > t:
                t = polled
                if use_reduction and buffer.full:
                    t_prime = reduction.threshold(t, qs.monotone,
                                                  buffer.kth_item)
        if span is not None:
            span.event("block", start=bstart, stop=bstop, threshold=t)
        t0 = t

        # --- Vectorized precomputation under the frozen threshold t0 ----
        cs = q_norm * norms[bstart:bstop]
        # Everything at and after the first Cauchy-Schwarz failure is dead:
        # norms are sorted descending, so the scan would terminate there.
        dead = np.flatnonzero(cs <= t0)
        prefix = int(dead[0]) if dead.size else bstop - bstart
        block = slice(bstart, bstart + prefix)

        ub1 = q_tail_norm * tail_norms[block]

        # Stage filters keep rows whose bound is *not* `<= t0` (rather
        # than `> t0`), so a NaN bound survives exactly as it does the
        # reference scan's scalar tests.  Each stage's bound sum is kept
        # over the whole prefix (NaN where the stage was not reached) for
        # the walk and the attribution pass below.
        if timed:
            tick = perf_counter()
        if use_integer:
            # The scaled coordinates are integers of magnitude <= e stored
            # as floats; at any practical e their products and sums stay
            # below 2**53, hence exact in any summation order, so the
            # contiguous slice needs no gathered copy.
            int_dot = scaled.float_head[block] @ qs.scaled.float_head
            iu = (int_dot + qs.scaled.abs_sum_head
                  + scaled.abs_sum_head[block] + scaled.w)
            b_l = iu * (head_factor_base / e_sq)
            lo_partial = b_l + ub1
            survivors = np.flatnonzero(~(lo_partial <= t0))
            b_h = np.full(prefix, np.nan)
            if survivors.size:
                rows = survivors + bstart
                tail_len = scaled.d - scaled.w
                if tail_len:
                    int_dot = scaled.float_tail[rows] @ qs.scaled.float_tail
                    iu = (int_dot + qs.scaled.abs_sum_tail
                          + scaled.abs_sum_tail[rows] + tail_len)
                    b_h[survivors] = iu * (tail_factor_base / e_sq)
                else:
                    b_h[survivors] = 0.0
            lo_full = b_l + b_h
            alive = survivors[~(lo_full[survivors] <= t0)]
        else:
            alive = np.arange(prefix)
        if timed:
            now = perf_counter()
            timings.integer += now - tick
            tick = now

        v_head = np.full(prefix, np.nan)
        if alive.size:
            v_head[alive] = items_bar[alive + bstart, :w] @ q_head
        lo_incremental = v_head + ub1
        alive = alive[~(lo_incremental[alive] <= t0)]
        if timed:
            now = perf_counter()
            timings.incremental += now - tick
            tick = now

        mono = np.full(prefix, np.nan)
        if use_reduction and alive.size:
            rows = alive + bstart
            head_partial = (2.0 * v_head[alive] * qs.monotone.inv_norm
                            + qs.monotone.c_head
                            + reduction.item_const_head[rows])
            mono[alive] = head_partial + (
                qs.monotone.tail_norm * reduction.item_tail_norm[rows]
            ) + reduction.slack
        if timed:
            now = perf_counter()
            timings.monotone += now - tick
            tick = now

        # --- Candidate walk with the live threshold ---------------------
        # `alive` now holds the candidates: the live threshold only grows,
        # so no other row can reach a full product.  The walk re-tests
        # them in order under the live (t, t_prime); a candidate is pruned
        # iff some stage bound is `<= t` (fmin skips NaN bounds, which
        # never prune).  The pair is constant between admissions that
        # move it, so each such admission opens a new segment.  `cs` is
        # non-increasing inside the block, so every row before a
        # candidate that passes Cauchy-Schwarz passes it too: the walk
        # stops at the first candidate that fails, and the scan ends at
        # the first failing row of the last segment.
        #
        # Full products are NOT precomputed with a batched GEMV: BLAS can
        # round the same row's product differently depending on which other
        # rows share the call (alignment-dependent kernels), and admitted
        # scores must depend only on the row so that a sharded scan —
        # whose survivor subsets differ under seeded thresholds — returns
        # scores bit-identical to the single scan.  Survivors of the full
        # cascade are rare, so the per-row dots below are cheap; they use
        # the reference engine's exact formula.
        gate = lo_incremental[alive]
        if use_integer:
            gate = np.fmin(gate, np.fmin(lo_partial[alive], lo_full[alive]))
        seg_starts, seg_t, seg_tp = [0], [t], [t_prime]
        full_time = 0.0
        for c, cs_c, bound, mono_bound in zip(
                alive.tolist(), cs[alive].tolist(), gate.tolist(),
                mono[alive].tolist()):
            if cs_c <= t:
                break
            if bound <= t or (t_prime > -math.inf and mono_bound <= t_prime):
                continue
            row = bstart + c
            if timed:
                tock = perf_counter()
            value = float(q_head @ items_bar[row, :w])
            value += float(q_tail @ items_bar[row, w:])
            if timed:
                full_time += perf_counter() - tock
            stats.full_products += 1
            if buffer.push(value, row):
                # The live threshold only ever grows: a seeded/polled
                # cross-shard value may exceed the local buffer's own
                # k-th best, in which case it stays in charge.
                if buffer.threshold > t:
                    t = buffer.threshold
                if use_reduction and t > -math.inf and buffer.full:
                    t_prime = reduction.threshold(
                        t, qs.monotone, buffer.kth_item
                    )
                if t != seg_t[-1] or t_prime != seg_tp[-1]:
                    seg_starts.append(c + 1)
                    seg_t.append(t)
                    seg_tp.append(t_prime)
        fails = np.flatnonzero(cs[seg_starts[-1]:prefix] <= t)
        end = seg_starts[-1] + int(fails[0]) if fails.size else prefix

        # --- Deferred attribution of the visited prefix [0, end) --------
        # One pass in the reference cascade's compare order, each row
        # tested against its own segment's (t, t_prime).  Rows that pass
        # every test are exactly the walk's full products.
        stats.scanned += end
        if len(seg_starts) == 1:
            live_t, live_tp = seg_t[0], seg_tp[0]
        else:
            lengths = np.diff(seg_starts + [end])
            live_t = np.repeat(seg_t, lengths)
            live_tp = np.repeat(seg_tp, lengths)
        rest = np.ones(end, dtype=bool)
        if use_integer:
            cut = lo_partial[:end] <= live_t
            stats.pruned_integer_partial += int(np.count_nonzero(cut))
            rest ^= cut
            cut = lo_full[:end] <= live_t
            cut &= rest
            stats.pruned_integer_full += int(np.count_nonzero(cut))
            rest ^= cut
        cut = lo_incremental[:end] <= live_t
        cut &= rest
        stats.pruned_incremental += int(np.count_nonzero(cut))
        if use_reduction:
            rest ^= cut
            cut = mono[:end] <= live_tp
            cut &= rest
            cut &= live_tp > -math.inf
            stats.pruned_monotone += int(np.count_nonzero(cut))
        if timed:
            timings.full += full_time
            timings.select += perf_counter() - tick - full_time
        if end < bstop - bstart:
            stats.length_terminated = 1
            if span is not None:
                span.event("length_terminated", position=bstart + end,
                           threshold=t)
            break
    if span is not None:
        span.set(scanned=stats.scanned, full_products=stats.full_products,
                 final_threshold=t)
    return buffer, stats
