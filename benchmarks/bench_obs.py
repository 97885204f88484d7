"""Observability benchmark: what does tracing cost the hot path?

PR 5 threads an optional span through query preparation, the blocked
scan's block loop, the shard fan-out, and the serving merge.  The design
budget is explicit: a service with **no tracer configured** pays one
``is None`` branch per block, and a tracer that **head-samples a query
away** decides once at the root span and hands ``None`` children down
the same branch.  This bench measures both against the untraced
baseline, plus the fully-traced arm for scale:

1. **untraced** — ``trace_sample_rate=0.0`` (the default): no tracer
   object exists.  This is the baseline.
2. **unsampled** — a tracer is attached but samples nothing
   (``sample_rate=0.0``).  This arm is gated: tracing that is
   configured-but-off must cost < 3% versus untraced, measured as the
   median over queries of each query's unsampled/untraced latency ratio
   within one round.  Rounds are interleaved so clock drift and cache
   state cannot masquerade as a regression.
3. **traced** — ``sample_rate=1.0``, every span exported to the ring.
   Informational only; full tracing is a debugging posture, not a
   serving posture, and its cost scales with block count.

Correctness is asserted unconditionally: all three arms return
bit-identical ids, scores, and pruning counters — tracing is pure
observation.  Machine-readable output lands in
``results/BENCH_obs.json`` (CI uploads ``BENCH_*.json`` artifacts and
the regression gate compares ``unsampled_overhead_fraction`` against
the committed baseline).
"""

import os
import statistics

import numpy as np

from repro import FexiproIndex, Tracer
from repro.analysis import report
from repro.serve import RetrievalService, ServiceConfig

QUICK = os.environ.get("REPRO_QUICK", "") not in ("", "0")

# Quick mode keeps more items than other benches on purpose: the
# overhead fractions divide by per-query latencies, and sub-millisecond
# queries drown the signal in scheduler jitter.
N_ITEMS = 12_000 if QUICK else 30_000
N_QUERIES = 24 if QUICK else 96
D = 64
K = 10
ROUNDS = 7 if QUICK else 9
OVERHEAD_GATE = 0.03  # 3% median paired overhead, full mode only


def _workload():
    rng = np.random.default_rng(2017)
    spectrum = np.exp(-0.08 * np.arange(D))
    items = rng.normal(size=(N_ITEMS, D)) * spectrum
    items *= rng.lognormal(0.0, 0.4, size=(N_ITEMS, 1)) * 0.3
    queries = rng.normal(size=(N_QUERIES, D)) * spectrum * 0.3
    rotation, __ = np.linalg.qr(rng.normal(size=(D, D)))
    return items @ rotation, queries @ rotation


def _run_batch(index, queries, sample_rate):
    """One batch through the serving path under a tracing posture.

    ``sample_rate=None`` means untraced (no tracer object at all);
    otherwise a fresh service-external tracer with that head-sampling
    rate is attached.
    """
    config = ServiceConfig(workers=1, collect_timings=False)
    tracer = None if sample_rate is None else Tracer(
        sample_rate=sample_rate)
    with RetrievalService(index, config, tracer=tracer) as service:
        response = service.batch(queries, K)
    assert response.complete
    return response


def test_tracing_overhead_three_postures(benchmark, sink):
    items, queries = _workload()
    index = FexiproIndex(items, variant="F-SIR")

    def measure():
        # Interleaved rounds: untraced / unsampled / traced alternate so
        # drift and cache warmth hit all arms equally.  Each round keeps
        # the per-query latencies of every arm in query order, so a query
        # can be compared with itself under another posture.
        rounds = []
        last = {}
        for _ in range(ROUNDS):
            latencies = {}
            for name, rate in (("untraced", None), ("unsampled", 0.0),
                               ("traced", 1.0)):
                response = _run_batch(index, queries, rate)
                latencies[name] = [r.elapsed for r in response.results]
                last[name] = response
            rounds.append(latencies)
        return rounds, last

    rounds, last = benchmark.pedantic(measure, rounds=1, iterations=1)

    def _p50(name):
        return statistics.median(
            elapsed for latencies in rounds for elapsed in latencies[name])

    def _overhead(name):
        # Paired estimator: each query's latency under the posture divided
        # by the same query's untraced latency in the same round, median
        # over all (round, query) pairs, minus one.  Comparing the p50s of
        # two independently pooled samples instead lets per-query cost
        # differences and between-batch drift swamp a few-percent effect.
        ratios = [arm / base
                  for latencies in rounds
                  for arm, base in zip(latencies[name],
                                       latencies["untraced"])
                  if base > 0]
        return statistics.median(ratios) - 1.0 if ratios else 0.0

    untraced_p50 = _p50("untraced")
    unsampled_p50 = _p50("unsampled")
    traced_p50 = _p50("traced")
    unsampled_overhead = _overhead("unsampled")
    traced_overhead = _overhead("traced")

    # Tracing is pure observation: every arm returns identical results.
    anchor = last["untraced"]
    for name in ("unsampled", "traced"):
        for a, b in zip(anchor.results, last[name].results):
            assert a.ids == b.ids
            assert a.scores == b.scores
            assert a.stats.as_dict() == b.stats.as_dict()

    cores = os.cpu_count() or 1
    with sink.section("obs") as out:
        report.print_header(
            f"Tracing overhead by posture "
            f"({N_QUERIES} queries x {N_ITEMS} items x {D} dims, k={K})",
            f"host cores: {cores}, rounds: {ROUNDS}"
            + (" [quick mode]" if QUICK else ""),
            out=out,
        )
        report.print_table(
            ["posture", "p50 query latency (ms)", "vs untraced"],
            [["untraced (no tracer)", round(1e3 * untraced_p50, 4), "-"],
             ["unsampled (rate 0.0)", round(1e3 * unsampled_p50, 4),
              f"{unsampled_overhead:+.2%}"],
             ["traced (rate 1.0)", round(1e3 * traced_p50, 4),
              f"{traced_overhead:+.2%}"]],
            out=out,
        )

    sink.write_json("BENCH_obs", {
        "bench": "obs",
        "quick": QUICK,
        "host_cores": cores,
        "workload": {"n_items": N_ITEMS, "n_queries": N_QUERIES,
                     "d": D, "k": K},
        "rounds": ROUNDS,
        "untraced_p50_seconds": untraced_p50,
        "unsampled_p50_seconds": unsampled_p50,
        "traced_p50_seconds": traced_p50,
        "unsampled_overhead_fraction": unsampled_overhead,
        "traced_overhead_fraction": traced_overhead,
        "overhead_gate": OVERHEAD_GATE,
    })

    if not QUICK:
        assert unsampled_overhead < OVERHEAD_GATE, (
            f"attached-but-unsampled tracer costs "
            f"{unsampled_overhead:.2%} (gate {OVERHEAD_GATE:.0%}): "
            f"untraced {untraced_p50*1e3:.3f}ms vs unsampled "
            f"{unsampled_p50*1e3:.3f}ms"
        )
