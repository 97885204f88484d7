"""The benchmark's three workloads.

Each drives the program from one process with one client in a closed
loop: the next call goes out only when the previous one has returned.
A workload's inputs come from its seed alone (:meth:`Workload.inputs`).
The run is then staged (untimed preparation such as the oracle's
answers), set up (timed, :data:`SETUP_REPEATS` times), measured, torn
down and checked against the brute-force oracle.

Every timing that feeds an end-to-end metric is CPU time of the program
(this process and its worker processes, :func:`~host.cpu_since`), not
wall time, scaled to the reference speed (:mod:`reference`) by the
median of reference samples taken between calls, one for every
:data:`REFERENCE_EVERY_S` of the loop.
On a shared host the wall clock also counts the time other tenants held
the CPU, and CPU time still moves with their load; both moved the same
code's figures by a third between runs.  Wall-clock and unscaled
figures are kept in the host record.

With a :class:`~tracing.SpanRecorder` attached, every other operation is
wrapped in a span, and every operation is followed by probe calls that
time single layers (so traced and plain operations run in the same
surroundings and their difference is the cost of tracing);
:meth:`Workload.layer_metrics` reads the per-layer ledger off the spans.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import reference
from repro.api import Fexipro, ScanOptions, ServiceConfig, StageTimings
from repro.core.index import prepare_query_states
from repro.datasets.zoo import DatasetRecipe

from host import cpu_clocks, cpu_since, usable_cores, workers_peak_rss_mb
from oracle import (CatalogMirror, brute_topk, check_audience, check_topk,
                    tolerance)
from percentiles import mean, min_samples, percentile
from tracing import SpanRecorder, maybe_span

#: Set-ups per run; ``setup_s`` is the median of their CPU seconds.
SETUP_REPEATS = 7
#: The tail percentile of per-query CPU time the host record reports.
#: It is not an end-to-end metric: a batch row's CPU time is inferred from
#: its wall-clock scan time, whose tail on a shared host is preemption.
TAIL_PCT = 95
#: A run whose loop has not gathered enough samples for the tail
#: percentile by ``--seconds`` keeps going, up to this many times longer.
MAX_STRETCH = 3.0
#: Seed of every workload's catalog.  Which catalog a seed draws moves
#: pruning, and with it query cost, by up to a quarter, which would swamp
#: any change worth gating.  So each workload runs on one fixed catalog,
#: as on a fixed dataset, and ``--seed`` draws the users, their order and
#: the operation mix.
CATALOG_SEED = 0
#: Users each run draws from its workload's pool of generated users.
USERS = 4096
#: Loop seconds per reference sample.  Samples are taken between calls,
#: so after a long call (a 256-row batch) several are taken at once.
REFERENCE_EVERY_S = 0.25
#: Cascade stages timed through ``ScanOptions(timings=StageTimings())``.
STAGES = ("integer", "incremental", "monotone", "full", "select")


def _answer(result):
    """What the oracle needs of one top-k answer: ``(ids, scores)``
    arrays, or the reason it failed.  Keeping arrays rather than result
    objects keeps the benchmark's own garbage out of the timed loop."""
    if isinstance(result, Exception):
        return f"raised {result!r}"
    return np.asarray(result.ids, dtype=np.int64), np.asarray(result.scores)


def _median(values) -> float:
    """Median of a per-layer sample; 0.0 for a layer the run left idle."""
    return statistics.median(values) if values else 0.0


@dataclass
class Outcome:
    """Attempted and failed operations, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, reason: Optional[str]) -> None:
        """Count one attempted operation; ``reason`` marks it failed."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


class Workload:
    """One named set of inputs and the loop that drives the program."""

    name = ""
    #: Operations per throughput window; ``ops_per_cpu_s`` counts whole
    #: windows, and a run stops only at a window's end.
    WINDOW_OPS = 100
    #: Whether the loop's CPU time is scaled to the reference speed.  The
    #: reference is timed on the benchmark's thread, so it tracks work
    #: that runs one core at a time, not work spread over every core.
    SCALED = True

    def __init__(self, seed: int, workdir: Path,
                 tracer: Optional[SpanRecorder] = None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.cores = usable_cores()
        self.outcome = Outcome()
        #: Per-query CPU seconds, and the same queries' wall seconds.
        self.query_s: List[float] = []
        self.wall_query_s: List[float] = []
        #: CPU seconds per query of each call in the loop, with whether
        #: the call was wrapped in a span (for ``trace.overhead_frac``).
        self.calls: List[Tuple[float, bool]] = []
        #: ``(operations, CPU seconds)`` of each whole window, and of the
        #: window still open.
        self.windows: List[Tuple[int, float]] = []
        self._window_ops = 0
        self._window_s = 0.0
        #: Reference samples, and when the loop last caught up on them.
        self.refs: List[float] = []
        self._refs_at = 0.0
        #: Counted operations and the wall seconds of their calls.
        self.ops = 0
        self.ops_wall_s = 0.0
        self.loop_seconds = 0.0
        self.snapshot: Optional[dict] = None
        self.workers_rss_mb = 0.0

    # -- the steps run.py drives ----------------------------------------

    def inputs(self) -> Dict[str, np.ndarray]:
        """Every input the workload feeds the program, from the seed."""
        raise NotImplementedError

    def stage(self) -> None:
        """Untimed preparation before the first set-up."""
        self.data = self.inputs()

    def setup(self) -> None:
        """Build or load, open, calibrate and warm up (timed)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Close whatever :meth:`setup` opened."""

    def warm_up(self) -> None:
        """Untimed calls after the last set-up that fill the caches the
        first timed operations would otherwise pay for."""

    def step(self, i: int, traced: bool) -> None:
        """Run operation ``i`` of the closed loop."""
        raise NotImplementedError

    def check(self) -> None:
        """Check every recorded answer against the oracle."""
        raise NotImplementedError

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer ledger of a traced run (idle layers read 0)."""
        raise NotImplementedError

    def host_extra(self) -> dict:
        """Deployment facts for the host record."""
        return {}

    # -- shared machinery -----------------------------------------------

    def measure(self, seconds: float) -> None:
        """Run the closed loop for ``seconds``, then to the end of the open
        window (longer only when the tail percentile still lacks samples,
        up to :data:`MAX_STRETCH`)."""
        need = min_samples(TAIL_PCT)
        self.warm_up()
        started = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= MAX_STRETCH * seconds or (
                    elapsed >= seconds and len(self.query_s) >= need
                    and self._window_ops == 0):
                break
            self.step(i, self.tracer is not None and i % 2 == 0)
            i += 1
        self.loop_seconds = time.perf_counter() - started

    def span(self, name: str, traced: bool = True, **attrs):
        """A span when this run traces and ``traced`` is set."""
        return maybe_span(self.tracer if traced else None, name, **attrs)

    def _calibrate(self, fx: Fexipro) -> None:
        """Fit the cost model before timing when the planner will run."""
        if fx.index.engine == "auto":
            with self.span("analysis.cost_model.calibrate"):
                fx.calibrate()

    def _timed(self, call, ops: int = 1, counted: bool = True):
        """``(result or exception, wall seconds, CPU seconds)`` of one
        program call that completes ``ops`` operations; ``counted=False``
        leaves the call out of ``ops_per_cpu_s``."""
        if counted:
            self._sample_reference()
        clocks = cpu_clocks()
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as error:  # a failed op is counted, not fatal
            out = error
        wall = time.perf_counter() - t0
        cpu = cpu_since(clocks)
        if not counted:
            return out, wall, cpu
        self.ops += ops
        self.ops_wall_s += wall
        self._window_ops += ops
        self._window_s += cpu
        if self._window_ops >= self.WINDOW_OPS:
            self.windows.append((self._window_ops, self._window_s))
            self._window_ops, self._window_s = 0, 0.0
        return out, wall, cpu

    def _sample_reference(self) -> None:
        """Take the reference samples due since the last ones: one per
        :data:`REFERENCE_EVERY_S` of the loop, at least one per run."""
        now = time.perf_counter()
        due = (int((now - self._refs_at) / REFERENCE_EVERY_S)
               if self.refs else 1)
        for __ in range(due):
            self.refs.append(reference.sample())
        if due:
            self._refs_at = now

    def end_to_end(self) -> Dict[str, float]:
        """Per-query CPU time and operations per CPU-second of the loop,
        at the reference speed (unless :attr:`SCALED` is off)."""
        scale = reference.scale(self.refs) if self.SCALED else 1.0
        return {
            "query_cpu_p50_ms": percentile(self.query_s, 50) * scale * 1e3,
            "ops_per_cpu_s": sum(ops for ops, __ in self.windows)
            / sum(cpu for __, cpu in self.windows) / scale,
        }

    def raw_figures(self) -> Dict[str, float]:
        """The tail, wall-clock and unscaled CPU figures, for the host
        record."""
        cpu = self.query_s
        return {
            "queries": len(cpu),
            f"query_cpu_p{TAIL_PCT}_ms": percentile(cpu, TAIL_PCT)
            * (reference.scale(self.refs) if self.SCALED else 1.0) * 1e3
            if len(cpu) >= min_samples(TAIL_PCT) else None,
            "wall_query_p50_ms": statistics.median(self.wall_query_s) * 1e3
            if self.wall_query_s else None,
            "wall_ops_per_s": self.ops / self.ops_wall_s
            if self.ops_wall_s else None,
            "unscaled_query_cpu_p50_ms": statistics.median(cpu) * 1e3
            if cpu else None,
            "reference_ms": statistics.median(self.refs) * 1e3
            if self.refs else None,
            "reference_samples": len(self.refs),
        }

    def _setup_seconds(self, name: str) -> float:
        return _median(self.tracer.seconds(name)) if self.tracer else 0.0

    def _scan_metrics(self, samples) -> Dict[str, float]:
        """Cascade stage times and pruning counts per scanned query.

        ``samples`` holds ``(stage_seconds, stats, scans, k)`` tuples,
        one per program call that ran ``scans`` scans.
        """
        scans = sum(s[2] for s in samples)
        if not scans:
            return {}
        out = {f"core.scan.{stage}_ms":
               sum(s[0].get(stage, 0.0) for s in samples) / scans * 1e3
               for stage in STAGES}
        total = {key: sum(s[1][key] for s in samples)
                 for key in ("n_items", "scanned", "length_terminated",
                             "full_products")}
        out["core.scan.scanned_frac"] = total["scanned"] / max(
            total["n_items"], 1)
        out["core.scan.length_terminated_frac"] = \
            total["length_terminated"] / scans
        out["core.scan.full_products_per_query"] = \
            total["full_products"] / scans
        out["core.scan.full_per_result"] = total["full_products"] / sum(
            s[2] * s[3] for s in samples)
        return out

    def _trace_overhead(self) -> float:
        traced = [s for s, t in self.calls if t]
        plain = [s for s, t in self.calls if not t]
        if not traced or not plain:
            return 0.0
        base = statistics.median(plain)
        return (statistics.median(traced) - base) / base

    def _service_host(self) -> dict:
        snap = self.snapshot or {}
        executor = snap.get("executor", {})
        return {
            "executor_configured": executor.get("configured"),
            "executor_mode": executor.get("mode"),
            "workers": snap.get("workers"),
        }

    def _draw_users(self, ds) -> Dict[str, np.ndarray]:
        """The catalog and :data:`USERS` users drawn from its pool."""
        pick = np.random.default_rng(self.seed).choice(ds.m, USERS,
                                                        replace=False)
        return {"items": ds.items, "users": ds.queries[pick]}

    def _record_call(self, wall: float, cpu: float, traced: bool) -> None:
        """Record a call that answered one query."""
        self.query_s.append(cpu)
        self.wall_query_s.append(wall)
        self.calls.append((cpu, traced))


# ----------------------------------------------------------------------
# online-skewed
# ----------------------------------------------------------------------

class OnlineSkewed(Workload):
    """One user at a time through ``Fexipro.query`` on a skewed catalog."""

    name = "online-skewed"
    K = 10
    RECIPE = DatasetRecipe(name="online-skewed", n_items=100_000,
                           n_queries=8 * USERS, d=64, spectral_decay=0.08,
                           norm_sigma=0.5, popularity_bias=0.6)

    def inputs(self):
        return self._draw_users(self.RECIPE.generate(CATALOG_SEED))

    def stage(self):
        super().stage()
        self.top_ids, self.top_scores = brute_topk(
            self.data["users"], self.data["items"], self.K)
        self.max_norm = float(
            np.linalg.norm(self.data["items"], axis=1).max())
        self.answers = []

    def setup(self):
        with self.span("core.index.build"):
            self.fx = Fexipro(self.data["items"])
        self._calibrate(self.fx)
        self.fx.query(self.data["users"][0], k=self.K)

    def teardown(self):
        self.fx = None

    def step(self, i, traced):
        user = i % len(self.data["users"])
        q = self.data["users"][user]
        with self.span("api.query", traced):
            result, wall, cpu = self._timed(
                lambda: self.fx.query(q, k=self.K))
        self._record_call(wall, cpu, traced)
        self.answers.append((user, _answer(result)))
        if self.tracer is not None:
            self._probe(q)

    def _probe(self, q):
        """Time the layers under ``Fexipro.query`` for one query."""
        index = self.fx.index
        with self.span("core.index.query"):
            index.query(q, k=self.K)
        timings = StageTimings()
        with self.span("core.scan") as sp:
            result = index.query(q, k=self.K,
                                 options=ScanOptions(timings=timings))
            sp.attrs.update(stages=timings.as_dict(),
                            stats=result.stats.as_dict())
        with self.span("core.index.prepare"):
            prepare_query_states(index, q.reshape(1, -1))
        with self.span("floor.blas"):
            scores = self.data["items"] @ q
            np.argpartition(-scores, self.K - 1)[:self.K]

    def check(self):
        items, users = self.data["items"], self.data["users"]
        for user, answer in self.answers:
            if isinstance(answer, str):
                self.outcome.record(f"query {answer}")
                continue
            q = users[user]
            self.outcome.record(check_topk(
                *answer, q, items, self.top_ids[user], self.top_scores[user],
                tolerance(float(np.linalg.norm(q)), self.max_norm)))

    def layer_metrics(self):
        tr = self.tracer
        index_s = _median(tr.seconds("core.index.query"))
        floor_s = _median(tr.seconds("floor.blas"))
        out = {
            "api.overhead_ms":
                (_median(tr.seconds("api.query")) - index_s) * 1e3,
            "core.index.build_s": self._setup_seconds("core.index.build"),
            "core.index.prepare_ms":
                _median(tr.seconds("core.index.prepare")) * 1e3,
            "analysis.cost_model.calibrate_s":
                self._setup_seconds("analysis.cost_model.calibrate"),
            "floor.blas_ms": floor_s * 1e3,
            "core.scan.vs_floor": index_s / floor_s if floor_s else 0.0,
            "trace.overhead_frac": self._trace_overhead(),
        }
        out.update(self._scan_metrics(
            [(s.attrs["stages"], s.attrs["stats"], 1, self.K)
             for s in tr.named("core.scan")]))
        return out

    def host_extra(self):
        return {"surface": "Fexipro.query", "engine": self.fx.index.engine}


# ----------------------------------------------------------------------
# batch-flat
# ----------------------------------------------------------------------

class BatchFlat(Workload):
    """256-user chunks through ``RetrievalService.batch`` on a loaded
    index over the flat, Netflix-like catalog."""

    name = "batch-flat"
    K = 50
    CHUNK_ROWS = 256
    WINDOW_OPS = CHUNK_ROWS
    #: A batch keeps a worker busy on every core.  In three sets of ten
    #: runs the reference spread 6-13% between runs while the batches'
    #: raw CPU time spread 5-8%, so scaling only added noise.
    SCALED = False
    RECIPE = DatasetRecipe(name="batch-flat", n_items=30_000,
                           n_queries=8 * USERS, d=32, spectral_decay=0.045,
                           norm_sigma=0.12, popularity_bias=0.15)

    def inputs(self):
        return self._draw_users(self.RECIPE.generate(CATALOG_SEED))

    def stage(self):
        super().stage()
        self.path = self.workdir / f"batch-flat-{self.seed}.fx"
        Fexipro(self.data["items"]).save(self.path)
        self.max_norm = float(
            np.linalg.norm(self.data["items"], axis=1).max())
        self.answers = []
        self.svc = None

    def setup(self):
        with self.span("core.persist.load"):
            fx = Fexipro.load(self.path)
        self._calibrate(fx)
        self.svc = fx.serve(ServiceConfig(workers=self.cores))
        # The first batch starts the worker processes and publishes the
        # index replica they scan.
        self.svc.batch(self.data["users"][:2 * self.cores], k=self.K)

    def measure(self, seconds):
        super().measure(seconds)
        self.snapshot = self.svc.metrics_snapshot()
        self.workers_rss_mb = workers_peak_rss_mb()

    def teardown(self):
        if self.svc is not None:
            self.svc.close()
            self.svc = None

    def warm_up(self):
        # The first full batch after a set-up runs slow rows while the
        # workers fault in the replica they scan.
        self.svc.batch(self.data["users"][:self.CHUNK_ROWS], k=self.K)

    def step(self, i, traced):
        n_chunks = len(self.data["users"]) // self.CHUNK_ROWS
        lo = (i % n_chunks) * self.CHUNK_ROWS
        rows = self.data["users"][lo:lo + self.CHUNK_ROWS]
        with self.span("serve.service.batch", traced) as sp:
            resp, wall, cpu = self._timed(
                lambda: self.svc.batch(rows, k=self.K), ops=len(rows))
        if isinstance(resp, Exception):
            self.answers.append((lo, [_answer(resp)] * len(rows)))
            return
        failed = {e.index: e.error for e in resp.errors}
        self.answers.append((lo, [
            _answer(result) if result is not None
            else f"failed: {failed.get(j)!r}"
            for j, result in enumerate(resp.results)]))
        self.calls.append((cpu / len(rows), traced))
        # The service reports each row's scan in wall seconds; the batch's
        # CPU time is shared out among its rows in that proportion.
        elapsed = [r.elapsed for r in resp.results if r is not None]
        busy = sum(elapsed)
        if busy > 0:
            self.query_s.extend(e * cpu / busy for e in elapsed)
            self.wall_query_s.extend(elapsed)
        if traced:
            sp.attrs.update(
                prepare_s=resp.prepare_time, scans=len(rows),
                busy_frac=busy / (wall * self.cores),
                scan_s=busy, stages=resp.timings.as_dict()
                if resp.timings is not None else {},
                stats=resp.stats.as_dict())
        if self.tracer is not None:
            with self.span("floor.blas", rows=len(rows)):
                scores = rows @ self.data["items"].T
                np.argpartition(-scores, self.K - 1, axis=1)[:, :self.K]

    def check(self):
        items, users = self.data["items"], self.data["users"]
        for lo, answers in self.answers:
            rows = users[lo:lo + self.CHUNK_ROWS]
            top_ids, top_scores = brute_topk(rows, items, self.K)
            for j, answer in enumerate(answers):
                if isinstance(answer, str):
                    self.outcome.record(f"row {lo + j} {answer}")
                    continue
                self.outcome.record(check_topk(
                    *answer, rows[j], items, top_ids[j], top_scores[j],
                    tolerance(float(np.linalg.norm(rows[j])),
                              self.max_norm)))

    def layer_metrics(self):
        tr = self.tracer
        batches = tr.named("serve.service.batch")
        floor = tr.named("floor.blas")
        floor_s = sum(s.seconds for s in floor) / max(
            sum(s.attrs["rows"] for s in floor), 1)
        scan_s = sum(s.attrs["scan_s"] for s in batches) / max(
            sum(s.attrs["scans"] for s in batches), 1)
        pool = (self.snapshot or {}).get("executor", {}).get("pool") or {}
        out = {
            "core.persist.load_s": self._setup_seconds("core.persist.load"),
            "analysis.cost_model.calibrate_s":
                self._setup_seconds("analysis.cost_model.calibrate"),
            "serve.service.prepare_ms":
                _median([s.attrs["prepare_s"] for s in batches]) * 1e3,
            "serve.service.worker_busy_frac":
                _median([s.attrs["busy_frac"] for s in batches]),
            "serve.procpool.replica_mb": sum(
                r["nbytes"] for r in pool.get("replicas", [])) / 2**20,
            "serve.procpool.workers_rss_mb": self.workers_rss_mb,
            "floor.blas_ms": floor_s * 1e3,
            "core.scan.vs_floor": scan_s / floor_s if floor_s else 0.0,
            "trace.overhead_frac": self._trace_overhead(),
        }
        out.update(self._scan_metrics(
            [(s.attrs["stages"], s.attrs["stats"], s.attrs["scans"], self.K)
             for s in batches]))
        return out

    def host_extra(self):
        return {"surface": "RetrievalService.batch", **self._service_host()}


# ----------------------------------------------------------------------
# live-churn
# ----------------------------------------------------------------------

READ, ADD, REMOVE, CAMPAIGN_POPULAR, CAMPAIGN_UNIFORM = range(5)


class LiveChurn(Workload):
    """Reads, writes and campaigns interleaved on a served live catalog."""

    name = "live-churn"
    K = 10
    N_ITEMS = 40_000
    #: Held-out rows the adds draw from, generated with the catalog so
    #: they share its distribution.
    FRESH_ROWS = 8192
    WRITE_ROWS = 8
    POPULAR = 200
    ZIPF_S = 1.1
    #: One cycle of the mix, shuffled afresh for every cycle.
    CYCLE = ((READ,) * 86 + (ADD,) * 6 + (REMOVE,) * 6
             + (CAMPAIGN_POPULAR, CAMPAIGN_UNIFORM))
    N_CYCLES = 400
    #: Campaign cost is heavy-tailed (a popular probe verifies anywhere
    #: from a handful to hundreds of users), and a run holds too few to
    #: average it out, so ``ops_per_cpu_s`` counts the reads and writes of
    #: each cycle; campaign latency is in the per-layer ledger.
    WINDOW_OPS = len(CYCLE) - 2
    #: Campaigns per run whose audience is checked by brute force (each
    #: check scores every user against every live item).
    CAMPAIGN_CHECKS = 4
    RECIPE = DatasetRecipe(name="live-churn", n_items=N_ITEMS + FRESH_ROWS,
                           n_queries=4000, d=32, spectral_decay=0.10,
                           norm_sigma=0.55, popularity_bias=0.7)
    #: Compaction is driven by the delta limit (64 rows; a cycle adds 48),
    #: which counts operations; the interval only sets the compactor's
    #: poll period (0.5 s).  A 1 s interval tied the folds, and every
    #: replica republish after them, to the host's wall-clock speed, and
    #: spread ``ops_per_cpu_s`` by 17% between runs.
    CONFIG = dict(cache_capacity=1024, compaction_interval_s=5.0,
                  compaction_delta_limit=64)

    def inputs(self):
        ds = self.RECIPE.generate(CATALOG_SEED)
        rng = np.random.default_rng([self.seed, 1])
        schedule = np.concatenate([rng.permutation(self.CYCLE)
                                   for __ in range(self.N_CYCLES)])
        m = ds.m
        weights = np.arange(1, m + 1, dtype=np.float64) ** -self.ZIPF_S
        cdf = np.cumsum(weights) / weights.sum()
        # Which users are popular belongs to the catalog, as on a fixed
        # dataset; the seed draws the reads.
        by_rank = np.random.default_rng([CATALOG_SEED, 1]).permutation(m)
        readers = by_rank[np.minimum(
            np.searchsorted(cdf, rng.random(len(schedule))), m - 1)]
        return {"items": ds.items[:self.N_ITEMS],
                "fresh": ds.items[self.N_ITEMS:], "users": ds.queries,
                "schedule": schedule, "readers": readers}

    def stage(self):
        super().stage()
        self.svc = None
        self.fx = None

    def setup(self):
        with self.span("core.index.build"):
            fx = Fexipro(self.data["items"])
        with self.span("core.reverse.attach"):
            fx.attach_users(self.data["users"])
        self._calibrate(fx)
        self.svc = fx.serve(ServiceConfig(workers=self.cores, **self.CONFIG))
        self.fx = fx
        # Not a user row, so the warm-up never turns a timed read into a
        # cache hit; it starts the worker processes.
        self.svc.batch(self.data["users"].mean(axis=0, keepdims=True),
                       k=self.K)

    def teardown(self):
        if self.svc is not None:
            self.svc.close()
            self.svc = None
        self.fx = None

    def measure(self, seconds):
        self.mirror = CatalogMirror(
            self.data["items"],
            self.N_ITEMS + len(self.data["fresh"]))
        self.norms = np.linalg.norm(self.mirror.rows, axis=1)
        self.rng = np.random.default_rng([self.seed, 2])
        self.next_fresh = 0
        self.after_write = False
        self.reads, self.writes, self.campaigns = [], [], []
        self.snapshot0 = self.svc.metrics_snapshot()
        super().measure(seconds)
        self.snapshot = self.svc.metrics_snapshot()
        self.workers_rss_mb = workers_peak_rss_mb()

    def step(self, i, traced):
        kind = int(self.data["schedule"][i % len(self.data["schedule"])])
        if kind == ADD and self.next_fresh + self.WRITE_ROWS > len(
                self.data["fresh"]):
            kind = REMOVE
        if kind == READ:
            self._read(int(self.data["readers"][i % len(
                self.data["readers"])]), traced)
        elif kind in (ADD, REMOVE):
            self._write(kind, traced)
        else:
            self._campaign(kind, traced)

    def _read(self, user, traced):
        q = self.data["users"][user:user + 1]
        with self.span("serve.service.batch", traced) as sp:
            resp, wall, cpu = self._timed(
                lambda: self.svc.batch(q, k=self.K))
        self._record_call(wall, cpu, traced)
        if isinstance(resp, Exception) or resp.results[0] is not None:
            answer = _answer(resp if isinstance(resp, Exception)
                             else resp.results[0])
        else:
            answer = f"failed: {resp.errors!r}"
        self.reads.append((user, self.mirror.version, answer))
        if traced and not isinstance(resp, Exception):
            result = resp.results[0]
            sp.attrs.update(
                after_write=self.after_write, seconds=wall,
                provenance=resp.provenance[0] if resp.provenance else None,
                elapsed=result.elapsed if result is not None else None,
                stages=resp.timings.as_dict()
                if resp.timings is not None else {},
                stats=resp.stats.as_dict())
        if self.tracer is not None:
            with self.span("floor.blas"):
                scores = self.mirror.rows @ q[0]
                scores[~self.mirror.alive] = -np.inf
                np.argpartition(-scores, self.K - 1)[:self.K]
        self.after_write = False

    def _write(self, kind, traced):
        if kind == ADD:
            rows = self.data["fresh"][
                self.next_fresh:self.next_fresh + self.WRITE_ROWS]
            self.next_fresh += self.WRITE_ROWS
            with self.span("core.delta.add", traced):
                ids, __, __ = self._timed(lambda: self.fx.add_items(rows))
            reason = (f"add raised {ids!r}" if isinstance(ids, Exception)
                      else self.mirror.add(ids, rows))
        else:
            victims = self.rng.choice(self.mirror.live_ids(),
                                      self.WRITE_ROWS, replace=False)
            with self.span("core.delta.remove", traced):
                removed, __, __ = self._timed(
                    lambda: self.fx.remove_items(victims.tolist()))
            reason = (f"remove raised {removed!r}"
                      if isinstance(removed, Exception)
                      else self.mirror.remove(victims, removed))
        self.writes.append(reason)
        self.after_write = True

    def _campaign(self, kind, traced):
        live = self.mirror.live_ids()
        if kind == CAMPAIGN_POPULAR:
            top = live[np.argpartition(-self.norms[live],
                                       self.POPULAR - 1)[:self.POPULAR]]
            probe = int(self.rng.choice(top))
        else:
            probe = int(self.rng.choice(live))
        with self.span("serve.service.campaign", traced) as sp:
            resp, __, __ = self._timed(
                lambda: self.svc.campaign([probe], k=self.K), counted=False)
        if traced and not isinstance(resp, Exception):
            stats = resp.stats
            sp.attrs.update(n_users=stats.n_users, verified=stats.verified,
                            cache_bound_hits=stats.cache_bound_hits)
        if isinstance(resp, Exception):
            audience = f"raised {resp!r}"
        elif resp.results[0] is None:
            audience = f"failed: {resp.errors!r}"
        else:
            audience = np.asarray(resp.results[0].user_ids, dtype=np.int64)
        self.campaigns.append((probe, self.mirror.version, audience))

    def check(self):
        for reason in self.writes:
            self.outcome.record(reason)
        self._check_reads()
        self._check_campaigns()

    def _check_reads(self):
        users, rows = self.data["users"], self.mirror.rows
        max_norm = float(self.norms.max())
        by_version: Dict[int, list] = {}
        for user, version, answer in self.reads:
            by_version.setdefault(version, []).append((user, answer))
        for version, reads in by_version.items():
            alive = self.mirror.mask(version)
            top_ids, top_scores = brute_topk(
                users[[u for u, __ in reads]], rows, self.K, alive=alive)
            for j, (user, answer) in enumerate(reads):
                if isinstance(answer, str):
                    self.outcome.record(f"read {answer}")
                    continue
                self.outcome.record(check_topk(
                    *answer, users[user], rows, top_ids[j], top_scores[j],
                    tolerance(float(np.linalg.norm(users[user])), max_norm),
                    alive=alive))

    def _check_campaigns(self):
        sample = np.zeros(len(self.campaigns), dtype=bool)
        sample[np.random.default_rng([self.seed, 3]).choice(
            len(sample), min(self.CAMPAIGN_CHECKS, len(sample)),
            replace=False)] = True
        for checked, (probe, version, audience) in zip(sample,
                                                       self.campaigns):
            if isinstance(audience, str):
                self.outcome.record(f"campaign {audience}")
                continue
            self.outcome.record(check_audience(
                audience, probe, self.data["users"], self.mirror.rows,
                self.mirror.mask(version), self.K) if checked else None)

    def layer_metrics(self):
        tr = self.tracer
        reads = [s for s in tr.named("serve.service.batch")
                 if "provenance" in s.attrs]
        scanned = [s for s in reads if s.attrs["provenance"] != "hit"]
        steady = [s for s in scanned if not s.attrs["after_write"]]
        campaigns = tr.named("serve.service.campaign")
        probes = [s for s in campaigns if "n_users" in s.attrs]
        writes = tr.seconds("core.delta.add") + tr.seconds(
            "core.delta.remove")
        snap0, snap1 = self.snapshot0, self.snapshot or self.snapshot0
        cache0, cache1 = snap0["cache"] or {}, snap1["cache"] or {}
        folds0 = snap0["histograms"].get("compaction.seconds",
                                         {"count": 0, "sum": 0.0})
        folds1 = snap1["histograms"].get("compaction.seconds", folds0)
        n_folds = folds1["count"] - folds0["count"]
        pool = snap1["executor"].get("pool") or {}
        floor_s = _median(tr.seconds("floor.blas"))
        scan_s = _median([s.attrs["elapsed"] for s in steady])
        n_users = sum(s.attrs["n_users"] for s in probes)
        out = {
            "core.index.build_s": self._setup_seconds("core.index.build"),
            "analysis.cost_model.calibrate_s":
                self._setup_seconds("analysis.cost_model.calibrate"),
            "serve.service.single_overhead_ms": _median(
                [s.attrs["seconds"] - s.attrs["elapsed"] for s in steady])
            * 1e3,
            "serve.service.campaign_p50_ms":
                _median([s.seconds for s in campaigns]) * 1e3,
            "serve.procpool.read_after_write_ms": _median(
                [s.attrs["seconds"] for s in reads if s.attrs["after_write"]])
            * 1e3,
            "serve.procpool.replica_mb": sum(
                r["nbytes"] for r in pool.get("replicas", [])) / 2**20,
            "serve.procpool.workers_rss_mb": self.workers_rss_mb,
            "serve.cache.hit_frac": mean(
                [s.attrs["provenance"] == "hit" for s in reads]),
            "serve.cache.warm_frac": mean(
                [s.attrs["provenance"] == "warm" for s in reads]),
            "serve.cache.evictions_per_read":
                (cache1.get("evictions", 0) - cache0.get("evictions", 0))
                / max(len(self.reads), 1),
            "core.delta.write_p50_ms": _median(writes) * 1e3,
            "core.delta.add_ms": _median(tr.seconds("core.delta.add")) * 1e3,
            "core.delta.remove_ms":
                _median(tr.seconds("core.delta.remove")) * 1e3,
            "core.delta.scanned_per_query": mean(
                [s.attrs["stats"]["delta_scanned"] for s in scanned]),
            "core.delta.tombstones_masked": mean(
                [s.attrs["stats"]["tombstones_masked"] for s in scanned]),
            "serve.compactor.runs_per_s": n_folds / self.loop_seconds,
            "serve.compactor.fold_s":
                (folds1["sum"] - folds0["sum"]) / n_folds if n_folds else 0.0,
            "core.reverse.pruned_frac":
                1 - sum(s.attrs["verified"] for s in probes) / n_users
                if n_users else 0.0,
            "core.reverse.verified_per_probe":
                mean([s.attrs["verified"] for s in probes]),
            "core.reverse.cache_bound_hits_per_probe":
                mean([s.attrs["cache_bound_hits"] for s in probes]),
            "floor.blas_ms": floor_s * 1e3,
            "core.scan.vs_floor": scan_s / floor_s if floor_s else 0.0,
            "trace.overhead_frac": self._trace_overhead(),
        }
        out.update(self._scan_metrics(
            [(s.attrs["stages"], s.attrs["stats"], 1, self.K)
             for s in scanned]))
        return out

    def host_extra(self):
        return {"surface": "RetrievalService.batch/campaign + "
                           "Fexipro.add_items/remove_items",
                **self._service_host()}


WORKLOADS = {w.name: w for w in (OnlineSkewed, BatchFlat, LiveChurn)}
