"""Self-tests of the benchmark: its oracle, mirror, statistics, clocks and
inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
from host import cpu_clocks, cpu_since  # noqa: E402
from oracle import (CatalogMirror, brute_topk, check_audience,  # noqa: E402
                    check_topk, tolerance)
from percentiles import TooFewSamples, min_samples, percentile  # noqa: E402
from workloads import WORKLOADS, OnlineSkewed  # noqa: E402

from repro.api import Fexipro  # noqa: E402


def _catalog(n=400, d=8, m=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.normal(size=(m, d))


def _oracle_args(items, q, k):
    top_ids, top_scores = brute_topk(q.reshape(1, -1), items, k)
    tol = tolerance(float(np.linalg.norm(q)),
                    float(np.linalg.norm(items, axis=1).max()))
    return top_ids[0], top_scores[0], tol


# -- the oracle ------------------------------------------------------------

def test_oracle_accepts_the_program_answer():
    items, users = _catalog()
    fx = Fexipro(items)
    for q in users:
        result = fx.query(q, k=10)
        top_ids, top_scores, tol = _oracle_args(items, q, 10)
        assert check_topk(result.ids, result.scores, q, items, top_ids,
                          top_scores, tol) is None


def test_oracle_catches_a_planted_wrong_id():
    items, users = _catalog()
    q = users[0]
    top_ids, top_scores, tol = _oracle_args(items, q, 10)
    worst = int(np.argmin(items @ q))
    ids = top_ids.copy()
    ids[-1] = worst
    scores = items[ids] @ q
    reason = check_topk(ids, scores, q, items, top_ids, top_scores, tol)
    assert reason is not None and "wrong id" in reason


def test_oracle_catches_a_planted_wrong_score():
    items, users = _catalog()
    q = users[1]
    top_ids, top_scores, tol = _oracle_args(items, q, 10)
    scores = top_scores.copy()
    scores[3] += 1e-6
    reason = check_topk(top_ids, scores, q, items, top_ids, top_scores, tol)
    assert reason is not None and "wrong score" in reason


def test_oracle_accepts_float_ties_but_not_a_missing_id():
    items, users = _catalog()
    q = users[2]
    items = np.vstack([items, items[:1]])  # row 400 ties with row 0
    order = np.argsort(-(items @ q))
    rank = int(np.flatnonzero(np.isin(order, [0, 400]))[0])
    top_ids, top_scores, tol = _oracle_args(items, q, rank + 1)
    # The k-th place is a tie between the twins: either may be reported.
    twin = top_ids.copy()
    twin[-1] = 400 if twin[-1] == 0 else 0
    assert check_topk(twin, top_scores, q, items, top_ids, top_scores,
                      tol) is None
    # Dropping the best id is an error, even with every score right.
    top_ids, top_scores, tol = _oracle_args(items, q, 10)
    rest = np.argsort(-(items @ q))[1:11]
    reason = check_topk(rest, items[rest] @ q, q, items, top_ids,
                        top_scores, tol)
    assert reason is not None


class _Raises:
    """A surface that fails every call."""

    class index:
        engine = "blocked"

    @staticmethod
    def query(q, k):
        raise RuntimeError("planted failure")


class _Lies:
    """A surface that answers every query with the worst items."""

    def __init__(self, items):
        self.items = items

    def query(self, q, k):
        from repro.api import PruningStats, RetrievalResult

        ids = np.argsort(self.items @ q)[:k]
        return RetrievalResult(ids=ids.tolist(),
                               scores=(self.items[ids] @ q).tolist(),
                               stats=PruningStats(), elapsed=0.0)


def _small_online(tmp_path, surface):
    items, users = _catalog(n=300, m=4)
    workload = OnlineSkewed(0, tmp_path)
    workload.data = {"items": items, "users": users}
    workload.top_ids, workload.top_scores = brute_topk(users, items,
                                                       OnlineSkewed.K)
    workload.max_norm = float(np.linalg.norm(items, axis=1).max())
    workload.answers = []
    workload.fx = surface(items) if surface is _Lies else surface
    return workload


@pytest.mark.parametrize("surface", [_Raises, _Lies])
def test_every_failed_operation_counts(tmp_path, surface):
    workload = _small_online(tmp_path, surface)
    for i in range(4):
        workload.step(i, traced=False)
    workload.check()
    assert workload.outcome.attempted == 4
    assert workload.outcome.failed == 4


def test_audience_check_catches_planted_errors():
    items, users = _catalog(n=300, m=50, seed=3)
    alive = np.ones(len(items), dtype=bool)
    k = 5
    item = int(np.argmax(np.linalg.norm(items, axis=1)))
    ids, __ = brute_topk(users, items, k)
    audience = [u for u in range(len(users)) if item in ids[u]]
    assert audience, "pick a probe with a non-empty audience"
    assert check_audience(audience, item, users, items, alive, k) is None
    assert "missing" in check_audience(audience[1:], item, users, items,
                                       alive, k)
    outsider = next(u for u in range(len(users)) if u not in audience)
    assert "wrongly" in check_audience(audience + [outsider], item, users,
                                       items, alive, k)


# -- percentiles -----------------------------------------------------------

@pytest.mark.parametrize("pct,need", [(50, 20), (90, 100), (95, 200),
                                      (99, 1000)])
def test_percentile_refuses_fewer_than_ten_samples_beyond(pct, need):
    assert min_samples(pct) == need
    with pytest.raises(TooFewSamples):
        percentile(list(range(need - 1)), pct)
    assert percentile(list(range(need)), pct) == pytest.approx(
        np.percentile(np.arange(need), pct))


# -- CPU time and the reference speed --------------------------------------

def test_cpu_clocks_count_a_child_process_but_no_waiting():
    started = cpu_clocks()
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         "end = time.process_time() + 0.3\n"
         "while time.process_time() < end: pass\n"
         "print('busy', flush=True)\n"
         "sys.stdin.read()\n"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "busy"
        time.sleep(0.5)                      # neither process runs
        cpu = cpu_since(started)
    finally:
        child.communicate("")
    assert 0.3 <= cpu < 0.5                  # the child's loop + start-up


def test_figures_do_not_move_with_the_host_speed(tmp_path):
    def figures(slowdown):
        workload = OnlineSkewed(0, tmp_path)
        workload.refs = [reference.REFERENCE_S * slowdown] * 3
        workload.query_s = [slowdown * 1e-3 * (1 + i % 7)
                            for i in range(400)]
        workload.windows = [(200, slowdown * 0.8), (200, slowdown * 0.8)]
        return workload.end_to_end()

    assert figures(1.0) == {"query_cpu_p50_ms": pytest.approx(4.0),
                            "ops_per_cpu_s": pytest.approx(250.0)}
    assert figures(1.6) == pytest.approx(figures(1.0))


# -- the catalog mirror ----------------------------------------------------

def _visible(fx):
    """Every id the program can return, read back with a full query."""
    result = fx.query(np.ones(fx.d), k=fx.n)
    return sorted(result.ids)


def test_mirror_matches_the_program_through_adds_and_removes():
    items, __ = _catalog(n=200)
    fresh = np.random.default_rng(9).normal(size=(64, items.shape[1]))
    fx = Fexipro(items)
    mirror = CatalogMirror(items, len(items) + len(fresh))
    rng = np.random.default_rng(4)
    script = ["add", "remove", "remove", "add", "compact", "add", "remove"]
    used = 0
    for action in script * 2:
        if action == "add":
            rows = fresh[used:used + 4]
            used += 4
            assert mirror.add(fx.add_items(rows), rows) is None
        elif action == "remove":
            victims = rng.choice(mirror.live_ids(), 5, replace=False)
            assert mirror.remove(victims, fx.remove_items(victims)) is None
        else:
            fx.compact()
        assert _visible(fx) == mirror.live_ids().tolist()
        probe = rng.normal(size=items.shape[1])
        result = fx.query(probe, k=7)
        top_ids, top_scores = brute_topk(probe.reshape(1, -1), mirror.rows,
                                         7, alive=mirror.alive)
        tol = tolerance(float(np.linalg.norm(probe)),
                        float(np.linalg.norm(mirror.rows, axis=1).max()))
        assert check_topk(result.ids, result.scores, probe, mirror.rows,
                          top_ids[0], top_scores[0], tol,
                          alive=mirror.alive) is None
    assert mirror.version == 2 * script.count("add") \
        + 2 * script.count("remove")


def test_mirror_rejects_impossible_program_answers():
    items, __ = _catalog(n=10)
    mirror = CatalogMirror(items, 20)
    rows = items[:2] + 1.0
    assert mirror.add([3, 11], rows) is not None       # id 3 is taken
    assert mirror.add([11, 11], rows) is not None      # repeated id
    assert mirror.add([10, 11], rows) is None
    assert mirror.remove([0, 1], removed=1) is not None  # 2 were live


# -- inputs ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    cls = WORKLOADS[name]
    first = cls(7, tmp_path).inputs()
    again = cls(7, tmp_path).inputs()
    other = cls(8, tmp_path).inputs()
    assert first.keys() == again.keys()
    for key in first:
        np.testing.assert_array_equal(first[key], again[key])
    changed = [key for key in first
               if not np.array_equal(first[key], other[key])]
    assert changed, "another seed must draw other inputs"


def test_workloads_and_ledger_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = json.loads((ROOT / "perfbench" / "ledger.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert list(ledger["layers"]) == [m["name"] for m in spec["per_layer"]]
    for entry in ledger["layers"].values():
        assert set(entry["on"]) <= set(WORKLOADS)
