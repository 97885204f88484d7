"""Run one benchmark workload and print its figures as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload online-skewed --seed 1 \\
        --seconds 30 --trace 0

The program is imported from ``./src`` and nowhere else.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``.  The line before
it records the host.  Spans of a traced run are written to
``.perfbench_out/``.

BLAS runs one thread per process: the service already runs one worker
process per usable core, and idle BLAS threads spin on a CPU, which
CPU-time figures would count as the program's work.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"
#: How long torn-down worker processes get to exit before they are killed.
REAP_TIMEOUT_S = 20.0


def _import_program():
    """Put the checkout's ``src`` first on the path and import it there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def _reap_workers() -> None:
    """Wait for every process the run started; kill any that linger."""
    from host import descendants

    deadline = time.monotonic() + REAP_TIMEOUT_S
    while descendants() and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in descendants():
        print(f"perfbench: killing leftover process {pid}", file=sys.stderr)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import reference
    from host import (cpu_clocks, cpu_since, host_record, peak_rss_mb,
                      reset_peak_rss, steal_ticks)
    from tracing import SpanRecorder
    from workloads import SETUP_REPEATS, WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    tracer = SpanRecorder() if trace else None
    workload = WORKLOADS[name](seed, workdir, tracer)
    try:
        workload.stage()
        reset_peak_rss()
        setups, setups_wall, refs = [], [], []
        try:
            for i in range(SETUP_REPEATS):
                if i:
                    workload.teardown()
                refs.append(reference.sample())
                clocks = cpu_clocks()
                t0 = time.perf_counter()
                workload.setup()
                setups_wall.append(time.perf_counter() - t0)
                setups.append(cpu_since(clocks))
            refs.append(reference.sample())
            steal0 = steal_ticks()
            workload.measure(seconds)
            steal = (steal_ticks() - steal0) / (
                os.sysconf("SC_CLK_TCK") * os.cpu_count()
                * workload.loop_seconds)
            rss_mb = peak_rss_mb()
            host = host_record(workload=name, seed=seed,
                               loop_seconds=workload.loop_seconds,
                               steal_frac=steal,
                               wall_setup_s=statistics.median(setups_wall),
                               **workload.raw_figures(),
                               **workload.host_extra())
        finally:
            workload.teardown()
            _reap_workers()
        workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = {key: 0.0 for key in _declared("per_layer")}
        metrics.update(workload.layer_metrics())
        tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.jsonl")
    else:
        metrics = {"setup_s":
                   statistics.median(setups) * reference.scale(refs),
                   "peak_rss_mb": rss_mb, **workload.end_to_end()}
    units = _declared_units()
    outcome = workload.outcome
    for reason in outcome.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({"host": host}))
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": float(value), "unit": units[key]}
                    for key, value in metrics.items()},
    }


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return json.load(spec)


def _declared(section: str):
    return [m["name"] for m in _benchmark_spec()[section]]


def _declared_units() -> dict:
    spec = _benchmark_spec()
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still closes the service and reaps its workers;
    # forked workers keep the default, so the pool can stop them.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))
    # Before NumPy loads; worker processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    expected = set(_declared("per_layer" if args.trace else "end_to_end"))
    if set(result["metrics"]) != expected:
        sys.exit(f"perfbench: metrics {sorted(result['metrics'])} do not "
                 f"match BENCHMARK.json {sorted(expected)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
