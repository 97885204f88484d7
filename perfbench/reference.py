"""A fixed reference computation that tracks how fast the host runs.

On a shared host the same code's CPU time, which already leaves out the
time the hypervisor gave other guests, moved by a third within a minute
with the load other tenants put on the machine.  The benchmark
therefore times this reference, which does not touch the program,
between the program's calls throughout a run, and scales the program's
CPU time by ``REFERENCE_S / (median reference time measured)``.  The
reported figures read as CPU time on a host where the reference takes
:data:`REFERENCE_S`; a change to the program moves them in full, a
change in the host's speed mostly cancels out.

The reference mixes interpreter work and a cache-resident NumPy product,
the two kinds of work the program's query paths do.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

#: CPU seconds one reference sample takes on the host the benchmark was
#: defined on (2-core x86-64 Xeon VM, Python 3.11, NumPy 2.4, one BLAS
#: thread), measured while it was quiet.  It only sets the unit.
REFERENCE_S = 1.40e-3
#: Kernel runs per sample; a sample is their median.
REPEATS = 5

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((4096, 64))
_B = _rng.standard_normal((64, 64))


def _kernel() -> None:
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    scores = _A @ _B
    np.argpartition(scores[:, 0], 10)


def sample() -> float:
    """CPU seconds of one reference run on this thread (median of
    :data:`REPEATS`); time other threads and processes take is not in it."""
    runs = []
    for __ in range(REPEATS):
        t0 = time.thread_time()
        _kernel()
        runs.append(time.thread_time() - t0)
    return statistics.median(runs)


def scale(samples: Sequence[float]) -> float:
    """Factor that turns CPU seconds measured alongside ``samples`` into
    seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)
