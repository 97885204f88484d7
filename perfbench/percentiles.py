"""Order statistics for the benchmark's timing samples."""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, one outlier decides the figure.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``samples`` (linear between ranks).

    Refuses (raises :class:`TooFewSamples`) unless at least
    :data:`MIN_BEYOND` samples lie beyond it: the median needs 20
    samples, the 90th percentile 100 and the 99th 1000.
    """
    n = len(samples)
    if not 0 < pct < 100:
        raise ValueError(f"pct must lie in (0, 100); got {pct}")
    beyond = n * (100 - pct) / 100
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} of {n} samples has {beyond:g} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    ordered = sorted(samples)
    pos = (n - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def min_samples(pct: float) -> int:
    """The smallest sample count :func:`percentile` accepts for ``pct``."""
    return math.ceil(MIN_BEYOND * 100 / (100 - pct))


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 for an empty sample (an idle layer)."""
    return sum(samples) / len(samples) if samples else 0.0
