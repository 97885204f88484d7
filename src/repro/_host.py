"""The number of cores this process may run on, read one way everywhere."""

from __future__ import annotations

import os


def usable_cores() -> int:
    """Cores in this process's CPU affinity set (at least 1).

    ``taskset`` and container CPU sets shrink the affinity set below
    ``os.cpu_count()``; pools sized from the latter would oversubscribe.
    Falls back to ``os.cpu_count()`` where ``os.sched_getaffinity`` does
    not exist.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)
