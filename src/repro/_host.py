"""The number of cores this process may run on, read one way everywhere."""

from __future__ import annotations

import functools
import math
import os
from typing import List, Optional

#: Mount point of the cgroup hierarchy read by :func:`cgroup_cpu_limit`.
CGROUP_ROOT = "/sys/fs/cgroup"


def _read_words(path: str) -> List[str]:
    try:
        with open(path) as handle:
            return handle.read().split()
    except OSError:
        return []


@functools.lru_cache(maxsize=None)
def cgroup_cpu_limit(root: str = CGROUP_ROOT) -> Optional[int]:
    """Whole cores granted by a cgroup CPU quota, or ``None`` if unlimited.

    Reads cgroup v2 ``cpu.max`` (``"<quota> <period>"`` or ``"max
    <period>"``) and falls back to cgroup v1 ``cpu/cpu.cfs_quota_us`` and
    ``cpu/cpu.cfs_period_us`` (quota ``-1`` means unlimited).  A quota of
    1.5 periods lets the process run on two cores half the time, so the
    limit is ``ceil(quota / period)``.  Read once per process and root:
    the callers ask on every batch, and a quota is set when the container
    starts.
    """
    words = _read_words(os.path.join(root, "cpu.max"))
    if len(words) < 2:
        v1 = os.path.join(root, "cpu")
        words = (_read_words(os.path.join(v1, "cpu.cfs_quota_us"))[:1]
                 + _read_words(os.path.join(v1, "cpu.cfs_period_us"))[:1])
    try:
        quota, period = (int(word) for word in words[:2])
    except ValueError:  # "max", unreadable or malformed: no limit known
        return None
    if quota <= 0 or period <= 0:
        return None
    return math.ceil(quota / period)


def usable_cores(cgroup_root: str = CGROUP_ROOT) -> int:
    """Cores this process can keep busy (at least 1).

    ``taskset`` and container CPU sets shrink the affinity set below
    ``os.cpu_count()``, and a container's CPU quota can be narrower still;
    pools sized from either wider figure would oversubscribe.  The count is
    the affinity set (``os.cpu_count()`` where ``os.sched_getaffinity``
    does not exist) clamped by :func:`cgroup_cpu_limit`.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    limit = cgroup_cpu_limit(cgroup_root)
    if limit is not None:
        cores = min(cores, limit)
    return max(1, cores)
