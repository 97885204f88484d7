"""Facts about the host a run measured on, the CPU time the program
spends, and its memory high-water mark."""

from __future__ import annotations

import ctypes
import os
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask, not the host's)."""
    return len(os.sched_getaffinity(0))


def blas_threads() -> Optional[int]:
    """Threads NumPy's BLAS will use, read from the loaded library."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            name = line.rsplit(None, 1)[-1]
            if "blas" in name.lower() or "mkl" in name.lower():
                paths.add(name)
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except FileNotFoundError:
        pass
    return 0


def descendants(pid: Optional[int] = None) -> List[int]:
    """Live descendant process ids of ``pid`` (default: this process)."""
    found: List[int] = []
    stack = [os.getpid() if pid is None else pid]
    while stack:
        parent = stack.pop()
        for task in Path(f"/proc/{parent}/task").glob("*"):
            try:
                kids = (task / "children").read_text().split()
            except OSError:
                continue
            for kid in map(int, kids):
                found.append(kid)
                stack.append(kid)
    return found


def process_cpu_s(pid: int) -> Optional[float]:
    """CPU seconds process ``pid`` has run, all its threads together, or
    None once it is gone.  Read from the kernel's per-process CPU clock
    (``clock_getcpuclockid``), which counts time on a CPU and not time
    the process waited for one, or time the hypervisor gave to another
    guest (steal)."""
    # The clock id Linux's clock_getcpuclockid(pid) returns: the
    # process-wide scheduler clock of ``pid``.
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        return None


def cpu_clocks() -> Dict[int, float]:
    """The CPU clocks of this process and its descendants (a service's
    worker processes), this process read last; pass them to
    :func:`cpu_since`.

    On a shared host, wall time also counts the time other tenants held
    the CPU; CPU time is the program's own work.
    """
    pids = descendants() + [os.getpid()]
    return {pid: cpu for pid in pids
            if (cpu := process_cpu_s(pid)) is not None}


def cpu_since(clocks: Dict[int, float]) -> float:
    """CPU seconds this process and its descendants spent since
    ``clocks`` was read: this process is read first, and a descendant
    born since counts from its birth (one gone since is lost)."""
    me = os.getpid()
    total = process_cpu_s(me) - clocks[me]
    for pid, cpu0 in clocks.items():
        if pid != me and (cpu := process_cpu_s(pid)) is not None:
            total += cpu - cpu0
    for pid in descendants():
        if pid not in clocks:
            total += process_cpu_s(pid) or 0.0
    return total


def steal_ticks() -> int:
    """Host-wide CPU ticks stolen by the hypervisor so far (``/proc/stat``)."""
    try:
        with open("/proc/stat", encoding="utf-8") as stat:
            fields = stat.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count from its current RSS (a
    kernel that refuses leaves the count running from process start)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="utf-8") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return _status_kb(os.getpid(), "VmHWM") / 1024


def workers_peak_rss_mb() -> float:
    """Summed peak resident memory of the live descendant processes (the
    service's workers), in MiB.  A forked worker's figure includes the
    pages it shares with this process."""
    return sum(_status_kb(pid, "VmHWM") for pid in descendants()) / 1024


def host_record(**extra) -> dict:
    """What a run's figures depend on besides the code."""
    return {
        "usable_cores": usable_cores(),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **extra,
    }
