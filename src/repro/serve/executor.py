"""Chunking helpers and the serving layer's inline task runner.

A scan runs in one of two places: inline on the caller's thread, or on
the :class:`~repro.serve.procpool.ProcessScanPool` (worker processes
attached to a shared-memory replica of the index).  There is no thread
pool.  The pruning cascade spends much of its time in Python, so threads
serialize on the GIL: on a 2-core host a thread pool measured slower than
the inline scan on every path it served (service batches, sharded single
queries and campaigns).

Both paths chunk a batch the same way: :func:`resolve_chunk_size` picks
the queries per task and :func:`chunk_spans` cuts the batch into
consecutive spans.  :class:`WorkerPool` runs the chunks inline, in order,
with the per-task ``worker`` fault site and per-task failure isolation
the serving layer's retry and error accounting are built on.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from .. import _faultsites
from ..exceptions import ServiceClosedError, ValidationError

T = TypeVar("T")
R = TypeVar("R")

#: Target number of chunks handed to each worker per batch.  More chunks
#: mean better load balance when per-query cost is skewed (Figure 9 of the
#: paper shows it is); fewer mean less task overhead.  Four is a standard
#: compromise.
CHUNKS_PER_WORKER = 4


def resolve_chunk_size(total: int, workers: int,
                       chunk_size: Optional[int] = None) -> int:
    """Pick the number of queries per pool task.

    An explicit ``chunk_size`` wins; otherwise the batch is split into
    about :data:`CHUNKS_PER_WORKER` chunks per worker.
    """
    if total < 0:
        raise ValidationError(f"total must be non-negative; got {total}")
    if workers < 1:
        raise ValidationError(f"workers must be positive; got {workers}")
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValidationError(
                f"chunk_size must be positive; got {chunk_size}"
            )
        return chunk_size
    if total == 0:
        return 1
    return max(1, math.ceil(total / (CHUNKS_PER_WORKER * workers)))


def chunk_spans(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into consecutive ``(start, stop)`` spans."""
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be positive; got {chunk_size}")
    return [(start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)]


class WorkerPool:
    """An order-preserving inline map over serving tasks.

    Every task runs on the calling thread, in input order, after passing
    through the ``worker`` fault-injection site.  The pool also carries
    the service's lifecycle: once closed, :meth:`map` raises.
    """

    def __init__(self):
        self._closed = False

    def map(self, fn: Callable[[T], R], items: Sequence[T], *,
            return_exceptions: bool = False) -> List[R]:
        """Apply ``fn`` to every item, returning results in input order.

        Each task passes through the ``worker`` fault-injection site
        before running (a no-op unless an injector is armed).  With
        ``return_exceptions=True`` a task that raises contributes its
        exception object to the result list instead of poisoning the whole
        map — the serving layer's per-chunk isolation hook.  Calling
        ``map`` on a closed pool raises
        :class:`~repro.exceptions.ServiceClosedError` (use-after-close is
        a lifecycle bug, not input validation).
        """
        if self._closed:
            raise ServiceClosedError("worker pool is closed")
        results: List = []
        for item in items:
            try:
                if _faultsites.active is not None:
                    _faultsites.fire(_faultsites.WORKER, "pool.map")
                results.append(fn(item))
            except Exception as error:
                if not return_exceptions:
                    raise
                results.append(error)
        return results

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Refuse further ``map`` calls (idempotent)."""
        self._closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
