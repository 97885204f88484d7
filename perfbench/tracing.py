"""Spans the benchmark records around its own calls into each layer.

The program is not instrumented: a span opens just before the benchmark
calls into a layer and closes when the call returns.  Spans stay in
memory while the workload runs and are written out once, at exit, so
recording them costs a clock read and a list append.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed call.  Spans of one request share ``trace``."""

    name: str
    trace: int
    span: int
    parent: Optional[int]
    start_ns: int
    end_ns: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class SpanRecorder:
    """In-memory span tree; the root of each tree is one request."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Time the body as a span named after the layer it calls.

        The yielded span's ``attrs`` may be filled in by the body with
        what the call returned (counts, sizes, the program's own timings).
        """
        parent = self._stack[-1] if self._stack else None
        record = Span(name=name,
                      trace=parent.trace if parent else self._next_id,
                      span=self._next_id,
                      parent=parent.span if parent else None,
                      start_ns=time.perf_counter_ns(), attrs=dict(attrs))
        self._next_id += 1
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)

    def named(self, name: str) -> List[Span]:
        """Every finished span called ``name``, in completion order."""
        return [s for s in self.spans if s.name == name]

    def seconds(self, name: str) -> List[float]:
        """Durations of every span called ``name``."""
        return [s.seconds for s in self.named(name)]

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "name": s.name, "trace": s.trace, "span": s.span,
                    "parent": s.parent, "start_ns": s.start_ns,
                    "end_ns": s.end_ns, "attrs": s.attrs,
                }, default=str) + "\n")


def maybe_span(recorder: Optional[SpanRecorder], name: str, **attrs):
    """A span when tracing, else a context that does nothing."""
    if recorder is None:
        return nullcontext(Span(name, 0, 0, None, 0))
    return recorder.span(name, **attrs)
