"""Benchmark-side spans: recorded around calls into the program's public
functions, kept in memory, written out when the run ends."""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class SpanRecorder:
    """Collects spans; each thread nests its own ``span()`` blocks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stack = threading.local()
        self._next_id = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[int]:
        """Time the enclosed call; the enclosing ``span()`` is the parent."""
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(name, start, end, parent, op, span_id=span_id)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None,
        op: int,
        span_id: int | None = None,
    ) -> int:
        """Record a span whose interval the caller already knows — the way
        a response's ``elapsed_seconds`` becomes a child of the client call."""
        if span_id is None:
            span_id = self._new_id()
        span = Span(span_id, name, start, end, parent, op)
        with self._lock:
            self.spans.append(span)
        return span_id

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so time two children share is subtracted once.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result
