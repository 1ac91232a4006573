"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark's own code around each call into a
``repro.*`` layer; nothing inside the program is instrumented. A span
has a name, a start, an end and the span that caused it (its parent).
Spans stay in memory until the run ends, then are written out with the
result file.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans. Children that overlap (spans from
several threads) are merged first, so covered time is never counted
twice.

A disabled recorder hands out one shared no-op context manager, so an
untraced run pays one attribute lookup per layer call and records
nothing.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "covered_seconds"]


@dataclass
class Span:
    """One recorded interval (``perf_counter`` seconds)."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_seconds(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Records spans; thread-safe.

    ``span(name)`` nests under the innermost open span of the calling
    thread. ``record(name, start, end, parent=...)`` adds an interval
    measured elsewhere (e.g. the wall time a pool worker reports for
    one evaluation) under an explicit parent.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._noop = contextlib.nullcontext()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, *, parent: int | None = None):
        """Context manager timing one call into a layer; nests under
        ``parent`` if given (a span opened on another thread)."""
        if not self.enabled:
            return self._noop
        return self._open(name, parent)

    @contextlib.contextmanager
    def _open(self, name: str, parent: int | None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, parent, name, start, end))

    def current(self) -> int | None:
        """Id of the calling thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else None

    def record(self, name: str, start: float, end: float, *,
               parent: int | None) -> None:
        """Add an externally measured interval."""
        if not self.enabled:
            return
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.spans.append(Span(span_id, parent, name, start, end))

    # -- analysis ----------------------------------------------------------
    def self_seconds(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        return {s.id: s.duration - covered_seconds(
                    [(c.start, c.end) for c in children[s.id]],
                    s.start, s.end)
                for s in self.spans}

    def self_by_name(self) -> dict[str, float]:
        """Total self time per span name."""
        own = self.self_seconds()
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.name] += own[s.id]
        return dict(totals)

    def total_by_name(self) -> dict[str, float]:
        """Total (inclusive) duration per span name."""
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.name] += s.duration
        return dict(totals)

    def layer_seconds(self, root_name: str) -> float:
        """Total self time of the spans nested, at any depth, under the
        ``root_name`` spans: the part of the timed region that is
        attributed to named layers."""
        own = self.self_seconds()
        parent = {s.id: s.parent for s in self.spans}
        roots = {s.id for s in self.spans if s.name == root_name}

        def under_root(span_id):
            span_id = parent[span_id]
            while span_id is not None:
                if span_id in roots:
                    return True
                span_id = parent.get(span_id)
            return False

        return sum(own[s.id] for s in self.spans if under_root(s.id))

    def to_json(self) -> dict:
        origin = min((s.start for s in self.spans), default=0.0)
        return {"spans": [{"id": s.id, "parent": s.parent, "name": s.name,
                           "start_s": s.start - origin,
                           "end_s": s.end - origin}
                          for s in sorted(self.spans, key=lambda s: s.id)]}
