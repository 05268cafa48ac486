"""In-memory spans for the traced pass of flood-e2e.

The harness records a span around each of its own calls into a layer
(``FloodIndex.plan``, ``engine.run``, one request on the wire, ...):
name, start, end, the span that caused it, and a request id shared by
every span of one request. Spans stay in memory and are written out once,
when the pass ends. A layer's *self time* is its span's duration minus
the part of it its direct children cover. Spans inside ``src/`` are the
ROADMAP's ``repro/obs.py`` issue, not this harness's business.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Append-only span store with a stack for implicit parents."""

    def __init__(self):
        #: ``[name, start, end, parent index or None, request id, attrs]``
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request=None):
        """Record the enclosed block; nested blocks become children."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, request, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end, request=None, attrs=None) -> None:
        """Record a span measured elsewhere (one request on the wire)."""
        self.spans.append([name, start, end, None, request, attrs])

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _, _, _), covered in zip(self.spans, child_time):
            out.setdefault(name, []).append(end - start - covered)
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON document."""
        keys = ("name", "start", "end", "parent", "request", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)
