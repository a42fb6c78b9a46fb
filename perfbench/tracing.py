"""In-memory spans around the benchmark's calls into the library.

A span records name, start, end, parent span, the request it belongs to
(the serve-loop sequence number, or None during setup), the query id and
the setup repetition. Spans are only kept in memory while the workload
runs; they are written out and reduced to per-layer self time at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request: int | None = None
        self.query: int | None = None
        self.setup: int | None = None

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
               "request": self.request, "query": self.query, "setup": self.setup, "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, separators=(",", ":")))

    def self_times(self, phase: str) -> dict[str, dict[int, float]]:
        """name -> {request or setup repetition: summed self seconds}.

        phase is "request" or "setup". A span's self time is its duration
        minus that of its children, which run one after another inside it.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            if s[phase] is not None:
                out[s["name"]][s[phase]] += s["end"] - s["start"] - child[s["id"]]
        return out

    def durations(self, name: str) -> dict[int, float]:
        """request -> whole duration of the spans with that name."""
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == name and s["request"] is not None:
                out[s["request"]] += s["end"] - s["start"]
        return out
