"""In-memory span recorder for the traced run mode.

A span is ``(id, parent, name, start, end, request)``: times are
``time.perf_counter()`` seconds, ``parent`` is the id of the span open
around it (``0`` at the top), ``request`` tags the spans of one served
request.  Counters recorded at the same boundaries ride in
:attr:`Tracer.counts`.  Nothing is written until :meth:`Tracer.dump`.

Spans wrap the benchmark's calls into the program's public functions;
the program itself is not instrumented.  A layer's self time is its
span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records spans when ``enabled``; otherwise only times the call."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, int, str, float, float, int | None]] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = [0]
        self._next = 1

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> tuple[int, str, float]:
        """Start a span that encloses later spans; close with :meth:`close`."""
        sid = self._next
        self._next += 1
        self._stack.append(sid)
        return sid, name, time.perf_counter()

    def close(self, token: tuple[int, str, float], name: str | None = None) -> float:
        """End the span; *name* renames it (decided after the call)."""
        sid, opened, start = token
        end = time.perf_counter()
        self._stack.pop()
        if self.enabled:
            self.spans.append(
                (sid, self._stack[-1], name or opened, start, end, None))
        return end - start

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside span *name*; returns
        ``(result, seconds)``."""
        token = self.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            seconds = self.close(token)
        return out, seconds

    def add(self, name: str, start: float, end: float,
            request: int | None = None, parent: int | None = None) -> None:
        """Record a span timed elsewhere (e.g. submit → answer) under
        *parent* (default: the innermost open span)."""
        if self.enabled:
            sid = self._next
            self._next += 1
            self.spans.append((sid, self._stack[-1] if parent is None else parent,
                               name, start, end, request))

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name].append(float(value))

    # -- reading -------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the union of
        its children's intervals (served requests overlap each other)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[name] += (end - start) - covered
        return dict(out)

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span and counter as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "fields": ["id", "parent", "name", "start_s", "end_s", "request"],
            "spans": [list(s) for s in self.spans],
            "counts": {k: v for k, v in sorted(self.counts.items())},
            "self_time_s": self.self_times(),
        }
        path.write_text(json.dumps(doc))
