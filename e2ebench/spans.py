"""In-memory spans for the traced run.

A :class:`Tracer` records one :class:`Span` per call the benchmark wraps:
name, start, end, parent span and the step or request id.  Spans stay in
memory while the workload runs and are written as JSONL at the end.  The
untraced runs never create a tracer, so their timings carry no tracing
cost.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass

__all__ = ["Span", "Tracer", "self_times"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    key: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; nesting is tracked per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, key: str | None = None):
        """Time the block as a child of the innermost open span."""
        stack = self._stack()
        parent, parent_key = stack[-1] if stack else (None, None)
        key = parent_key if key is None else str(key)
        sid = next(self._ids)
        stack.append((sid, key))
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, key))

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: ``(total self seconds, span count)``.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (overlapping children are merged, and
    children are clipped to the parent's interval).
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, tuple[float, int]] = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        total, count = out.get(s.name, (0.0, 0))
        out[s.name] = (total + s.duration - covered, count + 1)
    return out
