"""In-memory spans recorded around the benchmark's own calls into orthoflow.

A span is named ``<layer>.<what>``; the layer is the orthoflow module the
call belongs to (``flow``, ``oracle``, ``polynomials``, ...). The root span
of each timed operation is named ``op``. Nothing inside the package is
patched: spans cover only the public calls the benchmark makes itself.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and per-op counters in memory."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.op: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value


class NullTracer:
    """Tracer stand-in for untraced runs: records nothing."""

    enabled = False
    spans: tuple = ()
    counts: dict = {}
    op = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float = 1.0) -> None:
        pass


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_self_time(spans: list[Span]) -> dict[str, float]:
    """Total self time per layer, in seconds."""
    out: dict[str, float] = {}
    for s, st in zip(spans, self_times(spans)):
        out[s.layer] = out.get(s.layer, 0.0) + st
    return out


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.duration for s in spans if s.name == name]


def to_json(spans: list[Span]) -> list[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
        for s in spans
    ]
