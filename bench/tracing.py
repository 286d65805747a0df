"""In-memory span tracer that times sigver's public functions from outside.

A traced function is replaced by a wrapper in every sigver module that
binds it, so callers that imported it by name (``siamese`` binds
``lstm_forward_batch``) are timed as well. The program's files are not
changed. Spans nest: a span's self time is its duration minus the
durations of its direct child spans. Spans stay in memory until the
caller asks for them.
"""
from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    children_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.duration

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one job."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call.

        ``count(arguments, result)`` returns the span's work counts from
        the call's arguments by parameter name; it runs after the span has
        closed, so its cost is not timed.
        """
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Trace ``(module, attribute, span name, count)`` targets."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sigver" or n.startswith("sigver.")]
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            traced = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed counts."""
        out: dict[str, dict] = {}
        for span in self.spans:
            agg = out.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
            )
            agg["calls"] += 1
            agg["total_s"] += span.duration
            agg["self_s"] += span.self_s
            for key, value in span.counts.items():
                agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out


def span_cost_s(calls: int = 20000) -> float:
    """Measured extra seconds one traced and counted call costs over a plain call."""
    def noop(a, b, c=None):
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop, lambda arguments, result: {})
    t0 = time.perf_counter()
    for _ in range(calls):
        noop(1, 2)
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced(1, 2)
    return max(0.0, (time.perf_counter() - t0 - plain) / calls)
