"""In-memory spans and counters recorded around the layers' public functions.

A traced function is replaced, for the length of an ``installed`` block, on
the module where its callers look it up.  Each call then opens a span (name,
start, end, parent span, item id) or bumps a counter.  Spans stay in memory
until the run ends; self time is a span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    item: str | None = None
    error: str | None = None
    error_typed: bool | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and call counters of one traced run."""

    def __init__(self, typed_error: type[BaseException] = Exception):
        self.typed_error = typed_error
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._item: str | None = None

    @contextlib.contextmanager
    def item(self, name: str, item_id: str):
        """Root span of one benchmark item; nested spans inherit its id."""
        self._item = item_id
        try:
            with self.span(name):
                yield
        finally:
            self._item = None

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(
            name,
            time.perf_counter(),
            parent=self._stack[-1] if self._stack else None,
            item=self._item,
        )
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            span.error_typed = isinstance(exc, self.typed_error)
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap_span(self, name: str, fn, attrs=None):
        """``fn`` recording a span per call; ``attrs(args, result, exc)`` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if attrs is not None:
                        span.attrs.update(attrs(args, None, exc))
                    raise
                if attrs is not None:
                    span.attrs.update(attrs(args, result, None))
                return result

        return traced

    def wrap_count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                rec = asdict(span)
                rec["id"] = i
                rec["start"] = span.start - t0
                rec["end"] = span.end - t0
                out.write(json.dumps(rec) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer, points):
    """Swap in traced functions; ``points`` are (module, attr, name, kind[, attrs])."""
    saved = []
    try:
        for module, attr, name, kind, *hook in points:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            if kind == "span":
                traced = tracer.wrap_span(name, original, *hook)
            else:
                traced = tracer.wrap_count(name, original)
            setattr(module, attr, traced)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out
