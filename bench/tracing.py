"""In-memory spans recorded around calls into exactga's modules.

A span is (name, op, parent, start, end): ``op`` identifies the benchmark
operation the call served and ``parent`` is the index of the enclosing span,
or -1.  Spans are recorded by the benchmark's own code around public calls;
two boundaries are observed by temporarily wrapping an attribute (see
``wrapped``).  Nothing is written out until the run ends.  Durations are
reported in milliseconds, multiplied by the speed factor the caller recorded
for the span's op, if any.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = None
        self.speed: dict = {}  # op -> factor its durations are scaled by
        self.counts: dict[str, int] = {}
        self.counting = False

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, self.op, parent, start, end)

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def count(self, name: str, n: int = 1):
        if self.counting:
            self.counts[name] = self.counts.get(name, 0) + n

    def high_water(self, name: str, value: int):
        if self.counting:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def _ms(self, span, seconds: float) -> float:
        return seconds * 1000 * self.speed.get(span[1], 1.0)

    def durations_ms(self, name: str) -> list[float]:
        return [self._ms(s, s[4] - s[3]) for s in self.spans if s[0] == name]

    def median_ms(self, name: str) -> float | None:
        values = self.durations_ms(name)
        return statistics.median(values) if values else None

    def self_ms(self, name: str, child: str) -> list[float]:
        """Per span of ``name``: its duration minus its ``child`` spans."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s[0] == child and s[2] >= 0:
                covered[s[2]] = covered.get(s[2], 0.0) + (s[4] - s[3])
        return [self._ms(s, s[4] - s[3] - covered[i])
                for i, s in enumerate(self.spans) if s[0] == name and i in covered]

    def paired_ms(self, outer: str, inner: str) -> list[float]:
        """Per op: duration of ``outer`` minus that of ``inner`` in the same op."""
        inner_by_op = {}
        for s in self.spans:
            if s[0] == inner:
                inner_by_op[s[1]] = s[4] - s[3]
        return [self._ms(s, s[4] - s[3] - inner_by_op[s[1]])
                for s in self.spans if s[0] == outer and s[1] in inner_by_op]


@contextmanager
def wrapped(owner, attr: str, tracer: Tracer, name: str, on_return=None):
    """Replace ``owner.attr`` by a span-recording wrapper for the block.

    Fails loudly when the attribute is missing, so a renamed boundary shows
    as an error instead of a silently empty metric.
    """
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = original(*args, **kwargs)
        if on_return is not None:
            on_return(args, out)
        return out

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)
