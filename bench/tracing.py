"""In-memory spans around calls into camph, recorded from outside it.

A span is ``[name, start, end, parent]``, where ``parent`` is the index of
the span that was open when it started (-1 at top level). Spans stay in
memory until the traced run ends. Functions are wrapped where their
callers look them up (a module or class attribute), so the program itself
runs unmodified.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def _end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self.clock()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)

        return traced

    def counted(self, name: str, fn):
        """``fn`` counting its calls under ``name``, without a span."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(owner.attr)`` until restore()."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another inside it, so the time
    they cover is the sum of their durations.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans) -> tuple[Counter, Counter]:
    """Self time and call count per span name."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        self_s[name] += own
        calls[name] += 1
    return self_s, calls
