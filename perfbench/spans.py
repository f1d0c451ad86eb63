"""Span recording around the solver's public functions, from outside the solver.

Each wrapped call records a span: its name, start, end and the span that was
open when it began (its parent). A span's self time is its duration minus the
time its child spans cover. Hot leaf functions are only counted, because a
span around every call would cost more than the call.

A name is replaced in every module that binds it (``evaluate`` is bound in
``core``, ``evolution``, ``clsm`` and ``scheduler``), so calls are seen
whichever import path they take. Nothing under ``src/`` is edited: the
originals are put back when the tracer is closed.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import ModuleType
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root


# Reports an outcome of one call: (tracer, call arguments, return value).
OutcomeHook = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Patches solver functions in place and keeps the spans of the current
    solve plus counters that outlive it."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[ModuleType, str, object]] = []

    def _wrap(self, name: str, fn: Callable, outcome: OutcomeHook | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(record)
            stack.append(index)
            record.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = clock()
                stack.pop()
            if outcome is not None:
                outcome(self, args, result)
            return result

        return traced

    def span(self, fn: Callable, name: str, outcome: OutcomeHook | None = None) -> None:
        """Record a span named `name` around every call of `fn`."""
        self._patch(fn, self._wrap(name, fn, outcome))

    def count(self, fn: Callable, name: str) -> None:
        """Count the calls of `fn` under `name`.calls, without spans."""
        counts, key = self.counts, name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._patch(fn, counted)

    def _patch(self, fn: Callable, replacement: Callable) -> None:
        """Replace fn in every module of the package that binds it."""
        prefix = self.package + "."
        for module_name, module in list(sys.modules.items()):
            if module_name != self.package and not module_name.startswith(prefix):
                continue
            if getattr(module, fn.__name__, None) is fn:
                self._restore.append((module, fn.__name__, fn))
                setattr(module, fn.__name__, replacement)

    def close(self) -> None:
        """Put every patched name back."""
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def root(self, name: str, fn: Callable, *args):
        """Call fn(*args) inside a span with no parent."""
        return self._wrap(name, fn)(*args)

    def drain(self) -> "SpanTotals":
        """Sum the recorded spans per name and forget them."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals = SpanTotals()
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            totals.calls[span.name] += 1
            totals.duration[span.name] += duration
            totals.self_time[span.name] += duration - child_time[index]
            totals.starts[span.name].append(span.start)
            totals.ends[span.name].append(span.end)
        self.spans.clear()
        return totals


class SpanTotals:
    """Per span name: calls, total duration, total self time, and the start
    and end of every span."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.duration: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.starts: defaultdict[str, list[float]] = defaultdict(list)
        self.ends: defaultdict[str, list[float]] = defaultdict(list)

    def merge(self, other: "SpanTotals") -> None:
        """Add other's sums to these; start and end times are not kept."""
        self.calls.update(other.calls)
        for name, value in other.duration.items():
            self.duration[name] += value
        for name, value in other.self_time.items():
            self.self_time[name] += value
