"""In-memory span recorder for traced benchmark runs.

A span is one call the benchmark makes into the program, recorded as
(name, start, end, parent index, op id). Spans stay in a list until the run
ends; a span's self time is its duration minus the durations of its child
spans, which run one after another on the single benchmark thread.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import nullcontext
from time import perf_counter


class Recorder:
    """Records spans and counters; `overhead_s` is its own bookkeeping time."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.overhead_s = 0.0
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            calls, busy = out.get(name, (0, 0.0))
            out[name] = (calls + 1, busy + (end - start - child))
        return out

    def dump(self, path, meta: dict) -> None:
        doc = {
            "meta": meta,
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


class _Span:
    __slots__ = ("rec", "name", "index", "start")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        t0 = perf_counter()
        rec = self.rec
        self.index = len(rec.spans)
        rec.spans.append(None)
        rec._open.append(self.index)
        self.start = perf_counter()
        rec.overhead_s += self.start - t0

    def __exit__(self, *exc) -> bool:
        end = perf_counter()
        rec = self.rec
        rec._open.pop()
        parent = rec._open[-1] if rec._open else -1
        rec.spans[self.index] = (self.name, self.start, end, parent, rec.op)
        rec.overhead_s += perf_counter() - end
        return False


class NullRecorder:
    """Stand-in for untraced runs: calls go straight to the program."""

    op = -1

    def span(self, name: str):
        return nullcontext()

    def wrap(self, name: str, fn):
        return fn

    def count(self, name: str, n: int = 1) -> None:
        pass
