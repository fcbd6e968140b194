"""In-memory spans for the traced benchmark run, and self time from them.

A span is (id, parent id, request id, name, start, end) with times from
time.perf_counter().  Spans stay in a list until the run writes them out,
so recording one costs two clock reads and a list append.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, request):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid] = (sid, parent, request, name, start, end)


class NullTracer:
    """Same interface as Tracer, records nothing: the untraced passes."""

    spans = ()

    def span(self, name, request):
        return nullcontext()


def self_times(spans):
    """Per span name: (total self seconds, span count).

    Self time is a span's duration minus the part of it that its child
    spans cover.  Pass the spans of one process at a time: span ids and
    clocks are per process.
    """
    children = defaultdict(list)
    for sid, parent, _req, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals = defaultdict(float)
    counts = defaultdict(int)
    for sid, _parent, _req, name, start, end in spans:
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        totals[name] += (end - start) - covered
        counts[name] += 1
    return dict(totals), dict(counts)
