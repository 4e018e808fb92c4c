"""In-memory span recorder for the traced benchmark run.

Spans are taken from the benchmark's side of each call: `patched` swaps a
module or class attribute (the name the calling code looks up, such as
``hsbt.enclave.decrypt_wire``) for a wrapper that records name, start, end,
parent span and query id, and puts the original back on exit.  Nothing in the
program under test changes, and the untraced run pays nothing.

Spans stay in a list until the traced phase ends.  Calls are single-threaded
and properly nested, so a span's children never overlap and its self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans; `query` tags every span with the query being served
    (None during set-up)."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int | None] | None] = []
        self.query: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.query)

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each ``(owner, attribute, span name)`` for the duration of the
        block.  `owner` is a module or a class; class attributes are plain
        functions, so the wrapper still binds as a method."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def per_query(self) -> dict[int, "QuerySpans"]:
        """Fold the recorded spans into one `QuerySpans` per query id."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[int, QuerySpans] = {}
        for idx, span in enumerate(spans):
            if span is None or span[4] is None:
                continue
            name, start, end, parent, query = span
            q = out.get(query)
            if q is None:
                q = out[query] = QuerySpans()
            duration = end - start
            q.total_ns[name] += duration
            q.self_ns[name] += duration - child_ns[idx]
            parent_name = spans[parent][0] if parent >= 0 else ""
            q.under_ns[(name, parent_name)] += duration
        return out

    def dump(self, path) -> None:
        """Write every span as one tab-separated line:
        ``name start_ns end_ns parent_index query``."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tquery\n")
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, query = span
                    fh.write(f"{name}\t{start}\t{end}\t{parent}\t{'' if query is None else query}\n")


class QuerySpans:
    """Per-query sums by span name: inclusive time, self time, and inclusive
    time keyed by (name, parent name)."""

    __slots__ = ("total_ns", "self_ns", "under_ns")

    def __init__(self):
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.under_ns: dict[tuple[str, str], int] = defaultdict(int)
