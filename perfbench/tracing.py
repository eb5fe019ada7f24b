"""Spans and counters recorded by the benchmark around calls into dsmedian.

A span is (id, name, start, end, parent id, group); the group is the
replicate or command the call belongs to.  Spans stay in memory and are
written as JSON lines when the workload process ends.  Nothing here
reaches inside the package: spans wrap calls made from the benchmark's
own code, or calls the CLI makes through names in its module namespace.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.group = None
        self.pass_no = -1
        self.pass_start = 0
        self.replicate_groups: list = []
        self._stack: list[int] = []

    def begin_pass(self) -> None:
        """Start a traced pass: counters and replicate groups are per pass."""
        self.pass_no += 1
        self.pass_start = len(self.spans)
        self.counts.clear()
        self.replicate_groups = []

    def enter(self, key, replicate: bool = False) -> None:
        """Attribute the following spans to ``key`` (a replicate or command)."""
        self.group = (self.pass_no, key)
        if replicate:
            self.replicate_groups.append(self.group)

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.group]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def pass_spans(self, name: str) -> int:
        """Number of spans called ``name`` in the current pass."""
        return sum(1 for s in self.spans[self.pass_start:] if s[1] == name)

    def per_replicate(self, counter: str) -> float:
        """Mean of a per-group counter over the current pass's replicates."""
        groups = self.replicate_groups
        return sum(self.counts[(counter, g)] for g in groups) / len(groups) if groups else 0.0

    def group_totals(self, names: tuple[str, ...]) -> dict:
        """Summed duration of the named spans in each group."""
        totals: dict = defaultdict(float)
        for s in self.spans:
            if s[1] in names:
                totals[s[5]] += s[3] - s[2]
        return totals

    def self_times(self, name: str) -> list[float]:
        """Duration of each span called ``name`` minus its direct children."""
        own = {s[0]: s[3] - s[2] for s in self.spans if s[1] == name}
        for s in self.spans:
            if s[4] in own:
                own[s[4]] -= s[3] - s[2]
        return list(own.values())

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, group in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "group": group}) + "\n")


class NullTracer:
    """Stand-in with the Tracer interface that records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, k: int = 1) -> None:
        pass

    def enter(self, key, replicate: bool = False) -> None:
        pass


@contextlib.contextmanager
def counting_sorts(tracer: Tracer):
    """Count ``numpy.sort`` calls and sorted elements per tracer group."""
    original = np.sort

    def sort(a, *args, **kwargs):
        tracer.count(("sorts", tracer.group))
        tracer.count(("sorted_elements", tracer.group), np.size(a))
        return original(a, *args, **kwargs)

    np.sort = sort
    try:
        yield
    finally:
        np.sort = original


def traced(tracer: Tracer, name: str, fn):
    """``fn`` wrapped in a span called ``name``."""

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def patched(namespace, replacements: dict):
    """Temporarily rebind attributes of a module or class; names the
    namespace does not have are left alone."""
    saved = {k: getattr(namespace, k) for k in replacements if hasattr(namespace, k)}
    for k in saved:
        setattr(namespace, k, replacements[k])
    try:
        yield
    finally:
        for k, v in saved.items():
            setattr(namespace, k, v)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0
