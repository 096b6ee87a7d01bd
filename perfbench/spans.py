"""The benchmark's own tracing: timed wrappers around layer entry points.

A :class:`SpanLog` patches public entry points (class methods or module
functions) with wrappers that record ``(name, start, end)`` into an
in-memory list until :meth:`SpanLog.restore` puts the originals back.
:func:`build_tree` merges those spans
with the stage spans the program already records
(``HitlistService.spans``) into one tree by interval containment.  Both
sides read :func:`time.perf_counter`, so their intervals are directly
comparable.  A span's *self time* is its duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Collects spans from patched entry points until :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float]] = []
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        original = getattr(owner, attr)
        record = self.spans.append
        clock = time.perf_counter

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                record((name, start, clock()))

        # looked up on the class/module dict so staticmethods and plain
        # functions are restored exactly as they were
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def build_tree(intervals: Iterable[Tuple[str, float, float]]) -> List[Span]:
    """Nest intervals by containment (intervals come from one thread)."""
    spans = [Span(name, start, end) for name, start, end in intervals]
    order = sorted(range(len(spans)), key=lambda i: (spans[i].start, -spans[i].end))
    stack: List[int] = []
    for index in order:
        span = spans[index]
        while stack and spans[stack[-1]].end <= span.start:
            stack.pop()
        while stack and spans[stack[-1]].end < span.end:
            # partial overlap cannot happen between nested calls; treat
            # the earlier span as closed rather than mis-nest
            stack.pop()
        if stack:
            span.parent = stack[-1]
            spans[stack[-1]].children.append(index)
        stack.append(index)
    return spans


def self_times(spans: List[Span]) -> List[float]:
    """Per span: duration minus the union of its children's intervals."""
    result = []
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(span.children, key=lambda i: spans[i].start):
            start = max(spans[child].start, cursor)
            end = spans[child].end
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


def totals_by_name(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(total, self)`` seconds per span name; nested repeats of one name
    count once in the total (only outermost occurrences add)."""
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for span, self_time in zip(spans, self_times(spans)):
        own[span.name] += self_time
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            total[span.name] += span.duration
    return dict(total), dict(own)


def to_json(spans: List[Span]) -> List[dict]:
    return [
        {"name": span.name, "start": span.start, "end": span.end,
         "parent": span.parent}
        for span in spans
    ]
