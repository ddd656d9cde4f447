"""Timing spans recorded around calls into the program, kept in memory, and
the arithmetic the per-layer metrics are built from.

Nothing here imports readmit: a span is opened by wrapping a function at
the module attribute its callers look it up through, so the program itself
is not changed.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

# Percentiles tried for the tail of a timing distribution, lowest first.
TAIL_LADDER = ("50", "90", "99", "99.9", "99.99")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None            # index of the enclosing span, if any
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of every wrapped function; spans nest by
    call depth, so a span's parent is the innermost span open at its
    start."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    def wrap(self, fn, name, count=None):
        """``name`` is a string or ``name(args, kwargs)``; ``count(args,
        kwargs, result)`` returns the counts to attach to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            parent = self._open[-1] if self._open else None
            span = Span(label, self._clock(), math.nan, parent)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._open.pop()
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, sites):
        """Wrap each ``(module, attribute, name, count)`` site for the
        duration of the block. A site whose attribute no longer exists is
        skipped, so the layer it belongs to reads as zero."""
        saved = []
        try:
            for module, attr, name, count in sites:
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered_length(span.start, span.end, children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def _rank(q: str, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(Fraction(q) * n / 100))


def percentile(values, q: str) -> float:
    """Nearest-rank percentile; ``q`` is a decimal string such as "99.9"."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(q, len(ordered)) - 1]


def tail_percentile(values, beyond: int = 10) -> tuple[str, float] | None:
    """The highest percentile on ``TAIL_LADDER`` with at least ``beyond``
    samples ranked above it, and its value; None when even the median has
    fewer."""
    n = len(values)
    best = None
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= beyond:
            best = q
    if best is None:
        return None
    return best, percentile(values, best)


def grid_trees(configs, n_folds: int) -> int:
    """Trees a forest grid fits: the ``ntree`` of every cell, per fold."""
    return sum(int(c["ntree"]) for c in configs) * n_folds


def projected_hours(run_s: float, timed_trees: int, target_trees: int) -> float:
    """Hours ``target_trees`` would take at the per-tree rate of a run that
    fitted ``timed_trees`` in ``run_s`` seconds."""
    return run_s * target_trees / timed_trees / 3600.0
