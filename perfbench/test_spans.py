"""Tests for the benchmark's own arithmetic: span self time, the tail
percentile rule and the forest-grid projection.

Run with ``python -m pytest perfbench``; they need neither readmit nor a
benchmark run.
"""

from itertools import product

import pytest

from spans import (
    Span, Tracer, covered_length, grid_trees, percentile, projected_hours,
    self_times, tail_percentile,
)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("parent", 0.0, 10.0, None),
        Span("x", 2.0, 6.0, 0),
        Span("y", 4.0, 8.0, 0),      # overlaps x: union is [2, 8]
        Span("z", 9.0, 12.0, 0),     # runs past the parent: only [9, 10] counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_covered_length_ignores_empty_and_outside_intervals():
    assert covered_length(0.0, 5.0, [(6.0, 7.0), (3.0, 3.0), (-2.0, -1.0)]) == 0.0
    assert covered_length(0.0, 5.0, [(1.0, 2.0), (1.5, 2.5), (4.0, 9.0)]) == pytest.approx(2.5)


def test_tracer_nests_spans_counts_results_and_restores_sites():
    class Module:
        @staticmethod
        def leaf(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Module.leaf(x) * 2

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    originals = (Module.leaf, Module.outer)
    sites = [
        (Module, "outer", "layer.outer", None),
        (Module, "leaf", "layer.leaf", lambda args, kwargs, result: {"out": result}),
        (Module, "missing", "layer.missing", None),
    ]
    with tracer.installed(sites):
        assert Module.outer(1) == 4
    assert (Module.leaf, Module.outer) == originals
    outer, leaf = tracer.spans
    assert (outer.name, outer.parent, outer.start, outer.end) == ("layer.outer", None, 0.0, 3.0)
    assert (leaf.name, leaf.parent, leaf.start, leaf.end) == ("layer.leaf", 0, 1.0, 2.0)
    assert leaf.counts == {"out": 2}
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_tracer_closes_a_span_whose_call_raises():
    def boom():
        raise KeyError("x")

    tracer = Tracer()
    traced = tracer.wrap(boom, "layer.boom")
    with pytest.raises(KeyError):
        traced()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._open == []


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, "50") == 50
    assert percentile(values, "90") == 90
    assert percentile(values, "99.9") == 100
    assert percentile([7.0], "50") == 7.0


@pytest.mark.parametrize("n, expected_q", [
    (19, None),        # the median has only 9 samples above it
    (20, "50"),
    (99, "50"),        # p90 leaves 9 above
    (100, "90"),
    (999, "90"),
    (1000, "99"),
    (10000, "99.9"),   # exact arithmetic: rank 9990, 10 above
    (100000, "99.99"),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected_q):
    tail = tail_percentile([float(i) for i in range(n)])
    if expected_q is None:
        assert tail is None
    else:
        q, value = tail
        assert q == expected_q
        above = sum(v > value for v in range(n))
        assert above >= 10


def test_grid_trees_and_default_grid_projection():
    default = {"ntree": [500, 1000, 150], "mtry": [20, 30, 40, 50],
               "nodesize": [1, 3, 7, 9], "maxnodes": [200, 300]}
    configs = [dict(zip(default, combo)) for combo in product(*default.values())]
    assert grid_trees(configs, n_folds=10) == 528_000
    # The one-tenth sub-grid (two triples, one fold) fits 330 trees; the
    # projection multiplies its time by 16 triples x 10 folds x 10.
    sub = [{"ntree": t} for t in (50, 100, 15)] * 2
    assert grid_trees(sub, n_folds=1) == 330
    assert projected_hours(51.75, 330, 528_000) == pytest.approx(51.75 * 1600 / 3600)
    assert projected_hours(3600.0, 10, 10) == pytest.approx(1.0)
