"""Span arithmetic on a synthetic tree, and patching of the live package."""

import numpy as np

import tsagg.dispatch_model
import tsagg.evaluation
import tsagg.lp_core
from tsagg import _kernels
from tsagg.dispatch_model import Generator, SystemData
from tsbench.bench import tail
from tsbench.tracing import (
    Tracer,
    hours_per_simplex_call,
    layer_totals,
    self_times,
    trial_accept_ratio,
)


def span(sid, parent, name, t0, t1, info=None):
    return (sid, parent, 0, name, t0, t1, info)


# root [0, 100] has children [10, 40] and [30, 60] (overlapping) and
# [90, 120] (sticking out); the first child has a grandchild [15, 20].
TREE = [
    span(0, -1, "op", 0, 100),
    span(1, 0, "a", 10, 40),
    span(2, 1, "b", 15, 20),
    span(3, 0, "a", 30, 60),
    span(4, 0, "c", 90, 120),
]


def test_self_time_subtracts_the_union_of_clipped_children():
    selfs = self_times(TREE)
    assert selfs[0] == 100 - (50 + 10)  # [10, 60] and [90, 100]
    assert selfs[1] == 30 - 5
    assert selfs[2] == 5
    assert selfs[3] == 30
    assert selfs[4] == 30


def test_self_time_of_a_child_contained_in_an_earlier_sibling():
    spans = [span(0, -1, "op", 0, 100), span(1, 0, "a", 10, 50), span(2, 0, "a", 20, 30)]
    assert self_times(spans)[0] == 100 - 40


def test_layer_totals_sum_calls_inclusive_and_self_times():
    totals = layer_totals(TREE)
    assert totals["a.calls"] == 2
    assert totals["a.ms"] == (30 + 30) / 1e6
    assert totals["a.self_ms"] == (25 + 30) / 1e6
    assert totals["b.self_ms"] == 5 / 1e6


def test_inclusive_time_counts_only_the_outermost_of_nested_same_name_spans():
    spans = [span(0, -1, "f", 0, 50), span(1, 0, "f", 10, 30)]
    totals = layer_totals(spans)
    assert totals["f.calls"] == 2
    assert totals["f.ms"] == 50 / 1e6
    assert totals["f.self_ms"] == (30 + 20) / 1e6


def test_ratios_use_the_spans_they_name():
    spans = [
        span(0, -1, "dispatch_model.solve_full", 0, 10, {"hours": 6}),
        span(1, 0, "_kernels.simplex", 1, 2),
        span(2, 0, "_kernels.simplex", 3, 4),
        span(3, -1, "_kernels.simplex", 11, 12),
        span(4, -1, "evaluation.run_theorem_trials", 20, 30, {"trials": 3}),
        span(5, 4, "lp_core.solve", 21, 22),
        span(6, 4, "lp_core.solve", 22, 23),
        span(7, 4, "evaluation.theorem_check", 23, 25),
        span(8, 7, "lp_core.solve", 23, 24),
    ]
    assert hours_per_simplex_call(spans) == 3.0
    assert trial_accept_ratio(spans) == 1.5


def test_tracer_patches_every_binding_and_restores_it():
    originals = (tsagg.dispatch_model.solve, tsagg.evaluation.solve,
                 tsagg.lp_core.solve, _kernels.simplex)
    system = SystemData(
        (Generator("wind", 0.0, 50.0, is_variable=True, cf_series_id="wind"),
         Generator("thermal", 10.0, 100.0)),
        np.array([30.0, 80.0, 120.0]),
        {"wind": np.array([0.2, 0.5, 1.0])},
    )
    tracer = Tracer()
    with tracer:
        assert tsagg.dispatch_model.solve is tsagg.evaluation.solve
        assert tsagg.dispatch_model.solve is not originals[0]
        tracer.op("solve", tsagg.dispatch_model.solve_full, system)
    assert (tsagg.dispatch_model.solve, tsagg.evaluation.solve,
            tsagg.lp_core.solve, _kernels.simplex) == originals
    names = {s[0]: s[3] for s in tracer.spans}
    parents = {s[0]: s[1] for s in tracer.spans}
    simplex = [s for s in tracer.spans if s[3] == "_kernels.simplex"]
    assert len(simplex) == 3
    for s in simplex:
        solve_id = parents[s[0]]
        assert names[solve_id] == "lp_core.solve"
        assert names[parents[solve_id]] == "dispatch_model.solve_full"
    assert hours_per_simplex_call(tracer.spans) == 1.0
    totals = layer_totals(tracer.spans)
    assert totals["dispatch_model.hourly_rhs.calls"] == 3
    assert totals["lp_core.StandardFormLP.calls"] == 3


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(20)]
    assert tail(samples) == (9.0, 50.0, 10)
    assert tail(samples[:11]) == (0.0, 100.0 / 11, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
