"""Property checks on random small dispatch systems, drawn by hypothesis.

Each system has one wind unit, one to three thermal units with distinct
costs and must-run floors, and NSE.  Each hour's demand sits exactly on a
merit-order boundary (the floor total, the floors plus the wind, or the
wind plus every thermal unit at capacity) or inside a segment.  Every
capacity, floor, demand and capacity factor is a multiple of 1/64 (wind
output of 1/4096), so the RHS arithmetic is exact and a boundary hour
really is degenerate rather than a rounding error away from it.

The k-means bound draws ``systems.random_system`` instead: its general
data need no exact boundaries, and the solver property draws
``systems.one_boundary_system``: one hour on, within the solver's
tolerances of, or a few ulp from a merit-order boundary.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from systems import BOUNDARY_OFFSETS, one_boundary_system, random_system  # noqa: E402
from test_cones import assert_same_solution  # noqa: E402
from test_kernels import _assert_hours_match_reference  # noqa: E402
from tsagg.data_io import regime_fractions  # noqa: E402
from tsagg.dispatch_model import (  # noqa: E402
    Generator,
    InfeasiblePeriodError,
    SystemData,
    add_nse_generator,
    cost_offset,
    regime_label,
    solve_aggregated,
    solve_by_cones,
    solve_full,
)
from tsagg.evaluation import compare_methods_detailed  # noqa: E402
from tsagg.tsa_clustering import kmeans, normalize_features, to_representatives  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=100, database=None)


def _sixty_fourths(low, high):
    """Multiples of 1/64 in [low, high]; low and high must be multiples too."""
    return st.integers(int(low * 64), int(high * 64)).map(lambda i: i / 64)


@st.composite
def systems(draw):
    hours = draw(st.integers(1, 8))
    wind_cap = draw(_sixty_fourths(1, 100))
    cf = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.integers(1, 63).map(lambda i: i / 64)),
        min_size=hours, max_size=hours,
    ))
    costs = draw(st.lists(st.integers(1, 100), min_size=1, max_size=3, unique=True))
    thermal = []
    for i, cost in enumerate(costs):
        cap = draw(_sixty_fourths(1, 100))
        p_min = draw(st.one_of(st.just(0.0), st.just(cap), _sixty_fourths(1 / 64, cap - 1 / 64)))
        thermal.append(Generator(f"t{i}", float(cost), cap, p_min=p_min))
    floors = sum(g.p_min for g in thermal)
    full_fleet = sum(g.capacity for g in thermal)
    demand = []
    for h in range(hours):
        wind = wind_cap * cf[h]
        boundary = st.sampled_from([floors, floors + wind, wind + full_fleet])
        interior = _sixty_fourths(floors, 1.5 * (wind + full_fleet))
        demand.append(draw(st.one_of(boundary, interior, interior)))
    wind_unit = Generator("wind", 0.0, wind_cap, is_variable=True, cf_series_id="wind")
    return add_nse_generator(
        SystemData((wind_unit, *thermal), np.array(demand), {"wind": np.array(cf)})
    )


@SETTINGS
@given(systems())
def test_basis_label_matches_merit_order_on_nondegenerate_hours(system):
    full = solve_full(system)
    cf = system.capacity_factors["wind"]
    for h, j in enumerate(full.basis_ids):
        basis = full.distinct_bases[j]
        if not (full.x[h, list(basis.indices)] > 0.0).all():
            continue  # a degenerate hour: some basic variable sits at zero
        hour = SystemData(system.generators, [system.demand[h]], {"wind": [cf[h]]})
        assert list(regime_fractions(hour)) == [regime_label(system, basis)], h


@SETTINGS
@given(systems())
def test_basis_aggregation_reproduces_the_full_cost(system):
    if solve_full(system).total_cost == 0.0:
        return  # the relative output error is undefined
    assert compare_methods_detailed(system).basis_report.output_error_pct <= 1e-6


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 5]))
def test_kmeans_never_overestimates_the_full_cost(seed, k):
    """Jensen: the optimal cost is convex in the RHS and a representative's
    RHS is its members' mean, so no cluster costs more aggregated than its
    hours do in full.  The gap is 0 when the hours share one basis, on
    which the cost is linear."""
    system = random_system(np.random.default_rng(seed))
    features = normalize_features(system)
    full = solve_full(system)
    model = kmeans(features, k)
    aggregated = solve_aggregated(system, to_representatives(model))
    scale = abs(full.total_cost)
    assert aggregated.total_cost <= full.total_cost * (1 + 1e-12)
    offset = cost_offset(system)
    hour_cost = full.objective + offset
    basis_id = full.basis_ids
    gaps = []
    for cid, (weight, objective) in enumerate(zip(aggregated.weights, aggregated.objective)):
        members = model.assignment == cid
        gap = hour_cost[members].sum() - weight * (objective + offset)
        assert gap >= -1e-12 * scale, cid
        if np.unique(basis_id[members]).size == 1:
            assert abs(gap) <= 1e-12 * scale, cid
        gaps.append(gap)
    assert sum(gaps) == pytest.approx(full.total_cost - aggregated.total_cost, abs=1e-12 * scale)


AGGREGATED_ARRAYS = ("weights", "x", "objective", "basis_ids", "reduced_costs", "production")


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 96), st.booleans(), st.integers(1, 6))
def test_aggregated_solve_seeded_by_a_full_solve_equals_a_fresh_one(seed, hours, nse, k):
    """``solve_aggregated`` in a system whose family holds a full solve's
    records tests the representatives against them first: the same
    solution as in a fresh system, bitwise but for ``iterations``, with
    ``distinct_bases`` in first-period order.  A fleet without NSE may
    have an infeasible hour; the records made before it stay."""
    def make():
        return random_system(np.random.default_rng(seed), hours=hours, nse=nse)

    system = make()
    try:
        solve_full(system)
    except InfeasiblePeriodError:
        pass
    reps = to_representatives(kmeans(normalize_features(system), min(k, hours)))
    try:
        want = solve_aggregated(make(), reps)
    except InfeasiblePeriodError as err:
        with pytest.raises(InfeasiblePeriodError) as got:
            solve_aggregated(system, reps)
        assert (got.value.index, got.value.status) == (err.index, err.status)
        return
    got = solve_aggregated(system, reps)
    assert got.distinct_bases == want.distinct_bases
    for name in AGGREGATED_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.total_cost.hex() == want.total_cost.hex()
    assert list(dict.fromkeys(got.basis_ids.tolist())) == list(range(len(got.distinct_bases)))


BOUNDARY_STEPS = st.one_of(
    st.sampled_from(BOUNDARY_OFFSETS).map(lambda offset: (offset, 0)),
    st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]).map(lambda ulps: (0.0, ulps)),
)


# The cone test refuses an x_B entry in (0, TOL_FEAS] that Bland's ratio
# test accepts: the hours within the tolerances reach it.  400 examples
# take about 3 s.
@settings(SETTINGS, max_examples=400)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), BOUNDARY_STEPS)
def test_solve_full_matches_reference_next_to_a_boundary(seed, boundary, step):
    """After hours well inside the regimes, an hour on a merit-order
    boundary and one at ``step`` (MW offset, then ulps) from it get the
    reference tableau's basis and pivot count, in ``solve_full`` as in one
    family, and ``solve_by_cones`` gives ``solve_full``'s bits."""
    offset, ulps = step

    def make():
        return one_boundary_system(np.random.default_rng(seed), boundary, offset, ulps)

    _assert_hours_match_reference(make())
    assert_same_solution(solve_by_cones(make()), solve_full(make()))
