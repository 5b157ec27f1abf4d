"""Dispatch construction and solve tests against hand-checked and oracle values."""

import gc
import math
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from oracles import dual_certificate, enumerate_lp, exact_basis_check
from systems import (
    SOLVER_SYSTEMS,
    THERMAL,
    WIND,
    degenerate_system,
    fleet_at_boundaries,
    fleet_system,
    near_boundary_system,
    random_system,
    thermal_wind,
)
from tsagg import _kernels
from tsagg.data_io import default_spec, generate_synthetic, regime_fractions
from tsagg.dispatch_model import (
    CostNotDominantError,
    DispatchKind,
    DuplicateNSEError,
    Generator,
    InfeasiblePeriodError,
    MissingCFError,
    Representative,
    SystemData,
    _rhs,
    _template,
    add_nse_generator,
    cost_offset,
    hourly_rhs,
    regime_counts,
    regime_label,
    solve_aggregated,
    solve_full,
)
from tsagg.lp_core import BasisSignature, StandardFormLP
from tsbench.instances import build_fleet


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_thermal_only_lp_shape_and_rhs():
    """1 thermal unit (cap 100, cost 10), demand 50: n=2 columns, b=(50, 100)."""
    system = SystemData((THERMAL,), [50.0])
    lp = StandardFormLP(*_template(system), hourly_rhs(system, 0))
    assert (lp.n, lp.m) == (2, 2)
    np.testing.assert_array_equal(lp.b, [50.0, 100.0])
    np.testing.assert_array_equal(lp.c, [10.0, 0.0])


def test_thermal_plus_wind_rhs_orders_headrooms_by_generator():
    """Adding wind (cap 50, cf 0.8) appends its 40 MW headroom row."""
    system = SystemData((THERMAL, WIND), [120.0], {"wind": [0.8]})
    lp = StandardFormLP(*_template(system), hourly_rhs(system, 0))
    assert (lp.n, lp.m) == (4, 3)
    np.testing.assert_array_equal(lp.b, [120.0, 100.0, 40.0])
    expected_A = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_array_equal(lp.A, expected_A)


def test_pmin_shift_lands_in_rhs():
    gen = Generator("thermal", 10.0, 100.0, p_min=20.0)
    system = SystemData((gen,), [50.0])
    lp = StandardFormLP(*_template(system), hourly_rhs(system, 0))
    np.testing.assert_array_equal(lp.b, [30.0, 80.0])  # D - pmin, cap - pmin
    assert cost_offset(system) == 200.0


# D36: 1e16 + 1 rounds back to 1e16 (a tie, to even), so these terms add
# up to 1e16 left to right, as the builtin ``sum`` gives them up to Python
# 3.11; its compensated sum from 3.12 on gives 1e16 + 2.
D36_TERMS = (1e16, 1.0, 1.0)


def test_float_totals_add_left_to_right():
    assert math.fsum(D36_TERMS) == 1e16 + 2.0
    must_run = SystemData(
        tuple(Generator(f"g{i}", t, t, p_min=1.0) for i, t in enumerate(D36_TERMS)), [1e16 + 2.0])
    assert cost_offset(must_run) == 1e16
    # the floors 1e16, 1, 1 meet a demand of 1e16 (+2 would not)
    floors = SystemData(
        tuple(Generator(f"g{i}", 1.0 + i, t, p_min=t) for i, t in enumerate(D36_TERMS)), [1e16])
    assert regime_fractions(floors) == {"g0 marginal": 1.0}
    # one unit at cost 1: each hour's objective is its demand
    hours = SystemData((Generator("g", 1.0, 2e16),), list(D36_TERMS))
    full = solve_full(hours)
    assert full.objective.tolist() == list(D36_TERMS)
    assert full.total_cost == 1e16


def test_only_rhs_varies_across_hours():
    rng = np.random.default_rng(31)
    for _ in range(20):
        system = random_system(rng, hours=6)
        lps = [StandardFormLP(*_template(system), hourly_rhs(system, h)) for h in range(6)]
        for lp in lps[1:]:
            assert np.array_equal(lp.c, lps[0].c)
            assert np.array_equal(lp.A, lps[0].A)
        rhs = np.array([lp.b for lp in lps])
        assert np.unique(rhs[:, 0]).size > 1  # demand really varies


def _expected_rhs(system, demand, cf):
    """One period's RHS bytes, generator by generator, as floats."""
    floors = np.array([g.p_min for g in system.generators]).sum()
    b = [demand - floors]
    for g in system.generators:
        cap = g.capacity * cf[g.cf_series_id] if g.is_variable else g.capacity
        b.append(cap - g.p_min)
    return np.array(b).tobytes()


def test_period_rhs_matches_per_generator_formula_bitwise():
    """Hourly and representative RHS: D - sum(Pmin), then cap * cf - Pmin.

    Forty units with random float floors, so summing the floors in another
    order than numpy's would round differently (asserted below).  On that
    system and the test systems after it, every hour's row and every
    representative's row from ``_rhs`` is bitwise the per-generator
    formula.
    """
    rng = np.random.default_rng(0)
    hours = 48
    caps = rng.uniform(50.0, 150.0, 40)
    floors_mw = caps * rng.uniform(0.0, 1.0, 40)
    units = [
        Generator(f"u{i}", 10.0 + i, caps[i], p_min=floors_mw[i]) for i in range(40)
    ]
    units[5:5] = [WIND, Generator("w2", 0.0, 80.0, is_variable=True, cf_series_id="w2")]
    cfs = {"wind": rng.uniform(0.0, 1.0, hours), "w2": rng.uniform(0.0, 1.0, hours)}
    demand = floors_mw.sum() + rng.uniform(0.0, 500.0, hours)
    two_wind = SystemData(tuple(units), demand, cfs)
    floors = np.array([g.p_min for g in two_wind.generators]).sum()
    assert floors != sum(g.p_min for g in two_wind.generators)

    systems = [two_wind] + [fleet_system(np.random.default_rng(s)) for s in range(3)]
    systems += [degenerate_system(), random_system(np.random.default_rng(7))]
    for system in systems:
        cfs = system.capacity_factors
        for h in range(system.horizon):
            cf = {key: series[h] for key, series in cfs.items()}
            assert hourly_rhs(system, h).tobytes() == _expected_rhs(
                system, system.demand[h], cf), h
        reps = [
            Representative(float(system.demand[h]),
                           {key: float(series[h]) for key, series in cfs.items()}, 1.0)
            for h in range(0, system.horizon, 7)
        ]
        rows = _rhs(system, [rep.demand for rep in reps],
                    {key: [rep.cf[key] for rep in reps] for key in cfs})
        for rep, row in zip(reps, rows, strict=True):
            assert row.tobytes() == _expected_rhs(system, rep.demand, rep.cf)


def _bits(dispatch):
    """A solve's bases, x, objectives and total, without its pivot counts."""
    bases = [dispatch.distinct_bases[j].indices for j in dispatch.basis_ids.tolist()]
    return bases, dispatch.x.tobytes(), dispatch.objective.tobytes(), dispatch.total_cost


@pytest.mark.parametrize("what", ["demand", "cf", "generators"])
def test_a_replaced_system_is_a_fresh_one_and_leaves_the_original_as_it_was(what):
    """``dataclasses.replace`` after a full solve, of the demand, one cf
    series or the fleet, gives a system whose RHS rows, bases and x are
    those of a fresh build; no RHS matrix or LP family carries over, and
    the original's next solve is bitwise its first."""
    system = random_system(np.random.default_rng(3), hours=24)
    first = solve_full(system)
    if what == "demand":
        changed = replace(system, demand=system.demand * 0.5)
    elif what == "cf":
        key = next(iter(system.capacity_factors))
        series = system.capacity_factors[key][::-1]
        changed = replace(system, capacity_factors={**system.capacity_factors, key: series})
    else:
        cheaper = tuple(
            Generator(g.name, g.variable_cost * 0.5, g.capacity * 2.0, g.p_min,
                      g.is_variable, g.cf_series_id)
            for g in system.generators
        )
        changed = replace(system, generators=cheaper)
    fresh = SystemData(changed.generators, changed.demand.copy(),
                       {key: s.copy() for key, s in changed.capacity_factors.items()})
    for h in range(system.horizon):
        assert hourly_rhs(changed, h).tobytes() == hourly_rhs(fresh, h).tobytes()
    again = solve_full(changed)
    assert _bits(again) == _bits(solve_full(fresh))
    assert again.total_cost != first.total_cost
    assert _bits(solve_full(system)) == _bits(first)


W2 = Generator("w2", 0.0, 10.0, is_variable=True, cf_series_id="w2")


@pytest.mark.parametrize("changes", [
    pytest.param({"capacity_factors": {"wind": np.array([1.5, 0.5])}}, id="cf above 1"),
    pytest.param({"capacity_factors": {"wind": [-0.1, 0.5]}}, id="cf below 0"),
    pytest.param({"capacity_factors": {"wind": [np.nan, 0.5]}}, id="cf not finite"),
    pytest.param({"capacity_factors": {"wind": [0.5]}}, id="cf too short"),
    pytest.param({"capacity_factors": None}, id="no cf series"),
    pytest.param({"capacity_factors": {"other": [0.5, 0.5]}}, id="cf dict without wind"),
    pytest.param({"demand": [-1.0, 60.0]}, id="negative demand"),
    pytest.param({"demand": [30.0]}, id="demand shorter than cf"),
    pytest.param({"demand": [[30.0, 60.0]]}, id="2-d demand"),
    pytest.param({"generators": ()}, id="no generators"),
    pytest.param({"generators": (THERMAL, THERMAL)}, id="duplicate names"),
    pytest.param({"generators": (THERMAL, WIND, W2)}, id="unit without cf"),
])
def test_the_constructor_and_replace_refuse_the_same_values(changes):
    """A refused value raises ValueError, whether it reaches a system
    through the constructor or through ``dataclasses.replace``."""
    system = thermal_wind([30.0, 60.0], [0.2, 0.4])
    fields = {"generators": system.generators, "demand": system.demand,
              "capacity_factors": system.capacity_factors}
    with pytest.raises(ValueError):
        SystemData(**{**fields, **changes})
    with pytest.raises(ValueError):
        replace(system, **changes)


def test_a_system_refuses_every_write_and_keeps_its_own_copies():
    """Fields cannot be assigned or deleted, the cf mapping takes no item
    set or delete, the stored series are read-only, and a later write to
    an array the caller passed never reaches the system or its RHS."""
    demand, cf = np.array([30.0, 60.0]), np.array([0.6, 0.4])
    system = SystemData((THERMAL, WIND), demand, {"wind": cf})
    rhs = hourly_rhs(system, 0)
    for name in ("generators", "demand", "capacity_factors"):
        with pytest.raises(FrozenInstanceError):
            setattr(system, name, getattr(system, name))
        with pytest.raises(FrozenInstanceError):
            delattr(system, name)
    with pytest.raises(TypeError):
        system.capacity_factors["wind"] = cf
    with pytest.raises(TypeError):
        del system.capacity_factors["wind"]
    demand[0] += 10.0
    cf[0] = 1.0
    assert system.demand[0] == 30.0 and system.capacity_factors["wind"][0] == 0.6
    assert hourly_rhs(system, 0).tobytes() == rhs.tobytes()
    for stored in (system.demand, system.capacity_factors["wind"]):
        with pytest.raises(ValueError):
            stored[0] = 0.0


def test_a_dropped_system_is_freed_at_once_after_its_solves():
    """Nothing a system holds, its RHS matrix, LP family and cf mapping
    included, points back at it: after a full and an aggregated solve the
    system goes when the last reference does, not at the next cycle
    collection, and its solutions and cf mapping outlive it."""
    system = thermal_wind([30.0, 60.0], [0.2, 0.4])
    full = solve_full(system)
    agg = solve_aggregated(system, (Representative(45.0, {"wind": 0.3}, 2.0),))
    held, gone = system.capacity_factors, weakref.ref(system)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del system
        assert gone() is None
    finally:
        if enabled:
            gc.enable()
    assert held["wind"].tolist() == [0.2, 0.4]
    assert full.objective.size == 2 and agg.objective.size == 1


def test_hour_out_of_range():
    with pytest.raises(IndexError):
        hourly_rhs(SystemData((THERMAL,), [50.0]), 1)


# ---------------------------------------------------------------------------
# NSE handling
# ---------------------------------------------------------------------------

def test_add_nse_defaults():
    system = add_nse_generator(SystemData((THERMAL,), [50.0, 80.0]))
    nse = system.nse_generator()
    assert nse is not None
    assert nse.variable_cost == 1000.0
    assert nse.capacity == 800.0  # 10x peak demand


def test_add_nse_twice_rejected():
    system = add_nse_generator(SystemData((THERMAL,), [50.0]))
    with pytest.raises(DuplicateNSEError):
        add_nse_generator(system)


def test_add_nse_cost_must_dominate():
    with pytest.raises(CostNotDominantError):
        add_nse_generator(SystemData((THERMAL,), [50.0]), cost=10.0)


def test_add_nse_sentinel_below_peak_rejected():
    with pytest.raises(ValueError):
        add_nse_generator(SystemData((THERMAL,), [500.0]), sentinel_capacity=100.0)


# ---------------------------------------------------------------------------
# solving: frozen oracle-checked cases
# ---------------------------------------------------------------------------

def test_single_hour_wind_thermal_oracle_value():
    """Demand 120 against thermal 100 + wind 40 available: cost 800."""
    system = SystemData((THERMAL, WIND), [120.0], {"wind": [0.8]})
    lp = StandardFormLP(*_template(system), hourly_rhs(system, 0))
    status, obj, _ = enumerate_lp(lp.c, lp.A, lp.b)
    assert (status, obj) == ("optimal", pytest.approx(800.0))
    full = solve_full(system)
    assert full.total_cost == pytest.approx(800.0, abs=1e-9)
    np.testing.assert_allclose(full.production[0], [80.0, 40.0], atol=1e-9)


def test_single_hour_with_nse_oracle_value():
    """Demand 160 exceeds 140 MW available: 20 MW unserved at 1000/MWh."""
    system = thermal_wind([160.0], [0.8])
    lp = StandardFormLP(*_template(system), hourly_rhs(system, 0))
    status, obj, _ = enumerate_lp(lp.c, lp.A, lp.b)
    assert (status, obj) == ("optimal", pytest.approx(21000.0))
    full = solve_full(system)
    assert full.total_cost == pytest.approx(21000.0, abs=1e-6)
    np.testing.assert_allclose(full.production[0], [100.0, 40.0, 20.0], atol=1e-9)
    assert full.distinct_bases[full.basis_ids[0]].indices == (0, 1, 2, 5)


def test_three_hour_total_is_sum_of_hours():
    system = thermal_wind([50.0, 120.0, 160.0], [0.0, 0.8, 0.8])
    full = solve_full(system)
    assert full.objective.tolist() == [
        pytest.approx(500.0),
        pytest.approx(800.0),
        pytest.approx(21000.0),
    ]
    assert full.total_cost == pytest.approx(22300.0, abs=1e-6)
    assert full.kind is DispatchKind.FULL


def test_solutions_compare_by_identity():
    system = thermal_wind([50.0, 50.0], [0.3, 0.3])
    first, second = solve_full(system), solve_full(system)
    assert first == first
    assert (first == second) is False
    twin = thermal_wind([50.0, 50.0], [0.3, 0.3])
    assert system == system
    assert (system == twin) is False
    assert len({system, twin}) == 2


def test_solve_full_matches_oracle_on_random_systems():
    rng = np.random.default_rng(101)
    for _ in range(10):
        system = random_system(rng, hours=8)
        full = solve_full(system)
        for h in range(8):
            lp = StandardFormLP(*_template(system), hourly_rhs(system, h))
            status, obj, _ = enumerate_lp(lp.c, lp.A, lp.b)
            assert status == "optimal"
            assert full.objective[h] == pytest.approx(obj, abs=1e-7)


def test_full_solve_of_the_default_year_is_kept_in_columns_under_one_mib():
    """A solution is a few arrays, not an object per hour: once the system's
    RHS matrix and bases exist, ``solve_full`` on the default year keeps at
    most 1 MiB and peaks at no more than 2 MiB while it runs."""
    system = generate_synthetic(default_spec())
    solve_full(system)
    gc.collect()
    tracemalloc.start()
    try:
        full = solve_full(system)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 2**20, retained
    assert peak <= 2 * 2**20, peak
    assert full.objective.size == 8760


def test_infeasible_hour_propagates_index():
    system = SystemData((THERMAL,), [50.0, 170.0])  # no NSE, hour 1 undeliverable
    with pytest.raises(InfeasiblePeriodError) as err:
        solve_full(system)
    assert err.value.index == 1


def test_constant_series_cost_is_replication():
    system = thermal_wind([120.0] * 6, [0.8] * 6)
    full = solve_full(system)
    assert full.total_cost == pytest.approx(6 * 800.0, rel=1e-12)


def test_monotone_demand_gives_monotone_cost():
    demands = np.linspace(10.0, 170.0, 9)
    system = thermal_wind(demands, [0.5] * 9)
    full = solve_full(system)
    costs = full.objective.tolist()
    assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))


def test_merit_order_holds_in_every_hour():
    """A unit runs above its floor only once all cheaper units hit their caps."""
    rng = np.random.default_rng(77)
    for _ in range(15):
        system = random_system(rng, hours=12)
        order = np.argsort([g.variable_cost for g in system.generators])
        full = solve_full(system)
        for h, production in enumerate(full.production):
            caps = []
            for g, gen in enumerate(system.generators):
                cf = (
                    system.capacity_factors[gen.cf_series_id][h]
                    if gen.is_variable
                    else 1.0
                )
                caps.append(gen.capacity * cf)
            for rank, g in enumerate(order):
                if production[g] > system.generators[g].p_min + 1e-7:
                    for cheaper in order[:rank]:
                        slack = caps[cheaper] - production[cheaper]
                        assert slack <= 1e-7, (h, g, cheaper, slack)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_identity_aggregation_reproduces_full_cost():
    system = thermal_wind([50.0, 120.0, 160.0], [0.0, 0.8, 0.8])
    reps = tuple(
        Representative(float(system.demand[h]), {"wind": float(system.capacity_factors["wind"][h])}, 1.0)
        for h in range(3)
    )
    agg = solve_aggregated(system, reps)
    full = solve_full(system)
    assert agg.kind is DispatchKind.AGGREGATED
    assert agg.total_cost == pytest.approx(full.total_cost, rel=1e-12)


def test_weights_scale_objective_only():
    system = thermal_wind([120.0], [0.8])
    reps = (Representative(120.0, {"wind": 0.8}, 5.0),)
    agg = solve_aggregated(system, reps)
    assert agg.objective[0] == pytest.approx(800.0)
    assert agg.total_cost == pytest.approx(5 * 800.0)


def test_aggregated_missing_cf_rejected(monkeypatch):
    """A representative without a cf is refused before any LP is solved,
    also when it follows a valid one."""
    def never(*args):
        raise AssertionError("simplex ran before the representatives were checked")

    monkeypatch.setattr(_kernels, "simplex", never)
    system = thermal_wind([120.0], [0.8])
    valid, lacking = Representative(120.0, {"wind": 0.8}, 1.0), Representative(120.0, {}, 1.0)
    for reps in ((lacking,), (valid, lacking)):
        with pytest.raises(MissingCFError):
            solve_aggregated(system, reps)


def test_representative_validation():
    with pytest.raises(ValueError):
        Representative(-1.0, {}, 1.0)
    with pytest.raises(ValueError):
        Representative(10.0, {}, 0.0)
    with pytest.raises(ValueError):
        Representative(10.0, {"wind": 1.5}, 1.0)
    with pytest.raises(ValueError):
        solve_aggregated(thermal_wind([120.0], [0.8]), ())


def test_a_representative_keeps_a_read_only_copy_of_its_cf():
    """D25: the cf mapping took item writes after its [0, 1] check, so a
    50 MW wind unit could dispatch 120 MW, and ``hash`` raised TypeError."""
    cf = {"wind": 0.8}
    rep = Representative(120.0, cf, 1.0)
    cf["wind"] = 5.0
    with pytest.raises(TypeError):
        rep.cf["wind"] = 5.0
    with pytest.raises(TypeError):
        del rep.cf["wind"]
    with pytest.raises(FrozenInstanceError):
        rep.cf = {"wind": 5.0}
    assert rep.cf == {"wind": 0.8}
    assert hash(rep) == hash(Representative(120.0, {"wind": 0.8}, 1.0))
    system = thermal_wind([120.0], [0.8])
    agg = solve_aggregated(system, (rep,))
    wind = [g.name for g in system.generators].index("wind")
    assert agg.production[0, wind] == pytest.approx(40.0)


CERTIFIED_SYSTEMS = {
    "default_year": lambda: generate_synthetic(default_spec()),
    **{f"fleet_{i}": lambda i=i: fleet_system(np.random.default_rng(i)) for i in range(5)},
    "degenerate": degenerate_system,
    **{f"random_{seed}": lambda seed=seed: random_system(np.random.default_rng(seed))
       for seed in range(20)},
}


@pytest.mark.parametrize("name", CERTIFIED_SYSTEMS)
def test_every_hour_is_certified_by_the_duals_of_the_distinct_bases(name):
    """z(b) = max_j y_j . b over dual vertices, and the hour's own basis
    attains it: a check of each hour's objective and basis that needs
    neither the simplex nor enumeration."""
    system = CERTIFIED_SYSTEMS[name]()
    full = solve_full(system)
    Z, own = dual_certificate(system, full)
    objective = full.objective
    tol = 1e-12 * np.maximum(1.0, np.abs(objective))
    best = Z.max(axis=1)
    assert (np.abs(best - objective) <= tol).all()
    assert (best - Z[np.arange(system.horizon), own] <= tol).all()


def _exact_classes(system):
    """(strict, weak, tolerance-only) hour counts of ``solve_full``'s bases
    and the tolerance-only hours, as ``exact_basis_check`` grades them."""
    primal, dual, weak = exact_basis_check(system, solve_full(system))
    tolerance_only = sorted(set(primal) | set(dual))
    strict = system.horizon - len(weak) - len(tolerance_only)
    return (strict, len(weak), len(tolerance_only)), tolerance_only


EXACTLY_OPTIMAL = {
    "default_year": (CERTIFIED_SYSTEMS["default_year"], (8760, 0, 0)),
    **{f"fleet_{i}": (CERTIFIED_SYSTEMS[f"fleet_{i}"], (336 - weak, weak, 0))
       for i, weak in enumerate((15, 15, 15, 12, 19))},
    "degenerate": (degenerate_system, (2, 10, 0)),
    **{f"build_fleet_{seed}": (lambda seed=seed: build_fleet(seed), (1008 - weak, weak, 0))
       for seed, weak in enumerate((19, 18))},
}


@pytest.mark.parametrize("name", EXACTLY_OPTIMAL)
def test_every_hour_basis_is_optimal_in_exact_arithmetic(name):
    """x_B >= 0 and reduced costs >= 0 hold exactly, not only within the
    solver's tolerances, for every hour's basis; the weak hours, those with
    an exact zero, are the degenerate ones where Bland's path chooses."""
    make, counts = EXACTLY_OPTIMAL[name]
    assert _exact_classes(make()) == (counts, [])


@pytest.mark.parametrize("seed, counts", [
    (0, (83, 3, 1)), (1, (85, 0, 2)), (2, (86, 1, 0)), (3, (86, 1, 0)),
])
def test_only_hours_built_next_to_a_boundary_are_optimal_only_within_tolerance(seed, counts):
    """Within TOL_FEAS/TOL_OPT of a merit-order boundary the solver may
    return a basis that is infeasible by ~1e-13 in exact arithmetic; no
    hour drawn inside a regime (the first 18) is among them."""
    got, tolerance_only = _exact_classes(near_boundary_system(np.random.default_rng(seed)))
    assert got == counts
    assert all(h >= 18 for h in tolerance_only)


@pytest.mark.parametrize("seed, counts, hours", [
    (0, (314, 15, 7), [83, 126, 161, 179, 200, 310, 320]),
    (1, (317, 17, 2), [63, 176]),
])
def test_fleets_moved_to_boundaries_are_optimal_only_within_tolerance_there(seed, counts, hours):
    """Every hour of these fleets sits at a merit-order boundary, up to an
    offset or a few ulp, so the tolerance-only hours are boundary hours by
    construction; their count and place are pinned."""
    assert _exact_classes(fleet_at_boundaries(np.random.default_rng(seed))) == (counts, hours)


def test_exact_basis_check_flags_an_hour_given_another_hours_basis():
    system = generate_synthetic(default_spec())
    full = solve_full(system)
    h = int(np.flatnonzero(full.basis_ids == 1)[0])
    basis_ids = full.basis_ids.copy()
    basis_ids[h] = 0  # optimal elsewhere, not at hour h
    assert exact_basis_check(system, replace(full, basis_ids=basis_ids)) == ([h], [], [])


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

def test_regime_labels_cover_three_structures():
    # wind covers demand / thermal marginal / unserved energy
    system = thermal_wind([30.0, 120.0, 160.0], [0.9, 0.8, 0.8])
    full = solve_full(system)
    labels = [regime_label(system, full.distinct_bases[j]) for j in full.basis_ids]
    assert labels == ["wind marginal", "thermal marginal", "NSE"]
    counts = regime_counts(system, full)
    assert counts == {"wind marginal": 1, "thermal marginal": 1, "NSE": 1}


def test_regime_label_names_a_basis_without_one_interior_unit_by_its_indices():
    # units 0 and 1 both have their production and slack columns basic
    system = generate_synthetic(default_spec())
    assert regime_label(system, BasisSignature((0, 1, 3, 4))) == "degenerate (0, 1, 3, 4)"


@pytest.mark.parametrize("name", sorted(SOLVER_SYSTEMS))
def test_every_solved_basis_has_exactly_one_unit_with_both_columns_basic(name):
    system = SOLVER_SYSTEMS[name]()
    G = system.size
    for basis in solve_full(system).distinct_bases:
        basic = set(basis.indices)
        assert sum(g in basic and G + g in basic for g in range(G)) == 1, basis
        assert not regime_label(system, basis).startswith("degenerate"), basis


def test_system_validation_errors():
    with pytest.raises(ValueError):
        SystemData((), [50.0])
    with pytest.raises(ValueError):
        SystemData((THERMAL, THERMAL), [50.0])
    with pytest.raises(ValueError):
        SystemData((THERMAL,), [-1.0])
    with pytest.raises(ValueError):
        SystemData((WIND,), [50.0], {"wind": [1.4]})
    with pytest.raises(ValueError):
        SystemData((WIND,), [50.0], {"wind": [0.5, 0.5]})
    with pytest.raises(ValueError):
        SystemData((WIND,), [50.0])  # referenced cf series absent
    with pytest.raises(ValueError):
        Generator("bad", 1.0, 10.0, p_min=20.0)
    with pytest.raises(ValueError):
        Generator("bad", 1.0, 10.0, cf_series_id="x")  # thermal with cf series
