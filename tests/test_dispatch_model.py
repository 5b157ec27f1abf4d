"""Dispatch construction and solve tests against hand-checked and oracle values."""

import numpy as np
import pytest

from oracles import enumerate_lp
from systems import THERMAL, WIND, random_system, thermal_wind
from tsagg.dispatch_model import (
    CostNotDominantError,
    DispatchKind,
    DuplicateNSEError,
    Generator,
    InfeasiblePeriodError,
    MissingCFError,
    Representative,
    RepresentativeSet,
    SystemData,
    add_nse_generator,
    build_aggregated,
    build_hourly_lp,
    cost_offset,
    hourly_rhs,
    regime_counts,
    regime_label,
    solve_aggregated,
    solve_full,
)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_thermal_only_lp_shape_and_rhs():
    """1 thermal unit (cap 100, cost 10), demand 50: n=2 columns, b=(50, 100)."""
    system = SystemData((THERMAL,), [50.0])
    lp = build_hourly_lp(system, 0)
    assert (lp.n, lp.m) == (2, 2)
    np.testing.assert_array_equal(lp.b, [50.0, 100.0])
    np.testing.assert_array_equal(lp.c, [10.0, 0.0])


def test_thermal_plus_wind_rhs_orders_headrooms_by_generator():
    """Adding wind (cap 50, cf 0.8) appends its 40 MW headroom row."""
    system = SystemData((THERMAL, WIND), [120.0], {"wind": [0.8]})
    lp = build_hourly_lp(system, 0)
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
    lp = build_hourly_lp(system, 0)
    np.testing.assert_array_equal(lp.b, [30.0, 80.0])  # D - pmin, cap - pmin
    assert cost_offset(system) == 200.0


def test_only_rhs_varies_across_hours():
    rng = np.random.default_rng(31)
    for _ in range(20):
        system = random_system(rng, hours=6)
        lps = [build_hourly_lp(system, h) for h in range(6)]
        for lp in lps[1:]:
            assert np.array_equal(lp.c, lps[0].c)
            assert np.array_equal(lp.A, lps[0].A)
        rhs = np.array([lp.b for lp in lps])
        assert np.unique(rhs[:, 0]).size > 1  # demand really varies


def test_period_rhs_matches_per_generator_formula_bitwise():
    """Hourly and representative RHS: D - sum(Pmin), then cap * cf - Pmin.

    Forty units with random float floors, so summing the floors in another
    order than numpy's would round differently (asserted below).
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
    system = SystemData(tuple(units), demand, cfs)
    floors = np.array([g.p_min for g in system.generators]).sum()
    assert floors != sum(g.p_min for g in system.generators)

    def expected(demand, cf):
        b = [demand - floors]
        for g in system.generators:
            cap = g.capacity * cf[g.cf_series_id] if g.is_variable else g.capacity
            b.append(cap - g.p_min)
        return np.array(b).tobytes()

    for h in range(system.horizon):
        cf = {key: series[h] for key, series in cfs.items()}
        assert hourly_rhs(system, h).tobytes() == expected(system.demand[h], cf), h
    reps = RepresentativeSet(
        tuple(
            Representative(float(system.demand[h]),
                           {key: float(series[h]) for key, series in cfs.items()}, 1.0)
            for h in range(0, system.horizon, 7)
        )
    )
    for rep, (lp, _weight) in zip(reps.reps, build_aggregated(system, reps)):
        assert lp.b.tobytes() == expected(rep.demand, rep.cf)


def test_hour_out_of_range():
    with pytest.raises(IndexError):
        build_hourly_lp(SystemData((THERMAL,), [50.0]), 1)


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
    lp = build_hourly_lp(system, 0)
    status, obj, _ = enumerate_lp(lp.c, lp.A, lp.b)
    assert (status, obj) == ("optimal", pytest.approx(800.0))
    full = solve_full(system)
    assert full.total_cost == pytest.approx(800.0, abs=1e-9)
    np.testing.assert_allclose(full.periods[0].production, [80.0, 40.0], atol=1e-9)


def test_single_hour_with_nse_oracle_value():
    """Demand 160 exceeds 140 MW available: 20 MW unserved at 1000/MWh."""
    system = thermal_wind([160.0], [0.8])
    lp = build_hourly_lp(system, 0)
    status, obj, _ = enumerate_lp(lp.c, lp.A, lp.b)
    assert (status, obj) == ("optimal", pytest.approx(21000.0))
    full = solve_full(system)
    assert full.total_cost == pytest.approx(21000.0, abs=1e-6)
    np.testing.assert_allclose(full.periods[0].production, [100.0, 40.0, 20.0], atol=1e-9)
    assert full.periods[0].solution.basis.indices == (0, 1, 2, 5)


def test_three_hour_total_is_sum_of_hours():
    system = thermal_wind([50.0, 120.0, 160.0], [0.0, 0.8, 0.8])
    full = solve_full(system)
    assert [p.solution.objective for p in full.periods] == [
        pytest.approx(500.0),
        pytest.approx(800.0),
        pytest.approx(21000.0),
    ]
    assert full.total_cost == pytest.approx(22300.0, abs=1e-6)
    assert full.kind is DispatchKind.FULL


def test_period_results_compare_by_identity():
    system = thermal_wind([50.0, 50.0], [0.3, 0.3])
    first, second = solve_full(system).periods, solve_full(system).periods
    assert first[0] == first[0]
    assert (first[0] == second[0]) is False
    assert (first == second) is False


def test_solve_full_matches_oracle_on_random_systems():
    rng = np.random.default_rng(101)
    for _ in range(10):
        system = random_system(rng, hours=8)
        full = solve_full(system)
        for h in range(8):
            lp = build_hourly_lp(system, h)
            status, obj, _ = enumerate_lp(lp.c, lp.A, lp.b)
            assert status == "optimal"
            assert full.periods[h].solution.objective == pytest.approx(obj, abs=1e-7)


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
    costs = [p.solution.objective for p in full.periods]
    assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))


def test_merit_order_holds_in_every_hour():
    """A unit runs above its floor only once all cheaper units hit their caps."""
    rng = np.random.default_rng(77)
    for _ in range(15):
        system = random_system(rng, hours=12)
        order = np.argsort([g.variable_cost for g in system.generators])
        full = solve_full(system)
        for h, period in enumerate(full.periods):
            caps = []
            for g, gen in enumerate(system.generators):
                cf = (
                    system.capacity_factors[gen.cf_series_id][h]
                    if gen.is_variable
                    else 1.0
                )
                caps.append(gen.capacity * cf)
            for rank, g in enumerate(order):
                if period.production[g] > system.generators[g].p_min + 1e-7:
                    for cheaper in order[:rank]:
                        slack = caps[cheaper] - period.production[cheaper]
                        assert slack <= 1e-7, (h, g, cheaper, slack)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_identity_aggregation_reproduces_full_cost():
    system = thermal_wind([50.0, 120.0, 160.0], [0.0, 0.8, 0.8])
    reps = RepresentativeSet(
        tuple(
            Representative(float(system.demand[h]), {"wind": float(system.capacity_factors["wind"][h])}, 1.0)
            for h in range(3)
        )
    )
    agg = solve_aggregated(system, reps)
    full = solve_full(system)
    assert agg.kind is DispatchKind.AGGREGATED
    assert agg.total_cost == pytest.approx(full.total_cost, rel=1e-12)


def test_weights_scale_objective_only():
    system = thermal_wind([120.0], [0.8])
    reps = RepresentativeSet((Representative(120.0, {"wind": 0.8}, 5.0),))
    agg = solve_aggregated(system, reps)
    assert agg.periods[0].solution.objective == pytest.approx(800.0)
    assert agg.total_cost == pytest.approx(5 * 800.0)


def test_aggregated_missing_cf_rejected():
    system = thermal_wind([120.0], [0.8])
    reps = RepresentativeSet((Representative(120.0, {}, 1.0),))
    with pytest.raises(MissingCFError):
        build_aggregated(system, reps)


def test_representative_validation():
    with pytest.raises(ValueError):
        Representative(-1.0, {}, 1.0)
    with pytest.raises(ValueError):
        Representative(10.0, {}, 0.0)
    with pytest.raises(ValueError):
        Representative(10.0, {"wind": 1.5}, 1.0)
    with pytest.raises(ValueError):
        RepresentativeSet(())


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

def test_regime_labels_cover_three_structures():
    # wind covers demand / thermal marginal / unserved energy
    system = thermal_wind([30.0, 120.0, 160.0], [0.9, 0.8, 0.8])
    full = solve_full(system)
    labels = [regime_label(system, p.solution.basis) for p in full.periods]
    assert labels == ["wind marginal", "thermal marginal", "NSE"]
    counts = regime_counts(system, full)
    assert counts == {"wind marginal": 1, "thermal marginal": 1, "NSE": 1}


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
