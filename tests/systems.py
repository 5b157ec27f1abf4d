"""Shared test fixtures: small dispatch systems with known structure."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from tsagg.data_io import default_spec, generate_synthetic
from tsagg.dispatch_model import Generator, SystemData, add_nse_generator, ordered_sum

THERMAL = Generator("thermal", 10.0, 100.0)
WIND = Generator("wind", 0.0, 50.0, is_variable=True, cf_series_id="wind")


def thermal_wind(demand, wind_cf, nse=True, nse_cost=1000.0) -> SystemData:
    """Thermal 100 MW @ 10 plus wind 50 MW @ 0, optionally with NSE."""
    system = SystemData(
        (THERMAL, WIND), np.asarray(demand, float), {"wind": np.asarray(wind_cf, float)}
    )
    return add_nse_generator(system, cost=nse_cost) if nse else system


def random_system(rng, hours=24, nse=True) -> SystemData:
    """Randomised two-unit system with distinct costs and rich regimes."""
    base = rng.uniform(40.0, 110.0)
    demand = np.clip(
        base
        + rng.uniform(10.0, 40.0) * np.sin(2.0 * np.pi * np.arange(hours) / 24.0)
        + rng.normal(0.0, 8.0, hours),
        0.0,
        None,
    )
    cf = np.clip(rng.beta(2.0, 3.0, hours), 0.0, 1.0)
    wind_cap = rng.uniform(60.0, 160.0)
    thermal_cap = rng.uniform(50.0, 120.0)
    gens = (
        Generator("wind", 0.0, wind_cap, is_variable=True, cf_series_id="wind"),
        Generator("thermal", rng.uniform(5.0, 40.0), thermal_cap),
    )
    system = SystemData(gens, demand, {"wind": cf})
    return add_nse_generator(system) if nse else system


def fleet_system(rng, hours=336) -> SystemData:
    """Wide system (m = 14) with exactly degenerate hours.

    Two wind farms and ten thermal units, the cheapest three with a p_min,
    plus NSE.  Five per cent of each capacity-factor series is set to
    exactly 0 or 1, and demand and capacities are whole megawatts, so some
    hours tie exactly in the ratio test.
    """
    t = np.arange(hours)
    demand = np.round(
        600.0 + 250.0 * np.sin(2.0 * np.pi * t / 24.0) + rng.normal(0.0, 60.0, hours)
    )
    cfs = {"wind_a": rng.beta(2.0, 3.0, hours), "wind_b": rng.beta(2.0, 3.0, hours)}
    for cf in cfs.values():
        idx = rng.choice(hours, size=hours // 20, replace=False)
        cf[idx] = rng.integers(0, 2, idx.size).astype(float)
    gens = [
        Generator("wind_a", 0.0, 250.0, is_variable=True, cf_series_id="wind_a"),
        Generator("wind_b", 0.5, 200.0, is_variable=True, cf_series_id="wind_b"),
    ]
    for i in range(10):
        cap = float(rng.integers(80, 121))
        cost = 12.0 + 4.0 * i + rng.uniform(0.0, 1.0)
        gens.append(Generator(f"unit{i}", cost, cap, p_min=0.25 * cap if i < 3 else 0.0))
    return add_nse_generator(SystemData(tuple(gens), np.clip(demand, 0.0, None), cfs))


def degenerate_system() -> SystemData:
    """Exactly degenerate hours on whole-MW data.

    Wind 50 MW, thermal 100 MW and peaker 50 MW plus NSE; every capacity
    factor is exactly 0 or 1, and demand runs over 0, the wind availability,
    the wind-plus-thermal capacity, the total non-NSE capacity and beyond,
    so each hour sits on a regime boundary.
    """
    demand = [0.0, 50.0, 100.0, 150.0, 200.0, 250.0] * 2
    cf = [1.0] * 6 + [0.0] * 6
    gens = (WIND, THERMAL, Generator("peaker", 20.0, 50.0))
    system = SystemData(gens, np.array(demand), {"wind": np.array(cf)})
    return add_nse_generator(system)


# Offsets in MW from a merit-order boundary: on it, then from inside the
# solver's 1e-9 tolerances (TOL_FEAS) out to beyond them.  ``near_boundary_system``
# also places hours 1 to 5 ulp either side.
BOUNDARY_OFFSETS = (0.0, *(sign * 10.0 ** e for e in range(-12, -6) for sign in (-1, 1)))


def _ulps_away(x: float, k: int) -> float:
    """The float ``k`` representable steps above ``x`` (below for k < 0)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, np.inf if k > 0 else -np.inf))
    return x


def _boundary_fleet(rng, generic_hours):
    """Wind, a thermal unit with a must-run floor and a peaker, in that merit
    order, with ``generic_hours`` hours of demand well inside the regimes."""
    wind = Generator("wind", 0.0, rng.uniform(60.0, 160.0), is_variable=True,
                     cf_series_id="wind")
    cap = rng.uniform(50.0, 120.0)
    thermal = Generator("thermal", rng.uniform(5.0, 30.0), cap, p_min=rng.uniform(0.0, 0.3) * cap)
    peaker = Generator("peaker", rng.uniform(35.0, 80.0), rng.uniform(20.0, 60.0))
    cf = list(rng.beta(2.0, 3.0, generic_hours))
    top = wind.capacity + cap + peaker.capacity
    demand = list(rng.uniform(thermal.p_min + 1.0, 1.1 * top, generic_hours))
    return (wind, thermal, peaker), cf, demand


def _boundary(units, boundary, wind_cf):
    """Demand at merit-order boundary 0 (wind), 1 (thermal) or 2 (peaker at
    full availability) of a ``_boundary_fleet``."""
    wind, thermal, peaker = units
    headroom = [wind.capacity * wind_cf, thermal.capacity - thermal.p_min, peaker.capacity]
    return thermal.p_min + sum(headroom[: boundary + 1])


def near_boundary_system(rng, generic_hours=18) -> SystemData:
    """Hours within and around the solver's tolerances of every boundary.

    A ``_boundary_fleet`` plus NSE.  The first ``generic_hours`` hours draw
    demand well inside the regimes, so the solver has registered cones by
    the time the rest arrive.  Then each of the three boundaries (wind,
    thermal and peaker at full availability) gets one capacity factor and
    an hour at each ``BOUNDARY_OFFSETS`` offset and 1 to 5 ulp either side
    of it.
    """
    units, cf, demand = _boundary_fleet(rng, generic_hours)
    for boundary in range(3):
        wind_cf = float(rng.uniform(0.05, 0.95))
        at = _boundary(units, boundary, wind_cf)
        hours = [at + offset for offset in BOUNDARY_OFFSETS]
        hours += [_ulps_away(at, k) for k in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)]
        demand += hours
        cf += [wind_cf] * len(hours)
    system = SystemData(units, np.array(demand), {"wind": np.array(cf)})
    return add_nse_generator(system)


def one_boundary_system(rng, boundary, offset=0.0, ulps=0, generic_hours=18) -> SystemData:
    """A ``near_boundary_system`` with one boundary and two hours at it:
    demand on ``boundary`` (0 to 2, as ``_boundary``), which has the solver
    register the basis it takes there, then ``offset`` MW from it and
    ``ulps`` representable steps further."""
    units, cf, demand = _boundary_fleet(rng, generic_hours)
    wind_cf = float(rng.uniform(0.05, 0.95))
    at = _boundary(units, boundary, wind_cf)
    demand += [at, _ulps_away(at + offset, ulps)]
    cf += [wind_cf] * 2
    return add_nse_generator(SystemData(units, np.array(demand), {"wind": np.array(cf)}))


def fleet_at_boundaries(rng, hours=336) -> SystemData:
    """A ``fleet_system`` whose every hour's demand is moved to a random
    merit-order boundary plus a ``BOUNDARY_OFFSETS`` offset or 1 to 5 ulp,
    floored at the must-run sum."""
    system = fleet_system(rng, hours)
    gens = system.generators
    merit = sorted(range(len(gens)), key=lambda g: (gens[g].variable_cost, g))
    floors = ordered_sum(g.p_min for g in gens)
    cum = np.full(hours, floors)
    boundaries = []
    for g in merit[:-1]:  # NSE is last in merit order and has no upper boundary
        gen = gens[g]
        if gen.is_variable:
            cum = cum + (gen.capacity * system.capacity_factors[gen.cf_series_id] - gen.p_min)
        else:
            cum = cum + (gen.capacity - gen.p_min)
        boundaries.append(cum)
    steps = [*BOUNDARY_OFFSETS, *(("ulp", k) for k in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))]
    demand = []
    for h in range(hours):
        at = float(boundaries[int(rng.integers(len(boundaries)))][h])
        step = steps[int(rng.integers(len(steps)))]
        moved = _ulps_away(at, step[1]) if isinstance(step, tuple) else at + step
        demand.append(max(moved, floors))
    return replace(system, demand=np.array(demand))


# The default year, wide fleets, exactly degenerate hours and hours at
# tolerance distance from each boundary: the systems on which solver fast
# paths are checked against what they replace.
SOLVER_SYSTEMS = {
    "default_year": lambda: generate_synthetic(default_spec()),
    **{f"fleet{s}": lambda s=s: fleet_system(np.random.default_rng(s)) for s in range(5)},
    "degenerate": degenerate_system,
    "near_boundary": lambda: near_boundary_system(np.random.default_rng(0)),
}
