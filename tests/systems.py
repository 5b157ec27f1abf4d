"""Shared test fixtures: small dispatch systems with known structure."""

from __future__ import annotations

import numpy as np

from tsagg.dispatch_model import Generator, SystemData, add_nse_generator

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
