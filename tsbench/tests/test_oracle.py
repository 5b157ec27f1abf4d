"""The merit-order oracle agrees with the simplex on written instances."""

import numpy as np
import pytest

from tsagg.data_io import write_config, write_series
from tsagg.dispatch_model import (
    Generator,
    SystemData,
    add_nse_generator,
    cost_offset,
    solve_full,
)
from tsbench import oracle


def two_unit_system(rng, hours=48):
    """Wind plus one thermal unit with random sizes, as in the unit tests."""
    demand = np.clip(
        rng.uniform(40.0, 110.0)
        + rng.uniform(10.0, 40.0) * np.sin(2.0 * np.pi * np.arange(hours) / 24.0)
        + rng.normal(0.0, 8.0, hours),
        0.0,
        None,
    )
    gens = (
        Generator("wind", 0.0, rng.uniform(60.0, 160.0), is_variable=True,
                  cf_series_id="wind"),
        Generator("thermal", rng.uniform(5.0, 40.0), rng.uniform(50.0, 120.0)),
    )
    return add_nse_generator(
        SystemData(gens, demand, {"wind": rng.beta(2.0, 3.0, hours)})
    )


def must_run_system(rng, hours=48):
    """Four thermal units, two with p_min, and wind with exact 0/1 factors."""
    cf = rng.beta(2.0, 3.0, hours)
    cf[::7] = 0.0
    cf[3::11] = 1.0
    gens = [Generator("wind", 0.0, 80.0, is_variable=True, cf_series_id="wind")]
    for i in range(4):
        cap = rng.uniform(30.0, 60.0)
        gens.append(Generator(f"t{i}", 10.0 + 7.0 * i + rng.uniform(0.0, 1.0), cap,
                              p_min=0.3 * cap if i < 2 else 0.0))
    demand = rng.uniform(60.0, 260.0, hours)
    demand[5] = sum(g.p_min for g in gens)  # floors exactly meet demand
    return add_nse_generator(SystemData(tuple(gens), demand, {"wind": cf}))


def written(system, tmp_path):
    write_series(system, tmp_path / "series.csv")
    write_config(system, tmp_path / "config.json", "series.csv")
    return oracle.read_instance(tmp_path / "config.json")


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("build", [two_unit_system, must_run_system])
def test_merit_order_matches_solve_full_hour_by_hour(build, seed, tmp_path):
    system = build(np.random.default_rng(seed))
    hourly = oracle.merit_order_costs(written(system, tmp_path))
    full = solve_full(system)
    offset = cost_offset(system)
    lp = np.array([p.solution.objective + offset for p in full.periods])
    np.testing.assert_allclose(hourly, lp, rtol=1e-9, atol=1e-9)
    assert oracle.rel_gap(full.total_cost, float(hourly.sum())) <= oracle.COST_RTOL


def test_merit_order_rejects_floors_above_demand(tmp_path):
    system = must_run_system(np.random.default_rng(0))
    inst = written(system, tmp_path)
    low = oracle.Instance(inst.cost, inst.p_min, inst.upper, inst.demand * 0.0)
    with pytest.raises(ValueError):
        oracle.merit_order_costs(low)
