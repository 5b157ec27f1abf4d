"""Workload instances, and how the benchmark script refuses or reports."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsagg.dispatch_model import solve_full
from tsbench import bench, run
from tsbench.instances import FLEET_HOURS, build_fleet

BENCH_DIR = Path(__file__).resolve().parent.parent


def test_fleet_is_deterministic_per_seed():
    a, b, c = build_fleet(3), build_fleet(3), build_fleet(4)
    assert a.generators == b.generators
    np.testing.assert_array_equal(a.demand, b.demand)
    for key in a.capacity_factors:
        np.testing.assert_array_equal(a.capacity_factors[key], b.capacity_factors[key])
    assert not np.array_equal(a.demand, c.demand)


def test_fleet_floors_stay_below_demand_for_many_seeds():
    for seed in range(20):
        system = build_fleet(seed)
        assert sum(g.p_min for g in system.generators) < system.demand.min()


@pytest.fixture(scope="module")
def fleet_solution():
    system = build_fleet(0)
    return system, solve_full(system)


def test_fleet_has_exactly_degenerate_hours(fleet_solution):
    system, full = fleet_solution
    assert system.horizon == FLEET_HOURS
    cfs = np.stack(list(system.capacity_factors.values()))
    assert (cfs == 0.0).any() and (cfs == 1.0).any()
    degenerate = [
        h for h, p in enumerate(full.periods)
        if p.solution.x[list(p.solution.basis.indices)].min() == 0.0
    ]
    assert len(degenerate) >= 10


def test_fleet_has_many_distinct_bases(fleet_solution):
    _system, full = fleet_solution
    assert len(set(full.bases())) >= 8


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "year",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_metrics_the_run_prints():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert doc["paths"] == [BENCH_DIR.name]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
