"""Seeded benchmark instances, written to disk the way a user would.

``year`` and ``trials`` instances come from ``tsagg generate``; the wide
``fleet`` is assembled through the public Generator/SystemData API and
written with ``write_series``/``write_config``.  Every instance depends only
on its seed.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import tsagg.cli
from tsagg import data_io
from tsagg.dispatch_model import Generator, SystemData, add_nse_generator

FLEET_HOURS = 1008          # six weeks
FLEET_THERMAL_UNITS = 10
FLEET_MUST_RUN_UNITS = 3    # the cheapest units carry a p_min
FLEET_DEMAND_SCALE = 8.0    # default-year demand shape scaled to the fleet
FLEET_DEGENERATE_SHARE = 0.02
TRIALS_HOURS = 336          # two weeks: the dispatch side of ``trials``
WARMUP_HOURS = 48


def quiet_cli(argv) -> int:
    """Run ``tsagg`` in-process with its stdout swallowed; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return tsagg.cli.main([str(a) for a in argv])


def build_fleet(seed: int, hours: int = FLEET_HOURS) -> SystemData:
    """Ten thermal units with distinct costs, two wind farms and NSE.

    Demand and the first wind series reuse the synthetic year's shapes; the
    second wind series is drawn here.  About 2 % of each capacity-factor
    series is set to exactly 0 or 1, so some hours are exactly degenerate
    (a wind farm with zero headroom sits in the basis at level zero).
    """
    # Looked up on the module at call time, so a traced run sees the call.
    base = data_io.generate_synthetic(
        data_io.SyntheticSpec(hours=hours, seed=seed, regime_targets={})
    )
    rng = np.random.default_rng([seed, 7])
    cfs = {
        "wind_a": np.array(base.capacity_factors["wind"]),
        "wind_b": rng.beta(2.0, 3.0, hours),
    }
    for cf in cfs.values():
        idx = rng.choice(hours, size=int(FLEET_DEGENERATE_SHARE * hours), replace=False)
        cf[idx] = rng.integers(0, 2, idx.size).astype(float)
    gens = [
        Generator("wind_a", 0.0, 250.0, is_variable=True, cf_series_id="wind_a"),
        Generator("wind_b", 0.5, 200.0, is_variable=True, cf_series_id="wind_b"),
    ]
    for i in range(FLEET_THERMAL_UNITS):
        cap = float(rng.uniform(80.0, 120.0))
        p_min = 0.25 * cap if i < FLEET_MUST_RUN_UNITS else 0.0
        cost = 12.0 + 4.0 * i + float(rng.uniform(0.0, 1.0))
        gens.append(Generator(f"unit{i}", cost, cap, p_min=p_min))
    system = SystemData(tuple(gens), FLEET_DEMAND_SCALE * base.demand, cfs)
    return add_nse_generator(system)


def _generate(out: Path, seed: int, hours: int | None) -> None:
    argv = ["generate", "--out", out, "--seed", seed]
    if hours is not None:
        spec = out / "spec.json"
        spec.write_text(json.dumps({"hours": hours, "regime_targets": {}}))
        argv += ["--spec", spec]
    code = quiet_cli(argv)
    if code != 0:
        raise RuntimeError(f"tsagg generate exited with {code}")


def write_instance(workload: str, seed: int, out: Path) -> Path:
    """Write the workload's instance into ``out``; returns its config path."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "year":
        _generate(out, seed, None)
    elif workload == "trials":
        _generate(out, seed, TRIALS_HOURS)
    elif workload == "warmup":
        _generate(out, seed, WARMUP_HOURS)
    elif workload == "fleet":
        system = build_fleet(seed)
        data_io.write_series(system, out / "series.csv")
        data_io.write_config(system, out / "config.json", "series.csv")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out / "config.json"
