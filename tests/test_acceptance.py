"""Acceptance gate: seven end-to-end criteria, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines;
any failed criterion fails its test with the measured numbers.
"""

import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import tsagg
from tsagg.data_io import default_spec, generate_synthetic
from tsagg.dispatch_model import (
    Generator,
    SystemData,
    add_nse_generator,
    solve_aggregated,
    solve_full,
)
from tsagg.evaluation import (
    compare_methods,
    compare_methods_detailed,
    output_error,
    run_theorem_trials,
)
from tsagg.lp_core import StandardFormLP, solve
from tsagg.tsa_clustering import (
    basis_cluster,
    kmeans,
    normalize_features,
    to_representatives,
)

from oracles import enumerate_lp, random_lp_data
from systems import random_system


@pytest.fixture(scope="session")
def default_system():
    return generate_synthetic(default_spec())


@pytest.fixture(scope="session")
def timed_full(default_system):
    """Full-year solve and its wall time."""
    t0 = time.perf_counter()
    full = solve_full(default_system)
    return full, time.perf_counter() - t0


@pytest.fixture(scope="session")
def comparison(default_system):
    return compare_methods_detailed(default_system, seed=0)


def test_criterion_1_basis_aggregation_reproduces_full_year(default_system, timed_full):
    full, elapsed = timed_full
    assert elapsed < 30.0, f"full solve took {elapsed:.2f}s (budget 30s)"
    features = normalize_features(default_system)
    model = basis_cluster(default_system, features=features, full=full)
    reps = to_representatives(model)
    aggregated = solve_aggregated(default_system, reps)
    err = output_error(full, aggregated)
    assert err <= 1e-6, f"basis aggregation error {err:.3e}% exceeds 1e-6%"
    print(
        f"\nPASS criterion 1: basis aggregation error {err:.3e}% <= 1e-6% "
        f"(8760 hourly LPs in {elapsed:.2f}s)"
    )


def test_criterion_2_three_labeled_regimes(comparison):
    model = comparison.basis_model
    assert model.k == 3, f"expected 3 clusters, found {model.k}"
    assert set(model.labels) == {"wind marginal", "thermal marginal", "NSE"}, (
        f"labels were {model.labels}"
    )
    print(
        f"\nPASS criterion 2: 3 clusters discovered with labels "
        f"{sorted(model.labels)}"
    )


def test_criterion_3_kmeans_wins_input_loses_output(comparison):
    km = comparison.kmeans_report
    bm = comparison.basis_report
    assert km.k == bm.k  # same cluster budget, like for like
    assert km.input_mse < bm.input_mse, (
        f"kmeans input MSE {km.input_mse:.6g} not below basis {bm.input_mse:.6g}"
    )
    assert km.output_error_pct >= 5.0, (
        f"kmeans output error {km.output_error_pct:.3f}% below 5%"
    )
    print(
        f"\nPASS criterion 3: kmeans input MSE {km.input_mse:.4g} < basis "
        f"{bm.input_mse:.4g}, yet kmeans output error "
        f"{km.output_error_pct:.1f}% vs basis {bm.output_error_pct:.2e}%"
    )


def test_criterion_4_averaged_rhs_optimality_trials():
    t0 = time.perf_counter()
    result = run_theorem_trials(10_000, seed=0)
    elapsed = time.perf_counter() - t0
    assert result.trials >= 10_000
    assert result.failures == 0, (
        f"{result.failures} failures, worst gap {result.worst_objective_gap:.3e}, "
        f"violation {result.worst_basis_violation}"
    )
    assert elapsed < 60.0, f"trials took {elapsed:.1f}s (budget 60s)"
    print(
        f"\nPASS criterion 4: {result.trials} randomized trials, 0 failures, "
        f"worst objective gap {result.worst_objective_gap:.2e} in {elapsed:.1f}s"
    )


def test_criterion_5_simplex_matches_enumeration_oracle():
    rng = np.random.default_rng(500)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    worst = 0.0
    for _ in range(500):
        c, A, b = random_lp_data(rng)
        want_status, want_obj, _ = enumerate_lp(c, A, b)
        got = solve(StandardFormLP(c, A, b))
        assert got.status.value == want_status, (want_status, got.status)
        statuses[want_status] += 1
        if want_status == "optimal":
            gap = abs(got.objective - want_obj) / max(1.0, abs(want_obj))
            worst = max(worst, gap)
            assert gap <= 1e-8, f"objective gap {gap:.3e} vs oracle"
    assert min(statuses.values()) > 0, f"statuses not all exercised: {statuses}"
    print(
        f"\nPASS criterion 5: 500 LPs match the basic-solution enumeration "
        f"oracle ({statuses}), worst relative gap {worst:.2e}"
    )


def test_criterion_6_identity_and_constant_controls():
    rng = np.random.default_rng(66)
    system = random_system(rng, hours=48)
    full = solve_full(system)
    features = normalize_features(system)
    identity = kmeans(features, 48, seed=0)
    agg = solve_aggregated(system, to_representatives(identity))
    id_err = output_error(full, agg)
    assert id_err <= 1e-10, f"identity aggregation error {id_err:.3e}%"

    const = SystemData(
        (
            Generator("wind", 0.0, 60.0, is_variable=True, cf_series_id="wind"),
            Generator("thermal", 12.0, 100.0),
        ),
        np.full(24, 70.0),
        {"wind": np.full(24, 0.5)},
    )
    const = add_nse_generator(const)
    errors = [r.output_error_pct for r in compare_methods(const, k_for_kmeans=1, seed=0)]
    assert max(errors) <= 1e-10, f"constant-series control errors {errors}"
    print(
        f"\nPASS criterion 6: identity control {id_err:.2e}%, constant-series "
        f"controls {errors[0]:.2e}% / {errors[1]:.2e}% (all <= 1e-10%)"
    )


def _run_cli(args, cwd):
    # The child runs in a tmp cwd, so a relative PYTHONPATH would not resolve
    # there; put the absolute source root of the imported package first.
    src = str(Path(tsagg.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    proc = subprocess.run(
        [sys.executable, "-m", "tsagg.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, f"tsagg {' '.join(args)} failed: {proc.stderr}"
    return proc


def test_criterion_7_cli_outputs_byte_identical(tmp_path):
    _run_cli(["generate", "--out", "inst", "--hours", "400", "--seed", "1"], tmp_path)
    for run in ("a", "b"):
        _run_cli(["compare", "--config", "inst/config.json", "--seed", "1",
                  "--out", run], tmp_path)
        _run_cli(["plot", "--config", "inst/config.json",
                  "--clusters", f"{run}/clusters_basis.json",
                  "--out", f"{run}/basis.svg"], tmp_path)
    names = ["kmeans_report.json", "basis_report.json", "clusters_kmeans.json",
             "clusters_basis.json", "summary.txt", "basis.svg"]
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    root = ET.parse(tmp_path / "a" / "basis.svg").getroot()
    assert len(root.findall("{http://www.w3.org/2000/svg}circle")) == 400
    print(
        f"\nPASS criterion 7: repeated CLI compare+plot runs byte-identical "
        f"across {len(names)} artifacts"
    )
