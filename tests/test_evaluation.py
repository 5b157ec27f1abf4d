"""Output-error arithmetic, theorem trials, and method comparison."""

import numpy as np
import pytest

from systems import random_system, thermal_wind
from tsagg.dispatch_model import (
    DispatchKind,
    DispatchSolution,
    solve_full,
)
from tsagg.evaluation import (
    EvaluationReport,
    SampleRejectedError,
    TheoremCheckResult,
    ZeroBaselineError,
    compare_methods,
    output_error,
    run_theorem_trials,
    theorem_check,
)
from tsagg.lp_core import BasisSignature, StandardFormLP, solve
from tsagg.tsa_clustering import kmeans, normalize_features, to_representatives
from tsagg.dispatch_model import solve_aggregated


def stub(kind, cost):
    return DispatchSolution(kind, [], cost)


# ---------------------------------------------------------------------------
# output error
# ---------------------------------------------------------------------------

def test_output_error_values():
    full = stub(DispatchKind.FULL, 100.0)
    assert output_error(full, stub(DispatchKind.AGGREGATED, 100.0)) == 0.0
    assert output_error(full, stub(DispatchKind.AGGREGATED, 9.0)) == pytest.approx(91.0)
    assert output_error(stub(DispatchKind.FULL, 80.0), stub(DispatchKind.AGGREGATED, 100.0)) == pytest.approx(25.0)


def test_output_error_checks_kinds():
    full = stub(DispatchKind.FULL, 100.0)
    agg = stub(DispatchKind.AGGREGATED, 90.0)
    with pytest.raises(ValueError):
        output_error(agg, agg)
    with pytest.raises(ValueError):
        output_error(full, full)


def test_output_error_zero_baseline():
    with pytest.raises(ZeroBaselineError):
        output_error(stub(DispatchKind.FULL, 0.0), stub(DispatchKind.AGGREGATED, 1.0))


# ---------------------------------------------------------------------------
# theorem check
# ---------------------------------------------------------------------------

def simple_lp():
    # min x1 + 2 x2  s.t.  x1 + x2 + s = b
    return StandardFormLP([1.0, 2.0, 0.0], [[1.0, 1.0, 1.0]], [1.0])


def test_theorem_check_identical_samples_exact():
    lp = simple_lp()
    basis = solve(lp).basis
    res = theorem_check(lp, basis, [np.array([1.0])] * 3)
    assert res == TheoremCheckResult(1, 0, 0.0, None)


def test_theorem_check_cone_samples_pass():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 9))
        A = rng.normal(size=(m, n))
        lp = StandardFormLP(rng.uniform(0.0, 1.0, n), A, A @ rng.uniform(0.0, 1.0, n))
        sol = solve(lp)
        if sol.status.value != "optimal":
            continue
        B = A[:, list(sol.basis.indices)]
        samples = [B @ rng.uniform(0.0, 2.0, m) for _ in range(4)]
        res = theorem_check(lp, sol.basis, samples)
        assert res.failures == 0
        assert res.worst_objective_gap <= 1e-9


def test_theorem_check_rejects_sample_outside_cone():
    lp = StandardFormLP([-1.0, 0.0], [[1.0, 1.0]], [1.0])
    basis = BasisSignature((0,))  # optimal for b >= 0 only
    with pytest.raises(SampleRejectedError) as err:
        theorem_check(lp, basis, [np.array([1.0]), np.array([-1.0])])
    assert err.value.index == 1


def test_theorem_check_needs_samples():
    lp = simple_lp()
    with pytest.raises(ValueError):
        theorem_check(lp, solve(lp).basis, [])


def test_theorem_result_combine():
    a = TheoremCheckResult(3, 0, 1e-12, None)
    b = TheoremCheckResult(2, 1, 5e-9, "basis not optimal at averaged rhs")
    merged = TheoremCheckResult.combine([a, b])
    assert merged.trials == 5
    assert merged.failures == 1
    assert merged.worst_objective_gap == 5e-9
    assert "not optimal" in merged.worst_basis_violation
    empty = TheoremCheckResult.combine([])
    assert (empty.trials, empty.failures, empty.worst_objective_gap) == (0, 0, 0.0)


def test_theorem_result_combine_keeps_largest_gap_violation():
    a = TheoremCheckResult(2, 1, 1e-8, "objective not linear")
    b = TheoremCheckResult(2, 1, 3e-6, "basis not optimal at averaged rhs")
    c = TheoremCheckResult(2, 1, 3e-6, "third violation")
    gap_only = TheoremCheckResult(2, 1, 1e-3, None)
    merged = TheoremCheckResult.combine([a, gap_only, b, c])
    assert merged.worst_basis_violation == "basis not optimal at averaged rhs"
    assert merged.worst_objective_gap == 1e-3
    assert merged.failures == 4


def test_run_theorem_trials_small_batch_clean():
    res = run_theorem_trials(300, seed=6)
    assert res.trials == 300
    assert res.failures == 0
    assert res.worst_basis_violation is None
    assert res.worst_objective_gap <= 1e-9


# ---------------------------------------------------------------------------
# compare_methods
# ---------------------------------------------------------------------------

def regime_rich_system(hours=48):
    rng = np.random.default_rng(99)
    demand = np.clip(
        90.0
        + 25.0 * np.sin(2 * np.pi * np.arange(hours) / 24.0)
        + rng.normal(0.0, 6.0, hours),
        0.0,
        None,
    )
    cf = np.clip(rng.beta(2.0, 3.0, hours), 0.0, 1.0)
    return thermal_wind(demand, cf)


def test_compare_methods_reports_structure():
    system = regime_rich_system()
    km, bm = compare_methods(system, seed=1)
    assert km.method == "kmeans" and bm.method == "basis"
    assert km.k == bm.k  # k-means granted the discovered k
    assert km.full_cost == bm.full_cost
    assert sum(c.weight for c in bm.per_cluster) == system.horizon
    assert all(c.basis is not None for c in bm.per_cluster)
    assert all(c.basis is None for c in km.per_cluster)
    assert bm.output_error_pct <= 1e-6


def test_compare_methods_k_override_and_determinism():
    system = regime_rich_system()
    first = compare_methods(system, k_for_kmeans=4, seed=2)
    second = compare_methods(system, k_for_kmeans=4, seed=2)
    assert first[0].k == 4
    # timings differ run to run but are excluded from equality
    assert first == second


def test_identity_aggregation_control():
    """k = H singleton clusters must reproduce the full model exactly."""
    system = thermal_wind(
        [30.0, 125.0, 160.0, 20.0, 110.0, 155.0],
        [0.9, 0.6, 0.7, 0.8, 0.5, 0.6],
    )
    feats = normalize_features(system)
    model = kmeans(feats, system.horizon, seed=0)
    reps = to_representatives(model, feats)
    agg = solve_aggregated(system, reps)
    full = solve_full(system)
    err = output_error(full, agg)
    assert err <= 1e-10


def test_constant_series_control_both_methods():
    system = thermal_wind([120.0] * 8, [0.7] * 8)
    km, bm = compare_methods(system, k_for_kmeans=1)
    assert km.output_error_pct <= 1e-10
    assert bm.output_error_pct <= 1e-10
    assert bm.k == 1
