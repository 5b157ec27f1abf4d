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
    _means,
    compare_methods,
    output_error,
    run_theorem_trials,
    theorem_check,
)
from tsagg.lp_core import BasisSignature, LPStatus, StandardFormLP, solve, solve_with_basis
from tsagg.tsa_clustering import kmeans, normalize_features, to_representatives
from tsagg.dispatch_model import solve_aggregated


def stub(kind, cost):
    none, no_rows = np.empty(0), np.empty((0, 0))
    return DispatchSolution(kind, none, no_rows, none, none, none, (), no_rows, no_rows, cost)


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


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def _random_rows(rng, count, m):
    """``count`` rows of m floats over nine decades, a tenth of them +-0.0."""
    rows = rng.uniform(-1.0, 1.0, (count, m)) * 10.0 ** rng.integers(-4, 5, (count, m))
    rows[rng.uniform(size=(count, m)) < 0.1] = 0.0
    return rows * rng.choice([-1.0, 1.0], (count, m))


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 8, 9, 20, 300])
def test_theorem_check_means_are_numpys_bit_for_bit(count):
    rng = np.random.default_rng(count)
    for m in (1, 2, 3, 5):
        for _ in range(20):
            rows = _random_rows(rng, count, m)
            objs = rows[:, 0].tolist()
            b_mean, mean_of_objs = _means(rows.tolist(), objs)
            assert _bits(b_mean) == _bits(np.mean(np.stack(list(rows)), axis=0))
            assert _bits(mean_of_objs) == _bits(float(np.mean(objs)))


def _theorem_check_with_numpy_means(lp_template, basis, rhs_samples):
    """``theorem_check`` as it was with ``np.stack``/``np.mean``."""
    objs, stack = [], []
    for b in rhs_samples:
        sol = solve_with_basis(lp_template.with_rhs(b), basis)
        assert sol.status is LPStatus.OPTIMAL
        objs.append(sol.objective)
        stack.append(np.asarray(b, dtype=float))
    b_mean = np.mean(np.stack(stack), axis=0)
    mean_of_objs = float(np.mean(objs))
    scale = max(1.0, abs(mean_of_objs))
    at_mean = solve_with_basis(lp_template.with_rhs(b_mean), basis)
    fresh = solve(lp_template.with_rhs(b_mean))
    gap = abs(at_mean.objective - mean_of_objs) / scale
    fresh_gap = abs(fresh.objective - at_mean.objective) / scale
    return at_mean.status, fresh.status, float(max(gap, fresh_gap))


@pytest.mark.parametrize("count", [9, 20])
def test_theorem_check_with_many_samples_matches_numpy_means(count):
    rng = np.random.default_rng(40 + count)
    checked = 0
    while checked < 40:
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 11))
        A = rng.normal(size=(m, n))
        lp = StandardFormLP(rng.uniform(0.0, 1.0, n), A, A @ rng.uniform(0.0, 1.0, n))
        sol = solve(lp)
        if sol.status is not LPStatus.OPTIMAL:
            continue
        checked += 1
        B = A[:, list(sol.basis.indices)]
        samples = [B @ rng.uniform(0.0, 2.0, m) for _ in range(count)]
        res = theorem_check(lp, sol.basis, samples)
        at_mean, fresh, gap = _theorem_check_with_numpy_means(lp, sol.basis, samples)
        assert (at_mean, fresh) == (LPStatus.OPTIMAL, LPStatus.OPTIMAL)
        assert res.worst_basis_violation is None
        assert _bits(res.worst_objective_gap) == _bits(gap)


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


def test_theorem_check_builds_one_lp_per_sample_and_one_for_the_mean(monkeypatch):
    lp = simple_lp()
    basis = solve(lp).basis
    built = []
    init = StandardFormLP.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StandardFormLP, "__init__", counted_init)
    samples = [np.array([1.0]), np.array([2.0]), np.array([4.0])]
    assert theorem_check(lp, basis, samples).failures == 0
    assert len(built) == len(samples) + 1


def test_theorem_check_fails_a_nan_gap():
    """x_B overflows to inf at every sample and at the mean, so both gaps
    are inf - inf, NaN: the trial fails and reports the NaN."""
    A = np.array([[-1e-06, 1.0, 0.0], [0.0, -1.0, 1.0]])
    c = np.array([0.08401534358238483, 0.8326441476533978, 0.7870983074886834])
    b = np.array([-5.407481500825879e307, -1.8266510050802505e307])
    result = theorem_check(StandardFormLP(c, A, b), BasisSignature((0, 1)), [b * 0.5, b * 0.5])
    assert result.failures == 1
    assert np.isnan(result.worst_objective_gap)


def test_theorem_result_combine_keeps_a_nan_gap():
    """Python's ``max`` would drop a NaN that is not first."""
    results = [TheoremCheckResult(1, 0, 1e-12), TheoremCheckResult(1, 1, float("nan")),
               TheoremCheckResult(1, 1, 5e-9)]
    merged = TheoremCheckResult.combine(results)
    assert (merged.trials, merged.failures) == (3, 2)
    assert np.isnan(merged.worst_objective_gap)


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


def test_theorem_result_combine_keeps_the_violation_of_a_nan_gap():
    """D38: a NaN gap is the worst, so its violation is kept, the first
    NaN's on ties; ``max`` keyed on the gap alone kept "a"."""
    T = TheoremCheckResult
    nan = float("nan")
    merged = T.combine([T(1, 1, 1e-3, "a"), T(1, 1, nan, "b")])
    assert np.isnan(merged.worst_objective_gap)
    assert merged.worst_basis_violation == "b"
    merged = T.combine([T(1, 1, nan, "b"), T(1, 1, 1e-3, "a"), T(1, 1, nan, "c")])
    assert merged.worst_basis_violation == "b"
    merged = T.combine([T(1, 1, 1e-3, "a"), T(1, 1, nan, None), T(1, 1, 1e-2, "c")])
    assert (np.isnan(merged.worst_objective_gap), merged.worst_basis_violation) == (True, "c")


def test_run_theorem_trials_refuses_a_negative_count():
    with pytest.raises(ValueError):
        run_theorem_trials(-3)
    assert run_theorem_trials(0) == TheoremCheckResult(0, 0, 0.0, None)


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
    reps = to_representatives(model)
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
