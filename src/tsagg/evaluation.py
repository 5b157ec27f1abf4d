"""Output-error evaluation and the averaged-RHS optimality check.

The check at the heart of the package: if one basis is optimal for a set
of right-hand sides, it is optimal for their average, and the optimal
objective of the averaged problem equals the average of the per-sample
objectives.  ``theorem_check`` verifies this for one family of samples;
``run_theorem_trials`` hammers it with randomised LPs.  ``compare_methods``
produces the k-means vs basis-clustering scorecard for a dispatch system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispatch_model import (
    DispatchKind,
    DispatchSolution,
    SystemData,
    ordered_sum,
    solve_aggregated,
    solve_by_cones,
)
from .lp_core import (
    BasisSignature,
    LPError,
    LPStatus,
    StandardFormLP,
    solve,
    solve_with_basis,
)
from .tsa_clustering import (
    ClusterModel,
    ClusterSummary,
    basis_cluster,
    check_kmeans_args,
    input_mse,
    kmeans,
    normalize_features,
    to_representatives,
)


# Largest objective gap, relative to max(1, |mean objective|), that a
# theorem check passes.
REL_TOL = 1e-9
# Trial LPs have 1..TRIAL_MAX_M rows, m..TRIAL_MAX_N columns and
# 2..TRIAL_MAX_SAMPLES right-hand sides drawn from the basis cone.
TRIAL_MAX_M = 5
TRIAL_MAX_N = 10
TRIAL_MAX_SAMPLES = 4


class ZeroBaselineError(ValueError):
    """Full-model cost is zero; the relative output error is undefined."""


class SampleRejectedError(Exception):
    """An RHS sample is not optimal for the basis under test."""

    def __init__(self, index: int, status: LPStatus):
        self.index = index
        self.status = status
        super().__init__(f"rhs sample {index} rejected: basis is {status.value}")


@dataclass(frozen=True)
class EvaluationReport:
    method: str
    k: int
    input_mse: float
    full_cost: float
    aggregated_cost: float
    output_error_pct: float
    per_cluster: tuple[ClusterSummary, ...]

    def __post_init__(self):
        vars(self)["per_cluster"] = tuple(self.per_cluster)  # frozen: set through the dict


@dataclass(frozen=True)
class TheoremCheckResult:
    trials: int
    failures: int
    worst_objective_gap: float
    worst_basis_violation: str | None = None

    @staticmethod
    def combine(results: list["TheoremCheckResult"]) -> "TheoremCheckResult":
        """Sum counts; the worst gap is NaN if any is; the violation kept is
        the one with the largest gap among results that have one, a NaN
        gap counting as the largest (the first on ties)."""
        worst = max(
            (r for r in results if r.worst_basis_violation is not None),
            key=lambda r: (np.isnan(r.worst_objective_gap), r.worst_objective_gap),
            default=None,
        )
        return TheoremCheckResult(
            trials=sum(r.trials for r in results),
            failures=sum(r.failures for r in results),
            worst_objective_gap=float(
                np.max([r.worst_objective_gap for r in results], initial=0.0)
            ),
            worst_basis_violation=None if worst is None else worst.worst_basis_violation,
        )


def output_error(full: DispatchSolution, aggregated: DispatchSolution) -> float:
    """Relative objective gap in percent, 100 * |full - agg| / |full|."""
    if full.kind is not DispatchKind.FULL:
        raise ValueError("first argument must be a full-horizon solution")
    if aggregated.kind is not DispatchKind.AGGREGATED:
        raise ValueError("second argument must be an aggregated solution")
    if full.total_cost == 0.0:
        raise ZeroBaselineError("full model cost is zero; the relative output error is undefined")
    return 100.0 * abs(full.total_cost - aggregated.total_cost) / abs(full.total_cost)


def _means(rows: list[list[float]], objs: list[float]) -> tuple[list[float], float]:
    """``np.mean(np.stack(rows), axis=0)`` as a list and ``np.mean(objs)``,
    bit for bit.  numpy adds fewer than 8 terms left to right from 0.0, and
    its axis-0 mean row by row, so below 8 samples plain loops give its
    bits; from 8 on it may sum pairwise, and numpy itself is called."""
    count = len(objs)
    if count >= 8:
        return np.mean(np.array(rows), axis=0).tolist(), float(np.mean(objs))
    b_mean = [ordered_sum(column) / count for column in zip(*rows)]
    return b_mean, ordered_sum(objs) / count


def theorem_check(
    lp_template: StandardFormLP,
    basis: BasisSignature,
    rhs_samples: list[np.ndarray],
) -> TheoremCheckResult:
    """Verify basis optimality and objective linearity at the averaged RHS.

    Every sample must itself be optimal under ``basis`` (checked first;
    a bad sample raises SampleRejectedError rather than being skipped).
    The trial then asserts three things about b_mean = mean(rhs_samples):
    the basis stays optimal, its objective equals the mean of the
    per-sample objectives within ``REL_TOL``, and an independent fresh
    solve of the averaged problem agrees.  A gap that is not a number
    ``<= REL_TOL`` fails, NaN included, and a NaN gap is the worst.  Both
    means are what ``np.mean`` gives, bit for bit (``_means``).
    """
    if not rhs_samples:
        raise ValueError("need at least one rhs sample")
    objs = []
    rows = []
    for i, b in enumerate(rhs_samples):
        lp = lp_template.with_rhs(b)
        sol = solve_with_basis(lp, basis)
        if sol.status is not LPStatus.OPTIMAL:
            raise SampleRejectedError(i, sol.status)
        objs.append(sol.objective)
        rows.append(lp.b.tolist())
    b_mean, mean_of_objs = _means(rows, objs)
    scale = max(1.0, abs(mean_of_objs))

    violation = None
    mean_lp = lp_template.with_rhs(b_mean)
    at_mean = solve_with_basis(mean_lp, basis)
    if at_mean.status is not LPStatus.OPTIMAL:
        violation = f"basis not optimal at averaged rhs ({at_mean.status.value})"
    gap = abs(at_mean.objective - mean_of_objs) / scale

    fresh = solve(mean_lp)
    if fresh.status is not LPStatus.OPTIMAL:
        violation = violation or (
            f"fresh solve of averaged rhs is {fresh.status.value}"
        )
        fresh_gap = np.inf
    else:
        fresh_gap = abs(fresh.objective - at_mean.objective) / scale

    worst_gap = float(np.maximum(gap, fresh_gap))  # NaN if either is
    failed = violation is not None or not worst_gap <= REL_TOL
    return TheoremCheckResult(
        trials=1,
        failures=1 if failed else 0,
        worst_objective_gap=worst_gap,
        worst_basis_violation=violation,
    )


def _random_optimal_lp(rng: np.random.Generator):
    """Random standard-form LP biased towards a bounded feasible optimum."""
    m = int(rng.integers(1, TRIAL_MAX_M + 1))
    n = int(rng.integers(m, TRIAL_MAX_N + 1))
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.0, 1.0, n)
    b = A @ x0  # feasible by construction
    if rng.integers(4) == 0:
        c = rng.normal(size=n)  # occasionally allow unbounded/degenerate draws
    else:
        c = rng.uniform(0.0, 1.0, n)
    return StandardFormLP(c, A, b)


def run_theorem_trials(n_trials: int, seed: int = 0) -> TheoremCheckResult:
    """Aggregate ``theorem_check`` over randomised LPs and RHS cone samples.

    Samples are drawn as B @ u with u >= 0, i.e. from the feasibility cone
    of the basis found by an initial solve, which is exactly the set of
    right-hand sides for which the basis stays optimal.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    rng = np.random.default_rng(seed)
    results = []
    while len(results) < n_trials:
        lp = _random_optimal_lp(rng)
        try:
            sol = solve(lp)
        except LPError:
            continue
        if sol.status is not LPStatus.OPTIMAL:
            continue
        B = lp.A[:, list(sol.basis.indices)]
        count = int(rng.integers(2, TRIAL_MAX_SAMPLES + 1))
        samples = [B @ rng.uniform(0.0, 2.0, lp.m) for _ in range(count)]
        results.append(theorem_check(lp, sol.basis, samples))
    return TheoremCheckResult.combine(results)


@dataclass(frozen=True)
class ComparisonResult:
    """Reports plus the intermediate artefacts they were built from."""

    full: DispatchSolution
    kmeans_model: ClusterModel
    basis_model: ClusterModel
    kmeans_report: EvaluationReport
    basis_report: EvaluationReport

    @property
    def reports(self) -> list[EvaluationReport]:
        return [self.kmeans_report, self.basis_report]


def compare_methods(
    system: SystemData,
    k_for_kmeans: int | None = None,
    seed: int = 0,
) -> list[EvaluationReport]:
    """Score k-means and basis clustering against the full model.

    The full horizon is solved once and shared.  Unless overridden,
    k-means is granted the same k that basis clustering discovered, so the
    comparison is like for like.  Returns [kmeans_report, basis_report].
    """
    return compare_methods_detailed(system, k_for_kmeans, seed).reports


def compare_methods_detailed(
    system: SystemData,
    k_for_kmeans: int | None = None,
    seed: int = 0,
) -> ComparisonResult:
    """``compare_methods`` with its artefacts.  The k-means arguments are
    checked first; then one ``solve_by_cones`` solve serves both reports."""
    features = normalize_features(system)
    check_kmeans_args(features.H, k_for_kmeans, seed)  # before the costly solve
    full = solve_by_cones(system)

    def report(model: ClusterModel) -> EvaluationReport:
        reps = to_representatives(model)
        agg = solve_aggregated(system, reps)
        return EvaluationReport(
            method=model.method.value,
            k=model.k,
            input_mse=input_mse(model),
            full_cost=full.total_cost,
            aggregated_cost=agg.total_cost,
            output_error_pct=output_error(full, agg),
            per_cluster=reps,
        )

    bmodel = basis_cluster(system, features=features, full=full)
    k = bmodel.k if k_for_kmeans is None else k_for_kmeans
    kmodel = kmeans(features, k, seed=seed)
    return ComparisonResult(full, kmodel, bmodel, report(kmodel), report(bmodel))
