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
    solve_aggregated,
    solve_full,
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
    ClusterMethod,
    ClusterModel,
    FeatureMatrix,
    basis_cluster,
    input_mse,
    kmeans,
    normalize_features,
    to_representatives,
)


class ZeroBaselineError(Exception):
    """Full-model cost is zero; the relative output error is undefined."""


class SampleRejectedError(Exception):
    """An RHS sample is not optimal for the basis under test."""

    def __init__(self, index: int, status: LPStatus):
        self.index = index
        self.status = status
        super().__init__(f"rhs sample {index} rejected: basis is {status.value}")


@dataclass(frozen=True)
class ClusterSummary:
    weight: float
    demand: float
    cf: dict[str, float]
    label: str
    basis: BasisSignature | None


@dataclass
class EvaluationReport:
    method: str
    k: int
    input_mse: float
    full_cost: float
    aggregated_cost: float
    output_error_pct: float
    per_cluster: list[ClusterSummary]


@dataclass
class TheoremCheckResult:
    trials: int
    failures: int
    worst_objective_gap: float
    worst_basis_violation: str | None = None

    @staticmethod
    def combine(results: list["TheoremCheckResult"]) -> "TheoremCheckResult":
        """Sum counts; the violation kept is the one with the largest gap
        among results that have one (the first on ties)."""
        worst = max(
            (r for r in results if r.worst_basis_violation is not None),
            key=lambda r: r.worst_objective_gap,
            default=None,
        )
        return TheoremCheckResult(
            trials=sum(r.trials for r in results),
            failures=sum(r.failures for r in results),
            worst_objective_gap=max(
                (r.worst_objective_gap for r in results), default=0.0
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
        raise ZeroBaselineError("full model cost is zero")
    return 100.0 * abs(full.total_cost - aggregated.total_cost) / abs(full.total_cost)


def theorem_check(
    lp_template: StandardFormLP,
    basis: BasisSignature,
    rhs_samples: list[np.ndarray],
    rel_tol: float = 1e-9,
) -> TheoremCheckResult:
    """Verify basis optimality and objective linearity at the averaged RHS.

    Every sample must itself be optimal under ``basis`` (checked first;
    a bad sample raises SampleRejectedError rather than being skipped).
    The trial then asserts three things about b_mean = mean(rhs_samples):
    the basis stays optimal, its objective equals the mean of the
    per-sample objectives within ``rel_tol``, and an independent fresh
    solve of the averaged problem agrees.
    """
    if not rhs_samples:
        raise ValueError("need at least one rhs sample")
    objs = []
    stack = []
    for i, b in enumerate(rhs_samples):
        sol = solve_with_basis(lp_template.with_rhs(b), basis)
        if sol.status is not LPStatus.OPTIMAL:
            raise SampleRejectedError(i, sol.status)
        objs.append(sol.objective)
        stack.append(np.asarray(b, dtype=float))
    b_mean = np.mean(np.stack(stack), axis=0)
    mean_of_objs = float(np.mean(objs))
    scale = max(1.0, abs(mean_of_objs))

    violation = None
    at_mean = solve_with_basis(lp_template.with_rhs(b_mean), basis)
    if at_mean.status is not LPStatus.OPTIMAL:
        violation = f"basis not optimal at averaged rhs ({at_mean.status.value})"
    gap = abs(at_mean.objective - mean_of_objs) / scale

    fresh = solve(lp_template.with_rhs(b_mean))
    if fresh.status is not LPStatus.OPTIMAL:
        violation = violation or (
            f"fresh solve of averaged rhs is {fresh.status.value}"
        )
        fresh_gap = np.inf
    else:
        fresh_gap = abs(fresh.objective - at_mean.objective) / scale

    worst_gap = float(max(gap, fresh_gap))
    failed = violation is not None or worst_gap > rel_tol
    return TheoremCheckResult(
        trials=1,
        failures=1 if failed else 0,
        worst_objective_gap=worst_gap,
        worst_basis_violation=violation,
    )


def _random_optimal_lp(rng: np.random.Generator, max_m: int, max_n: int):
    """Random standard-form LP biased towards a bounded feasible optimum."""
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(m, max_n + 1))
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.0, 1.0, n)
    b = A @ x0  # feasible by construction
    if rng.integers(4) == 0:
        c = rng.normal(size=n)  # occasionally allow unbounded/degenerate draws
    else:
        c = rng.uniform(0.0, 1.0, n)
    return StandardFormLP(c, A, b)


def run_theorem_trials(
    n_trials: int,
    seed: int = 0,
    max_m: int = 5,
    max_n: int = 10,
    max_samples: int = 4,
    rel_tol: float = 1e-9,
) -> TheoremCheckResult:
    """Aggregate ``theorem_check`` over randomised LPs and RHS cone samples.

    Samples are drawn as B @ u with u >= 0, i.e. from the feasibility cone
    of the basis found by an initial solve, which is exactly the set of
    right-hand sides for which the basis stays optimal.
    """
    rng = np.random.default_rng(seed)
    results = []
    while len(results) < n_trials:
        lp = _random_optimal_lp(rng, max_m, max_n)
        try:
            sol = solve(lp)
        except LPError:
            continue
        if sol.status is not LPStatus.OPTIMAL:
            continue
        B = lp.A[:, list(sol.basis.indices)]
        count = int(rng.integers(2, max_samples + 1))
        samples = [B @ rng.uniform(0.0, 2.0, lp.m) for _ in range(count)]
        results.append(theorem_check(lp, sol.basis, samples, rel_tol=rel_tol))
    return TheoremCheckResult.combine(results)


def _summaries(model: ClusterModel, reps) -> list[ClusterSummary]:
    out = []
    for cid, rep in enumerate(reps.reps):
        out.append(
            ClusterSummary(
                weight=rep.weight,
                demand=rep.demand,
                cf=dict(rep.cf),
                label=model.labels[cid] if model.labels else f"cluster {cid}",
                basis=model.basis_map[cid] if model.basis_map else None,
            )
        )
    return out


@dataclass
class ComparisonResult:
    """Reports plus the intermediate artefacts they were built from."""

    features: FeatureMatrix
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
    features = normalize_features(system)
    full = solve_full(system)

    bmodel = basis_cluster(system, features=features, full=full)
    breps = to_representatives(bmodel, features)
    bagg = solve_aggregated(system, breps)

    k = bmodel.k if k_for_kmeans is None else k_for_kmeans
    kmodel = kmeans(features, k, seed=seed)
    kreps = to_representatives(kmodel, features)
    kagg = solve_aggregated(system, kreps)

    kreport = EvaluationReport(
        method=ClusterMethod.KMEANS.value,
        k=kmodel.k,
        input_mse=input_mse(features, kmodel),
        full_cost=full.total_cost,
        aggregated_cost=kagg.total_cost,
        output_error_pct=output_error(full, kagg),
        per_cluster=_summaries(kmodel, kreps),
    )
    breport = EvaluationReport(
        method=ClusterMethod.BASIS.value,
        k=bmodel.k,
        input_mse=input_mse(features, bmodel),
        full_cost=full.total_cost,
        aggregated_cost=bagg.total_cost,
        output_error_pct=output_error(full, bagg),
        per_cluster=_summaries(bmodel, breps),
    )
    return ComparisonResult(features, full, kmodel, bmodel, kreport, breport)
