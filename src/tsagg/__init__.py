"""Basis-oriented time series aggregation for economic dispatch LPs.

The package solves one small linear program per period, groups periods
that share an optimal simplex basis, and aggregates each group to its
average right-hand side.  Because the optimum is linear in the RHS inside
a basis cone, the aggregated model reproduces the full model's objective;
input-space methods such as k-means generally do not.
"""

from .lp_core import (
    PIVOT_EPS,
    TOL_FEAS,
    TOL_OPT,
    BasisSignature,
    LPError,
    LPSolution,
    LPStatus,
    NumericalFailureError,
    RankDeficientError,
    SingularBasisError,
    StandardFormLP,
    solve,
    solve_with_basis,
)
from .dispatch_model import (
    DispatchKind,
    DispatchSolution,
    Generator,
    InfeasiblePeriodError,
    Representative,
    SystemData,
    add_nse_generator,
    regime_counts,
    regime_label,
    solve_aggregated,
    solve_by_cones,
    solve_full,
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
from .evaluation import (
    ComparisonResult,
    EvaluationReport,
    TheoremCheckResult,
    compare_methods,
    compare_methods_detailed,
    output_error,
    run_theorem_trials,
    theorem_check,
)
from .data_io import (
    SyntheticSpec,
    default_spec,
    generate_synthetic,
    load_config,
    load_series,
    regime_fractions,
    write_report,
    write_series,
)

__version__ = "0.1.0"
