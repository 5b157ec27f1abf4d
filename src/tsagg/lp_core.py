"""Standard-form LP types and a deterministic two-phase simplex.

Problems are minimisations ``min c.x  s.t.  A x = b, x >= 0`` with dense
float64 data and full row rank A.  Bland's smallest-index rule is used for
both the entering and the leaving variable, which makes the solver
anti-cycling and gives every input a single canonical optimal basis:
solving the same bits twice returns the same basic index set.

LPs made with ``StandardFormLP.with_rhs`` share their template's ``c``, ``A``
and per-basis factors.  B, the duals and the reduced costs depend only on
(c, A, basis), so a basis is factorised once for the whole family and each
evaluation then costs one triangular solve against its own b.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum

import numpy as np

from . import _kernels

TOL_FEAS = 1e-9
TOL_OPT = 1e-9
TOL_OBJ = 1e-9
PIVOT_EPS = 1e-11


class LPError(Exception):
    """Base class for solver failures."""


class RankDeficientError(LPError):
    """Constraint matrix has row rank below m."""


class NumericalFailureError(LPError):
    """Pivoting broke down or the iteration cap was hit."""


class SingularBasisError(LPError):
    """Requested basis matrix is singular to working precision."""


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    BASIS_INFEASIBLE = "basis_infeasible"
    BASIS_SUBOPTIMAL = "basis_suboptimal"


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class StandardFormLP:
    """min c.x subject to A x = b, x >= 0.

    The arrays are read-only copies.  An LP made by ``with_rhs`` shares its
    template's ``c`` and ``A`` arrays and its per-basis factors; any other
    construction, ``dataclasses.replace`` included, starts afresh.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    _template: InitVar[StandardFormLP | None] = None
    # Basis bytes -> b-independent factor (None if singular); see
    # ``_kernels.basis_eval``.  Valid only for this c and A.
    _factors: dict = field(init=False, repr=False)

    def __post_init__(self, _template):
        b = _readonly(self.b)
        shared = (
            _template is not None and self.c is _template.c and self.A is _template.A
        )
        if shared:
            # with_rhs: c and A are the template's checked read-only arrays.
            c, A, factors = self.c, self.A, _template._factors
        else:
            c = _readonly(self.c)
            A = _readonly(self.A)
            factors = {}
        if A.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("expected A 2-d, c and b 1-d")
        m, n = A.shape
        if m < 1 or n < 1:
            raise ValueError("empty LP")
        if c.shape[0] != n or b.shape[0] != m:
            raise ValueError(
                f"inconsistent shapes: A {A.shape}, c {c.shape}, b {b.shape}"
            )
        if m > n:
            raise ValueError(f"more rows than columns (m={m} > n={n})")
        if not (
            (shared or (np.isfinite(c).all() and np.isfinite(A).all()))
            and np.isfinite(b).all()
        ):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_factors", factors)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def with_rhs(self, b: np.ndarray) -> "StandardFormLP":
        """Same costs and constraint matrix, new right-hand side.

        The new LP shares this one's ``c`` and ``A`` arrays and its cache of
        per-basis factors, so each distinct basis is factorised once across
        all of them; ``b`` is copied and checked as usual.
        """
        return StandardFormLP(self.c, self.A, b, self)


@dataclass(frozen=True)
class BasisSignature:
    """Canonical (sorted, duplicate-free) tuple of m basic column indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate basis indices: {self.indices}")
        if idx and idx[0] < 0:
            raise ValueError(f"negative basis index: {self.indices}")
        object.__setattr__(self, "indices", idx)

    def as_array(self) -> np.ndarray:
        return np.array(self.indices, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(eq=False)
class LPSolution:
    status: LPStatus
    objective: float
    x: np.ndarray | None = None
    basis: BasisSignature | None = None
    reduced_costs: np.ndarray | None = None
    iterations: int = 0


def _check_basis(lp: StandardFormLP, basis: BasisSignature) -> np.ndarray:
    if len(basis) != lp.m:
        raise ValueError(f"basis has {len(basis)} indices, need m={lp.m}")
    idx = basis.as_array()
    if idx.size and idx[-1] >= lp.n:
        raise ValueError(f"basis index {idx[-1]} out of range for n={lp.n}")
    return idx


def _max_iter(lp: StandardFormLP) -> int:
    return 50 * (lp.n + lp.m + 10)


def solve(lp: StandardFormLP, *, max_iter: int | None = None) -> LPSolution:
    """Two-phase simplex with Bland's rule.

    Returns an Optimal solution with vertex x, canonical basis and reduced
    costs, or status Infeasible / Unbounded.  Raises RankDeficientError
    when A has dependent rows and NumericalFailureError when pivoting
    breaks down.
    """
    if max_iter is None:
        max_iter = _max_iter(lp)
    status, basis_arr, iters = _kernels.simplex(
        lp.c, lp.A, lp.b, TOL_FEAS, TOL_OPT, PIVOT_EPS, max_iter
    )
    if status == _kernels.RANK_DEFICIENT:
        raise RankDeficientError("constraint matrix has dependent rows")
    if status == _kernels.NUMERICAL:
        raise NumericalFailureError("simplex failed to make progress")
    if status == _kernels.INFEASIBLE:
        # Distinguish genuinely empty feasible sets from inconsistencies
        # caused by dependent rows, which the contract reports separately.
        if np.linalg.matrix_rank(lp.A) < lp.m:
            raise RankDeficientError("constraint matrix has dependent rows")
        return LPSolution(LPStatus.INFEASIBLE, math.nan, iterations=iters)
    if status == _kernels.UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, -math.inf, iterations=iters)
    sig = BasisSignature(tuple(int(j) for j in basis_arr))
    ok, x, rc, obj = _kernels.basis_eval(
        lp.c, lp.A, lp.b, sig.as_array(), PIVOT_EPS, lp._factors
    )
    if not ok:
        raise NumericalFailureError("terminal basis factorisation broke down")
    return LPSolution(LPStatus.OPTIMAL, float(obj), x, sig, rc, iterations=iters)


def solve_with_basis(lp: StandardFormLP, basis: BasisSignature) -> LPSolution:
    """Evaluate a fixed basis: x_B = B^-1 b, x_N = 0, objective = c_B.x_B.

    Status is Optimal iff x_B >= -TOL_FEAS and all reduced costs are
    >= -TOL_OPT; otherwise the diagnostic BasisInfeasible or
    BasisSuboptimal variant is returned (solution values included either
    way).  Raises SingularBasisError when B cannot be factorised.
    """
    idx = _check_basis(lp, basis)
    ok, x, rc, obj = _kernels.basis_eval(
        lp.c, lp.A, lp.b, idx, PIVOT_EPS, lp._factors
    )
    if not ok:
        raise SingularBasisError(f"basis {basis.indices} is singular")
    if x[idx].min(initial=math.inf) < -TOL_FEAS:
        status = LPStatus.BASIS_INFEASIBLE
    elif rc.min(initial=math.inf) < -TOL_OPT:
        status = LPStatus.BASIS_SUBOPTIMAL
    else:
        status = LPStatus.OPTIMAL
    return LPSolution(status, float(obj), x, basis, rc)


def reduced_costs(lp: StandardFormLP, basis: BasisSignature) -> np.ndarray:
    """Reduced-cost vector c - A^T (B^-T c_B); exactly zero at basic indices."""
    idx = _check_basis(lp, basis)
    ok, _x, rc, _obj = _kernels.basis_eval(
        lp.c, lp.A, lp.b, idx, PIVOT_EPS, lp._factors
    )
    if not ok:
        raise SingularBasisError(f"basis {basis.indices} is singular")
    return rc
