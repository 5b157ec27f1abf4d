"""Standard-form LP types, a deterministic two-phase simplex, and the freezing helpers.

Problems are minimisations ``min c.x  s.t.  A x = b, x >= 0`` with dense
float64 data and full row rank A.  Bland's smallest-index rule is used for
both the entering and the leaving variable, which makes the solver
anti-cycling and gives every input a single canonical optimal basis:
solving the same bits twice returns the same basic index set.

LPs made with ``StandardFormLP.with_rhs`` share their template's ``c``, ``A``
and one ``_kernels.Family``: a record per basis, keyed by its signature's
``indices`` tuple, of what depends on (c, A, basis) alone, B's factor, the
duals and the reduced costs, so a basis is factorised once for the whole
family and each evaluation then costs one triangular solve against its own
b.  A basis the simplex has ended in twice is taken without pivoting for
any later b whose unique optimum it is (``_kernels.simplex`` tries the last
basis taken, then the one of top dual bound on b, the only other that weak
duality lets pass).  ``solve`` returns the x_B that the simplex hands over
with every optimal basis, so such an hour costs about one triangular solve
in all.  Each basis gets one ``BasisSignature`` per family, kept on its
record, which every solve that ends there shares.  A b that is already a
float64 ndarray, as ``dispatch_model.hourly_rhs`` returns, is copied once
as it is and set read-only; its shape and finiteness are checked as for any
b, with the same errors.  ``TOL_FEAS``, ``TOL_OPT`` and ``PIVOT_EPS`` are
the kernels' one set of tolerances, re-exported; no call takes its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _kernels
from ._kernels import PIVOT_EPS, TOL_FEAS, TOL_OPT  # noqa: F401 (PIVOT_EPS re-exported)


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


_FLOAT64 = np.dtype(np.float64)


def readonly(a, dtype: np.dtype = _FLOAT64, copy: bool = True) -> np.ndarray:
    """``a`` as a read-only ``dtype`` array: a copy, or with ``copy=False``
    ``a`` itself, set read-only, when it already is an ndarray of ``dtype``."""
    if type(a) is np.ndarray and a.dtype == dtype:
        out = a.copy() if copy else a
    else:
        out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


class FrozenDict(dict):
    """A dict that refuses every change after construction: equal to any
    dict of the same items, and hashable when its values are."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} does not support item assignment")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return hash(frozenset(self.items()))


@dataclass(frozen=True, eq=False, init=False)
class StandardFormLP:
    """min c.x subject to A x = b, x >= 0.

    The arrays are read-only copies.  An LP made by ``with_rhs`` shares its
    template's ``c`` and ``A`` arrays and its ``_kernels.Family``; any
    other construction, ``dataclasses.replace`` included, starts afresh.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    # Valid only for this c and A; only ``_kernels`` reads its entries.
    _cache: _kernels.Family = field(init=False, repr=False)

    def __init__(self, c, A, b, _template: StandardFormLP | None = None):
        b = readonly(b)
        if _template is not None and c is _template.c and A is _template.A:
            # with_rhs: c and A are the template's checked read-only arrays,
            # so only what the new b can break is checked.
            family = _template._cache
        else:
            c, A, family = readonly(c), readonly(A), _kernels.Family()
            if A.ndim != 2 or c.ndim != 1:
                raise ValueError("expected A 2-d, c and b 1-d")
            m, n = A.shape
            if m < 1 or n < 1:
                raise ValueError("empty LP")
            if c.shape[0] != n:
                raise ValueError(f"inconsistent shapes: A {A.shape}, c {c.shape}")
            if m > n:
                raise ValueError(f"more rows than columns (m={m} > n={n})")
            if not (np.isfinite(c).all() and np.isfinite(A).all()):
                raise ValueError("LP data must be finite")
        if b.shape != (len(A),):
            if b.ndim != 1:
                raise ValueError("expected A 2-d, c and b 1-d")
            raise ValueError(f"inconsistent shapes: A {A.shape}, b {b.shape}")
        if not all(map(math.isfinite, b.tolist())):
            raise ValueError("LP data must be finite")
        # The instance is frozen: its fields are set through its dict.
        vars(self).update(c=c, A=A, b=b, _cache=family)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def with_rhs(self, b: np.ndarray) -> "StandardFormLP":
        """Same costs and constraint matrix, new right-hand side.

        The new LP shares this one's ``c`` and ``A`` arrays and family, so
        each distinct basis is factorised once across all of them; ``b`` is
        copied and checked as usual.
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
        vars(self)["indices"] = idx  # frozen: set through the dict

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(eq=False, slots=True)
class LPSolution:
    status: LPStatus
    objective: float
    x: np.ndarray | None = None
    basis: BasisSignature | None = None
    reduced_costs: np.ndarray | None = None
    iterations: int = 0


def _check_basis(lp: StandardFormLP, basis: BasisSignature) -> tuple[int, ...]:
    if len(basis) != lp.m:
        raise ValueError(f"basis has {len(basis)} indices, need m={lp.m}")
    if basis.indices and basis.indices[-1] >= lp.n:
        raise ValueError(f"basis index {basis.indices[-1]} out of range for n={lp.n}")
    return basis.indices


def solve(lp: StandardFormLP) -> LPSolution:
    """Two-phase simplex with Bland's rule.

    Returns an Optimal solution with vertex x, canonical basis and reduced
    costs, or status Infeasible / Unbounded.  Raises RankDeficientError
    when A has dependent rows and NumericalFailureError when pivoting
    breaks down or takes more than 50 (n + m + 10) pivots.
    """
    m, n = lp.A.shape
    status, _, iters, hit = _kernels.simplex(lp.c, lp.A, lp.b, 50 * (n + m + 10), lp._cache)
    if status == _kernels.OPTIMAL:
        record, xb = hit
        ok, x, rc, obj = _kernels.evaluate(record, xb)
        if not ok:
            raise NumericalFailureError("terminal basis factorisation broke down")
        if record.tag is None:
            record.tag = BasisSignature(record.cols)
        return LPSolution(LPStatus.OPTIMAL, obj, x, record.tag, rc, iters)
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
    return LPSolution(LPStatus.UNBOUNDED, -math.inf, iterations=iters)


def solve_with_basis(lp: StandardFormLP, basis: BasisSignature) -> LPSolution:
    """Evaluate a fixed basis: x_B = B^-1 b, x_N = 0, objective = c_B.x_B.

    Status is Optimal iff x_B >= -TOL_FEAS and all reduced costs are
    >= -TOL_OPT; otherwise the diagnostic BasisInfeasible or
    BasisSuboptimal variant is returned (solution values included either
    way).  A NaN in x_B or in the reduced costs fails neither test, as in
    ``np.min``.  The smallest reduced cost is the basis's record's, made
    once per family; a call solves x_B and takes its smallest entry.  x
    and the reduced costs are fresh arrays.  Raises SingularBasisError
    when B cannot be factorised.
    """
    ok, x, rc, obj, x_min, rc_min = _kernels.basis_eval(
        lp.c, lp.A, lp.b, _check_basis(lp, basis), lp._cache)
    if not ok:
        raise SingularBasisError(f"basis {basis.indices} is singular")
    if x_min < -TOL_FEAS:
        status = LPStatus.BASIS_INFEASIBLE
    elif rc_min < -TOL_OPT:
        status = LPStatus.BASIS_SUBOPTIMAL
    else:
        status = LPStatus.OPTIMAL
    return LPSolution(status, obj, x, basis, rc)
