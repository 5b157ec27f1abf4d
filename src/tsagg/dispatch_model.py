"""Single-bus economic dispatch built on per-period standard-form LPs.

Each period h is the LP

    min sum_g C_g p_{g,h}
    s.t. sum_g p_{g,h} = D_h
         Pmin_g <= p_{g,h} <= capacity_g * CF_{g,h}

encoded in equality form over shifted variables x_g = p_g - Pmin_g with one
slack per upper bound.  The costs and constraint matrix depend only on the
generator fleet, so every hour of a system shares bitwise-identical (c, A)
and differs in the right-hand side alone; that is what lets one optimal
basis be reused across periods.  The hourly right-hand sides are the rows
of one (H, m) matrix per system, built with the IEEE operations of the
per-period formula and rebuilt when the fleet or a series is replaced
(``_rhs_matrix``), so an hour's RHS costs a row copy.

Unserved demand is modelled by an explicit high-cost generator (name
``NSE``) with a capacity sentinel comfortably above peak demand.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat

import numpy as np

from .lp_core import BasisSignature, LPSolution, LPStatus, StandardFormLP, solve

NSE_NAME = "NSE"
DEFAULT_NSE_COST = 1000.0


class DispatchError(Exception):
    """Base class for dispatch model errors."""


class DuplicateNSEError(DispatchError):
    """System already contains a non-supplied-energy generator."""


class CostNotDominantError(DispatchError):
    """NSE cost must strictly exceed every other variable cost."""


class MissingCFError(DispatchError):
    """A variable generator has no capacity-factor value for a period."""


class InfeasiblePeriodError(DispatchError):
    """A per-period LP failed to solve to optimality."""

    def __init__(self, index: int, status: LPStatus):
        self.index = index
        self.status = status
        super().__init__(f"period {index} is {status.value}")


@dataclass(frozen=True)
class Generator:
    """One dispatchable unit; thermal units have an implicit CF of 1."""

    name: str
    variable_cost: float
    capacity: float
    p_min: float = 0.0
    is_variable: bool = False
    cf_series_id: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("generator needs a name")
        if not np.isfinite(self.variable_cost):
            raise ValueError(f"{self.name}: non-finite cost")
        if not (np.isfinite(self.capacity) and self.capacity > 0.0):
            raise ValueError(f"{self.name}: capacity must be positive and finite")
        if not (0.0 <= self.p_min <= self.capacity):
            raise ValueError(f"{self.name}: p_min outside [0, capacity]")
        if self.is_variable and not self.cf_series_id:
            raise ValueError(f"{self.name}: variable generator needs cf_series_id")
        if not self.is_variable and self.cf_series_id:
            raise ValueError(f"{self.name}: cf_series_id given for a thermal unit")


@dataclass(eq=False)
class SystemData:
    """Generator fleet plus demand and capacity-factor series."""

    generators: tuple[Generator, ...]
    demand: np.ndarray
    capacity_factors: dict[str, np.ndarray] = field(default_factory=dict)
    # (generators, floor total, thermal headroom, variable units, family
    # LP), see ``_rhs_parts``.
    _rhs_parts: tuple | None = field(default=None, init=False, repr=False)
    # (generators, demand, (series id, cf array) pairs, RHS matrix), see
    # ``_rhs_matrix``.
    _rhs_rows: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.generators = tuple(self.generators)
        if not self.generators:
            raise ValueError("system needs at least one generator")
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        demand = np.array(self.demand, dtype=np.float64, copy=True)
        if demand.ndim != 1 or demand.size == 0:
            raise ValueError("demand must be a non-empty 1-d series")
        if not np.isfinite(demand).all() or demand.min() < 0.0:
            raise ValueError("demand must be finite and non-negative")
        demand.setflags(write=False)
        self.demand = demand
        cfs = {}
        for key, series in self.capacity_factors.items():
            arr = np.array(series, dtype=np.float64, copy=True)
            if arr.shape != demand.shape:
                raise ValueError(
                    f"cf series {key!r} has length {arr.size}, demand {demand.size}"
                )
            if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
                raise ValueError(f"cf series {key!r} must lie in [0, 1]")
            arr.setflags(write=False)
            cfs[key] = arr
        self.capacity_factors = cfs
        for g in self.generators:
            if g.is_variable and g.cf_series_id not in cfs:
                raise ValueError(f"{g.name}: missing cf series {g.cf_series_id!r}")

    @property
    def horizon(self) -> int:
        return int(self.demand.size)

    @property
    def size(self) -> int:
        return len(self.generators)

    def variable_generators(self) -> tuple[Generator, ...]:
        return tuple(g for g in self.generators if g.is_variable)

    def nse_generator(self) -> Generator | None:
        for g in self.generators:
            if g.name == NSE_NAME:
                return g
        return None


@dataclass(frozen=True)
class Representative:
    """One aggregated period: average inputs plus the hours it stands for."""

    demand: float
    cf: dict[str, float]
    weight: float

    def __post_init__(self):
        if not (np.isfinite(self.demand) and self.demand >= 0.0):
            raise ValueError("representative demand must be finite and >= 0")
        if not (np.isfinite(self.weight) and self.weight > 0.0):
            raise ValueError("representative weight must be positive")
        for key, v in self.cf.items():
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"representative cf {key!r}={v} outside [0, 1]")


class DispatchKind(Enum):
    FULL = "full"
    AGGREGATED = "aggregated"


@dataclass(eq=False)
class PeriodResult:
    weight: float
    solution: LPSolution
    production: np.ndarray  # physical MW per generator, p = x + p_min


@dataclass
class DispatchSolution:
    kind: DispatchKind
    periods: list[PeriodResult]
    total_cost: float

    def bases(self) -> list[BasisSignature]:
        return [p.solution.basis for p in self.periods]

    def basis_groups(self) -> tuple[np.ndarray, tuple[BasisSignature, ...]]:
        """(each period's basis id, the distinct bases), ids in first-period order."""
        ids: dict[BasisSignature, int] = {}
        group = np.fromiter(
            (ids.setdefault(p.solution.basis, len(ids)) for p in self.periods),
            dtype=np.int64, count=len(self.periods),
        )
        return group, tuple(ids)


def add_nse_generator(
    system: SystemData,
    cost: float = DEFAULT_NSE_COST,
    sentinel_capacity: float | None = None,
) -> SystemData:
    """Return a new system with a fictitious high-cost NSE unit appended.

    The sentinel capacity defaults to 10x peak demand so the unit can
    always close the balance without ever binding.  The cost must strictly
    dominate every existing variable cost, otherwise cheap load shedding
    would corrupt the merit order.
    """
    if system.nse_generator() is not None:
        raise DuplicateNSEError("system already has an NSE generator")
    worst = max(g.variable_cost for g in system.generators)
    if cost <= worst:
        raise CostNotDominantError(
            f"NSE cost {cost} must exceed the costliest generator ({worst})"
        )
    peak = float(system.demand.max())
    if sentinel_capacity is None:
        sentinel_capacity = 10.0 * max(peak, 1.0)
    if sentinel_capacity < peak:
        raise ValueError(
            f"sentinel capacity {sentinel_capacity} below peak demand {peak}"
        )
    nse = Generator(NSE_NAME, float(cost), float(sentinel_capacity))
    return SystemData(
        system.generators + (nse,), system.demand, dict(system.capacity_factors)
    )


# ---------------------------------------------------------------------------
# LP construction
# ---------------------------------------------------------------------------

def _template(system: SystemData) -> tuple[np.ndarray, np.ndarray]:
    """Hour-independent (c, A): columns are G productions then G slacks."""
    G = system.size
    n = 2 * G
    m = G + 1
    c = np.zeros(n)
    A = np.zeros((m, n))
    for g, gen in enumerate(system.generators):
        c[g] = gen.variable_cost
        A[0, g] = 1.0
        A[1 + g, g] = 1.0
        A[1 + g, G + g] = 1.0
    return c, A


def _pmin_vector(system: SystemData) -> np.ndarray:
    return np.array([g.p_min for g in system.generators])


def cost_offset(system: SystemData) -> float:
    """Per-hour cost of must-run floors, sum_g C_g * Pmin_g."""
    return float(sum(g.variable_cost * g.p_min for g in system.generators))


def _rhs_parts(system: SystemData) -> tuple:
    """What every period of ``system`` shares, kept on the system.

    (generators, floor total, thermal headroom, variable units, family LP):
    the floor total and the thermal headroom do not depend on the period,
    and the family LP is the first LP ``_solve_periods`` built (None before
    that), whose ``with_rhs`` cache every later solve shares.  All of it is
    rebuilt when ``system.generators`` is replaced.
    """
    parts = system._rhs_parts
    if parts is None or parts[0] is not system.generators:
        fixed = np.empty(system.size + 1)
        variable = []
        for g, gen in enumerate(system.generators):
            if gen.is_variable:
                variable.append((1 + g, gen.cf_series_id, gen.capacity, gen.p_min))
            else:
                fixed[1 + g] = gen.capacity - gen.p_min
        parts = (system.generators, _pmin_vector(system).sum(), fixed, variable, None)
        system._rhs_parts = parts
    return parts


def _period_rhs(system: SystemData, demand: float, cf_of) -> np.ndarray:
    """RHS for one period: net demand then per-generator headroom.

    ``cf_of(series_id)`` is a variable unit's capacity factor in the period.
    """
    _, floor_total, fixed, variable, _ = _rhs_parts(system)
    b = fixed.copy()
    b[0] = demand - floor_total
    for i, key, capacity, p_min in variable:
        b[i] = capacity * cf_of(key) - p_min
    return b


def _rhs_matrix(system: SystemData) -> np.ndarray:
    """Every hour's RHS as the rows of one (H, m) array, kept on the system.

    Column 0 is ``demand - floor total`` and a variable unit's column
    ``capacity * cf - p_min``, elementwise: the IEEE operations of
    ``_period_rhs``, so row h is bitwise that hour's RHS.  ``SystemData``
    is mutable, so the matrix is keyed by the identity of the generators,
    the demand array and each variable unit's cf array, and rebuilt when
    any of them is replaced.  The system stores these arrays read-only; a
    writable one assigned later and then written in place goes unnoticed.
    """
    cached = system._rhs_rows
    cfs = system.capacity_factors
    if cached is not None and cached[0] is system.generators and cached[1] is system.demand:
        for key, series in cached[2]:
            if cfs[key] is not series:
                break
        else:
            return cached[3]
    _, floor_total, fixed, variable, _ = _rhs_parts(system)
    demand = system.demand
    matrix = np.empty((demand.size, fixed.size))
    matrix[:] = fixed
    matrix[:, 0] = demand - floor_total
    used = []
    for i, key, capacity, p_min in variable:
        series = cfs[key]
        matrix[:, i] = capacity * series - p_min
        used.append((key, series))
    system._rhs_rows = (system.generators, demand, used, matrix)
    return matrix


def hourly_rhs(system: SystemData, h: int) -> np.ndarray:
    """RHS for hour h: net demand then per-generator headroom (a fresh
    copy of row h of ``_rhs_matrix``)."""
    matrix = _rhs_matrix(system)
    if not 0 <= h < len(matrix):
        raise IndexError(f"hour {h} outside horizon {system.horizon}")
    return matrix[h].copy()


def build_hourly_lp(system: SystemData, h: int) -> StandardFormLP:
    """Standard-form LP for hour h; (c, A) identical across hours."""
    c, A = _template(system)
    return StandardFormLP(c, A, hourly_rhs(system, h))


def _rep_rhs(system: SystemData, rep: Representative) -> np.ndarray:
    def cf_of(key: str) -> float:
        if key not in rep.cf:
            raise MissingCFError(f"representative lacks cf for series {key!r}")
        return rep.cf[key]

    return _period_rhs(system, rep.demand, cf_of)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def _solve_periods(
    system: SystemData, kind: DispatchKind, rhss: Iterable[np.ndarray],
    weights: Sequence[float],
) -> DispatchSolution:
    """Solve one LP per RHS, in order, in the system's family.

    Every solve of one system, full or aggregated, is a ``with_rhs`` LP of
    one family (see ``_rhs_parts``), so a later solve reuses the bases,
    factors and cones that earlier ones found.  Only the pivot counts
    depend on what was solved before, not bases or values.  ``weights``
    has one entry per RHS; the total weights each period's cost by its
    weight, summed in period order.  Raises InfeasiblePeriodError with the
    position of the first period that is not optimal.
    """
    pmin = _pmin_vector(system)
    offset = cost_offset(system)
    base = _rhs_parts(system)[4]
    optimal = LPStatus.OPTIMAL
    solved = []
    for rhs in rhss:
        if base is None:
            lp = base = StandardFormLP(*_template(system), rhs)
            system._rhs_parts = system._rhs_parts[:4] + (base,)
        else:
            lp = base.with_rhs(rhs)
        sol = solve(lp)
        if sol.status is not optimal:
            raise InfeasiblePeriodError(len(solved), sol.status)
        solved.append(sol)
    # One (P, G) sum in place of P small ones; each row is a period's view.
    production = np.array([sol.x for sol in solved])[:, : pmin.size] + pmin
    results = list(map(PeriodResult, weights, solved, production))
    total = float(sum(w * (sol.objective + offset) for w, sol in zip(weights, solved)))
    return DispatchSolution(kind, results, total)


def solve_full(system: SystemData) -> DispatchSolution:
    """Solve every hourly LP in hour order.

    Raises InfeasiblePeriodError with the offending hour index if any
    period fails.
    """
    H = system.horizon
    hours = map(hourly_rhs, repeat(system, H), range(H))
    return _solve_periods(system, DispatchKind.FULL, hours, [1.0] * H)


def solve_aggregated(
    system: SystemData, reps: Sequence[Representative]
) -> DispatchSolution:
    """Solve each representative LP; total cost weights each by its hours."""
    if not reps:
        raise ValueError("no representatives to solve")
    periods = (_rep_rhs(system, rep) for rep in reps)
    weights = [rep.weight for rep in reps]
    return _solve_periods(system, DispatchKind.AGGREGATED, periods, weights)


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

def regime_label(system: SystemData, basis: BasisSignature) -> str:
    """Name the regime of an optimal basis by its marginal generator.

    In a non-degenerate optimum exactly one generator sits strictly between
    its bounds, which is the one whose production column and slack column
    are both basic.  The NSE unit maps to the plain label "NSE".

    A degenerate hour, whose demand sits exactly on a merit-order boundary
    so that some basic variable is zero, is labelled the same way: every
    nonsingular basis of this LP has exactly one unit with both columns
    basic, here one of the units that meet at the boundary (the one
    Bland's rule leaves basic), which may sit at a bound.  Only a basis
    without such a unique unit gets "degenerate <indices>".
    """
    G = system.size
    basic = set(basis.indices)
    interior = [g for g in range(G) if g in basic and G + g in basic]
    if len(interior) == 1:
        gen = system.generators[interior[0]]
        return NSE_NAME if gen.name == NSE_NAME else f"{gen.name} marginal"
    return "degenerate " + str(basis.indices)


def regime_counts(system: SystemData, dispatch: DispatchSolution) -> dict[str, int]:
    """Hours per regime label, in order of each label's first hour."""
    # Bases are counted first, in first-hour order, so each is labelled once.
    ids, bases = dispatch.basis_groups()
    counts: dict[str, int] = {}
    for basis, hours in zip(bases, np.bincount(ids).tolist()):
        label = regime_label(system, basis)
        counts[label] = counts.get(label, 0) + hours
    return counts
