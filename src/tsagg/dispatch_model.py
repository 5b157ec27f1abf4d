"""Single-bus economic dispatch built on per-period standard-form LPs.

Each period h is the LP

    min sum_g C_g p_{g,h}
    s.t. sum_g p_{g,h} = D_h
         Pmin_g <= p_{g,h} <= capacity_g * CF_{g,h}

encoded in equality form over shifted variables x_g = p_g - Pmin_g with one
slack per upper bound.  The costs and constraint matrix depend only on the
generator fleet, so every hour of a system shares bitwise-identical (c, A)
and differs in the right-hand side alone; that is what lets one optimal
basis be reused across periods.  A ``SystemData`` is immutable, so what
is derived from it is computed once: the hourly right-hand sides are the
rows of one (H, m) matrix per system, built by ``_rhs`` with the IEEE
operations of the per-period formula, so an hour's RHS costs a row copy;
representatives get theirs from the same builder.

``solve_full`` calls ``lp_core.solve`` once per period.
``solve_by_cones`` and ``solve_aggregated`` first batch-test their
periods against every basis the system's earlier solves found, then solve
an LP per new basis and per period that no cone takes.  Each solve writes
every period's vertex, objective, pivot count and basis id into arrays
sized once per solve: a ``DispatchSolution`` is these columns, with one
row of reduced costs per distinct basis.  ``periods`` and ``bases()`` are
per-period views built from the columns on each call.

Unserved demand is modelled by an explicit high-cost generator (name
``NSE``) with a capacity sentinel comfortably above peak demand.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from . import _kernels
from .lp_core import (
    BasisSignature, FrozenDict, LPSolution, LPStatus, StandardFormLP, readonly, solve)

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


@dataclass(frozen=True, eq=False)
class SystemData:
    """Generator fleet plus demand and capacity-factor series; immutable.

    The constructor checks the fleet and the series together and keeps
    read-only float64 copies of the series, so a later write to the
    caller's arrays never reaches the system.  ``capacity_factors`` (None
    for no series) is stored as a read-only mapping.  A changed system is
    a new one: ``dataclasses.replace`` runs the same checks.  What is
    derived from a system, the hourly RHS matrix and the LP family of its
    solves, is therefore computed once and never invalidated.
    """

    generators: tuple[Generator, ...]
    demand: np.ndarray
    capacity_factors: Mapping[str, np.ndarray] | None = None

    # The first LP any solve of this system built, whose ``with_rhs``
    # family every later solve shares; set once by ``_Periods.add``.
    _family = None

    def __post_init__(self):
        generators = tuple(self.generators)
        if not generators:
            raise ValueError("system needs at least one generator")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        demand = readonly(self.demand)
        if demand.ndim != 1 or demand.size == 0:
            raise ValueError("demand must be a non-empty 1-d series")
        if not np.isfinite(demand).all() or demand.min() < 0.0:
            raise ValueError("demand must be finite and non-negative")
        cfs = {}
        for key, value in (self.capacity_factors or {}).items():
            arr = readonly(value)
            if arr.shape != demand.shape:
                raise ValueError(
                    f"cf series {key!r} has length {arr.size}, demand {demand.size}"
                )
            if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
                raise ValueError(f"cf series {key!r} must lie in [0, 1]")
            cfs[key] = arr
        for g in generators:
            if g.is_variable and g.cf_series_id not in cfs:
                raise ValueError(f"{g.name}: missing cf series {g.cf_series_id!r}")
        # The instance is frozen: its fields are set through its dict.
        vars(self).update(generators=generators, demand=demand,
                          capacity_factors=FrozenDict(cfs))

    @cached_property
    def _hour_rhs(self) -> np.ndarray:
        """Every hour's RHS, the rows of one (H, m) array."""
        return readonly(_rhs(self, self.demand, self.capacity_factors), copy=False)

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
        vars(self)["cf"] = FrozenDict(self.cf)  # frozen; this copy is what is checked
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


@dataclass(frozen=True, eq=False)
class PeriodResult:
    """One period of a ``DispatchSolution``, built on demand by ``periods``."""

    weight: float
    solution: LPSolution
    production: np.ndarray  # physical MW per generator, p = x + p_min


@dataclass(frozen=True, eq=False)
class DispatchSolution:
    """Every period of one solve as columns, rows in solve order.

    For P periods, n LP columns, G generators and K distinct optimal bases:
    ``weights``, ``objective`` (the LP's, without the must-run offset) and
    ``iterations`` (pivots, 0 for a period a cone test took) are (P,);
    ``x`` is (P, n); ``basis_ids`` (P,) indexes
    ``distinct_bases``, the K bases in first-period order; row j of
    ``reduced_costs`` (K, n) belongs to basis j, which every period of that
    basis shares; ``production`` (P, G) is ``x[:, :G] + p_min`` in MW.
    ``total_cost`` weights each period's objective plus offset by its
    weight, summed left to right in period order.
    """

    kind: DispatchKind
    weights: np.ndarray
    x: np.ndarray
    objective: np.ndarray
    iterations: np.ndarray
    basis_ids: np.ndarray
    distinct_bases: tuple[BasisSignature, ...]
    reduced_costs: np.ndarray
    production: np.ndarray
    total_cost: float

    def __post_init__(self):
        # Set read-only in place: a copy of each column would raise peak memory.
        for name in ("weights", "x", "objective", "iterations", "basis_ids",
                     "reduced_costs", "production"):
            getattr(self, name).setflags(write=False)

    # Per-period views in the shape of the former one-object-per-period
    # solution, which tsbench's tests still read.  Built on each call
    # from the columns; nothing of them is kept.

    @property
    def periods(self) -> list[PeriodResult]:
        return [
            PeriodResult(w, LPSolution(LPStatus.OPTIMAL, obj, x, self.distinct_bases[j],
                                       self.reduced_costs[j], it), prod)
            for w, obj, x, j, it, prod in zip(
                self.weights.tolist(), self.objective.tolist(), self.x,
                self.basis_ids.tolist(), self.iterations.tolist(), self.production,
            )
        ]

    def bases(self) -> list[BasisSignature]:
        return [self.distinct_bases[j] for j in self.basis_ids.tolist()]


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
    return replace(system, generators=system.generators + (nse,))


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
    """Per-hour cost of must-run floors, sum_g C_g * Pmin_g, left to right."""
    return ordered_sum(g.variable_cost * g.p_min for g in system.generators)


def ordered_sum(values: Iterable[float]) -> float:
    """Floats added left to right from 0.0.  The builtin ``sum`` does so up
    to Python 3.11 and compensates from 3.12, so a total taken with it
    would depend on the interpreter (D36)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _rhs(system: SystemData, demand, cf) -> np.ndarray:
    """RHS of P periods as the rows of a (P, m) array.

    ``demand`` holds the P demands and ``cf[key]`` the P capacity factors
    of series ``key``.  Column 0 is ``demand - sum(Pmin)``, a thermal
    unit's column ``capacity - Pmin`` and a variable unit's
    ``capacity * cf - Pmin``: elementwise, each value the IEEE operations
    of the per-period formula, so a row is bitwise that period's RHS.
    """
    demand = np.asarray(demand, dtype=np.float64)
    rows = np.empty((demand.size, system.size + 1))
    rows[:, 0] = demand - _pmin_vector(system).sum()
    for i, gen in enumerate(system.generators, start=1):
        if gen.is_variable:
            series = np.asarray(cf[gen.cf_series_id], dtype=np.float64)
            rows[:, i] = gen.capacity * series - gen.p_min
        else:
            rows[:, i] = gen.capacity - gen.p_min
    return rows


def hourly_rhs(system: SystemData, h: int) -> np.ndarray:
    """RHS for hour h: net demand then per-generator headroom (a read-only
    view of row h of the system's RHS matrix)."""
    rows = system._hour_rhs
    if not 0 <= h < len(rows):
        raise IndexError(f"hour {h} outside horizon {system.horizon}")
    return rows[h]


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

class _Periods:
    """Periods of one solve, written into the columns of a
    ``DispatchSolution``; a period that ``add`` does not solve keeps 0
    iterations.

    Every solve of one system, full or aggregated, is a ``with_rhs`` LP of
    the first LP any of them built, so a later solve reuses the records of
    the bases that earlier ones found.  Only ``iterations`` can depend on
    what was solved before, no basis or value.
    """

    def __init__(self, system: SystemData, P: int):
        self.system = system
        self.x = np.zeros((P, 2 * system.size))
        self.objective = np.empty(P)
        self.iterations = np.zeros(P, dtype=np.int64)
        self.basis_ids = np.empty(P, dtype=np.int64)
        self.ids: dict[BasisSignature, int] = {}
        self.reduced_costs = []

    def basis(self, signature: BasisSignature, reduced_costs: np.ndarray) -> int:
        """The id of ``signature``, new with this reduced-cost row if it has none."""
        j = self.ids.setdefault(signature, len(self.ids))
        if j == len(self.reduced_costs):
            self.reduced_costs.append(reduced_costs)
        return j

    def add(self, p: int, rhs: np.ndarray) -> BasisSignature | None:
        """Solve period p with ``lp_core.solve`` and write it; returns its
        basis if that had no id yet.  Raises InfeasiblePeriodError with p
        if not optimal."""
        system = self.system
        lp = system._family
        if lp is None:
            vars(system)["_family"] = lp = StandardFormLP(*_template(system), rhs)
        else:
            lp = lp.with_rhs(rhs)
        sol = solve(lp)
        if sol.status is not LPStatus.OPTIMAL:
            raise InfeasiblePeriodError(p, sol.status)
        self.x[p], self.objective[p], self.iterations[p] = sol.x, sol.objective, sol.iterations
        new = sol.basis not in self.ids
        self.basis_ids[p] = self.basis(sol.basis, sol.reduced_costs)
        return sol.basis if new else None

    def solution(self, kind: DispatchKind, weights: Sequence[float]) -> DispatchSolution:
        """The columns as a ``DispatchSolution``, the bases renumbered in
        first-period order; a basis no period took is left out."""
        ids, first = np.unique(self.basis_ids, return_index=True)
        order = ids[np.argsort(first)]
        renumber = np.empty(len(self.reduced_costs), dtype=np.int64)
        renumber[order] = np.arange(len(order))
        bases = list(self.ids)
        weights = np.array(weights, dtype=np.float64)
        offset = cost_offset(self.system)
        total = ordered_sum(
            w * (obj + offset) for w, obj in zip(weights.tolist(), self.objective.tolist()))
        production = self.x[:, : self.system.size] + _pmin_vector(self.system)
        return DispatchSolution(
            kind, weights, self.x, self.objective, self.iterations, renumber[self.basis_ids],
            tuple(bases[j] for j in order.tolist()),
            np.array([self.reduced_costs[j] for j in order.tolist()]), production, total)


def _solve_rows(system: SystemData, rows: np.ndarray, kind: DispatchKind,
                weights: Sequence[float]) -> DispatchSolution:
    """The periods whose RHS are the rows of the (P, m) ``rows``, solved by
    basis cones.

    ``_kernels.cone_columns`` first tests every period against each basis
    recorded in the system's family, one batched pass per basis, and takes
    those in its cone: the basis is their unique optimum, so Bland's rule
    ends there too, with the same bits.  Then the first period left is
    solved, and if its basis is new, every period left is tested against
    it.  So an LP is solved per new basis and per period no cone takes,
    such as a degenerate one; a taken period has 0 ``iterations``.  Raises
    InfeasiblePeriodError with the first period that is not optimal.
    """
    periods = _Periods(system, len(rows))
    left = np.arange(len(rows))

    def take(cols):
        nonlocal left
        record, taken, xb, obj = _kernels.cone_columns(system._family._cache, cols, rows[left].T)
        p, left = left[taken], left[~taken]
        periods.x[p[:, None], cols], periods.objective[p] = xb.T, obj
        periods.basis_ids[p] = periods.basis(record.tag, record.rc)

    for cols in _kernels.recorded(system._family._cache) if system._family else ():
        take(cols)
    while left.size:
        p, left = int(left[0]), left[1:]
        basis = periods.add(p, rows[p])
        if basis is not None:
            take(basis.indices)
    return periods.solution(kind, weights)


def solve_full(system: SystemData) -> DispatchSolution:
    """Solve every hourly LP in hour order with ``lp_core.solve``: the
    per-hour reference for ``solve_by_cones``.  Raises
    InfeasiblePeriodError with the offending hour index if any period
    fails."""
    periods = _Periods(system, system.horizon)
    for h in range(system.horizon):
        periods.add(h, hourly_rhs(system, h))
    return periods.solution(DispatchKind.FULL, np.ones(system.horizon))


def solve_by_cones(system: SystemData) -> DispatchSolution:
    """``solve_full``'s solution, bitwise but for ``iterations``, from one
    LP solve per basis not yet known to the system (see ``_solve_rows``).
    """
    return _solve_rows(system, system._hour_rhs, DispatchKind.FULL, np.ones(system.horizon))


def solve_aggregated(
    system: SystemData, reps: Sequence[Representative]
) -> DispatchSolution:
    """Solve each representative LP by basis cones (see ``_solve_rows``);
    total cost weights each by its hours.

    Raises MissingCFError, before any LP is built, if a representative
    lacks the capacity factor of a variable unit.
    """
    if not reps:
        raise ValueError("no representatives to solve")
    cf = {}
    for gen in system.variable_generators():
        key = gen.cf_series_id
        if any(key not in rep.cf for rep in reps):
            raise MissingCFError(f"representative lacks cf for series {key!r}")
        cf[key] = [rep.cf[key] for rep in reps]
    rows = _rhs(system, [rep.demand for rep in reps], cf)
    return _solve_rows(system, rows, DispatchKind.AGGREGATED, [rep.weight for rep in reps])


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
        return marginal_label(system.generators[interior[0]])
    return "degenerate " + str(basis.indices)


def marginal_label(gen: Generator) -> str:
    """The regime label of the hours that ``gen`` is marginal in: "NSE" for
    the NSE unit, else "<name> marginal".  Spec ``regime_targets``,
    ``regimes.json`` and report labels all join on it."""
    return NSE_NAME if gen.name == NSE_NAME else f"{gen.name} marginal"


def regime_counts(system: SystemData, dispatch: DispatchSolution) -> dict[str, int]:
    """Hours per regime label, in order of each label's first hour."""
    # Bases are counted first, in first-hour order, so each is labelled once.
    counts: dict[str, int] = {}
    hours_per_basis = np.bincount(dispatch.basis_ids).tolist()
    for basis, hours in zip(dispatch.distinct_bases, hours_per_basis):
        label = regime_label(system, basis)
        counts[label] = counts.get(label, 0) + hours
    return counts
