"""The per-basis factor cache of ``with_rhs`` LPs against the uncached kernel.

LPs made with ``StandardFormLP.with_rhs`` share one factor per distinct
basis.  Every value read through that cache must be bitwise what
``oracles.basis_eval_reference`` computes from the LP's own arrays: raw
float64 bytes, so values and signs of zero both count.
"""

import numpy as np
import pytest

from oracles import basis_eval_reference
from systems import SOLVER_SYSTEMS, degenerate_system, fleet_system
from tsagg import _kernels, evaluation, lp_core
from tsagg.data_io import default_spec, generate_synthetic
from tsagg.dispatch_model import (
    SystemData,
    _rhs,
    _template,
    hourly_rhs,
    solve_aggregated,
    solve_full,
)
from tsagg.lp_core import PIVOT_EPS, LPStatus, StandardFormLP, solve
from tsagg.tsa_clustering import (
    basis_cluster,
    kmeans,
    normalize_features,
    to_representatives,
)
from tsbench.instances import build_fleet


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def _rows(dispatch):
    """Each period's (basis, x, reduced costs, objective), from the columns."""
    for j, x, obj in zip(dispatch.basis_ids.tolist(), dispatch.x, dispatch.objective.tolist()):
        yield dispatch.distinct_bases[j], x, dispatch.reduced_costs[j], obj


def _assert_reference(lp, where, basis, x, reduced_costs, objective):
    idx = np.array(basis.indices)
    ok, ref_x, rc, obj = basis_eval_reference(lp.c, lp.A, lp.b, idx, PIVOT_EPS)
    assert ok, where
    assert _bits(x) == _bits(ref_x), where
    assert _bits(reduced_costs) == _bits(rc), where
    assert _bits(objective) == _bits(obj), where


SYSTEMS = {
    "default_year": lambda: generate_synthetic(default_spec()),
    "fleet": lambda: fleet_system(np.random.default_rng(4)),
    "degenerate": degenerate_system,
}


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def solved(request):
    system = SYSTEMS[request.param]()
    return system, solve_full(system)


def test_solve_full_hours_match_uncached_reference(solved):
    system, full = solved
    c, A = _template(system)
    assert len(full.objective) == system.horizon
    for h, row in enumerate(_rows(full)):
        lp = StandardFormLP(c, A, hourly_rhs(system, h))
        _assert_reference(lp, h, *row)


def test_representatives_match_uncached_reference(solved):
    system, full = solved
    features = normalize_features(system)
    bmodel = basis_cluster(system, features=features, full=full)
    for model in (bmodel, kmeans(features, bmodel.k, seed=0)):
        reps = to_representatives(model)
        periods = _rows(solve_aggregated(system, reps))
        c, A = _template(system)
        rhss = _rhs(system, [rep.demand for rep in reps],
                    {key: [rep.cf[key] for rep in reps] for key in system.capacity_factors})
        for r, (rhs, row) in enumerate(zip(rhss, periods, strict=True)):
            lp = StandardFormLP(c, A, rhs)
            _assert_reference(lp, r, *row)


def _period_bases(dispatch):
    return [dispatch.distinct_bases[j] for j in dispatch.basis_ids.tolist()]


def _fresh(system):
    """The same data in a new SystemData, which shares no solver state."""
    return SystemData(system.generators, system.demand, dict(system.capacity_factors))


def test_each_distinct_basis_is_factorised_once(solved, monkeypatch):
    """Once per system: a later solve of the same system factorises nothing."""
    system, full = solved
    system = _fresh(system)
    calls = []
    factor = _kernels._basis_factor

    def counted(c, A, basis):
        calls.append(tuple(basis.tolist()))
        return factor(c, A, basis)

    monkeypatch.setattr(_kernels, "_basis_factor", counted)
    again = solve_full(system)
    assert _period_bases(again) == _period_bases(full)
    assert sorted(calls) == sorted(b.indices for b in full.distinct_bases)
    calls.clear()
    assert _period_bases(solve_full(system)) == _period_bases(full)
    assert calls == []


def test_each_kernel_basis_gets_one_signature(solved, monkeypatch):
    """One signature per distinct basis, kept on the basis's record: every
    hour of the full solve, and every representative solved after it, that
    ends in a basis gets that very object, whether a tableau or a batch
    cone test took it."""
    system, full = solved
    system = _fresh(system)
    built, records = [], []
    signature, simplex = lp_core.BasisSignature, _kernels.simplex
    cone_columns = _kernels.cone_columns

    def counted_signature(indices):
        built.append(tuple(indices))
        return signature(indices)

    def recorded_simplex(*args):
        result = simplex(*args)
        assert result[0] == _kernels.OPTIMAL
        records.append(result[3][0])
        return result

    def recorded_cone_columns(*args):
        result = cone_columns(*args)
        if result[1].any():
            records.append(result[0])
        return result

    monkeypatch.setattr(lp_core, "BasisSignature", counted_signature)
    monkeypatch.setattr(_kernels, "simplex", recorded_simplex)
    monkeypatch.setattr(_kernels, "cone_columns", recorded_cone_columns)
    again = solve_full(system)
    assert _period_bases(again) == _period_bases(full)
    features = normalize_features(system)
    bmodel = basis_cluster(system, features=features, full=again)
    bases = _period_bases(again)
    for model in (bmodel, kmeans(features, bmodel.k, seed=0)):
        reps = to_representatives(model)
        bases += _period_bases(solve_aggregated(system, reps))
    first = {}
    for basis in bases:
        assert first.setdefault(basis.indices, basis) is basis
    assert sorted(built) == sorted(first)
    # each record keeps its basis's signature and a read-only index array
    assert {record.cols for record in records} == set(first)
    for record in records:
        assert record.tag is first[tuple(record.idx.tolist())]
        assert not record.idx.flags.writeable
        with pytest.raises(ValueError):
            record.idx[0] = 0


def _dispatch_bits(dispatch):
    periods = [
        (basis.indices, _bits(x), _bits(rc), _bits(obj))
        for basis, x, rc, obj in _rows(dispatch)
    ]
    return periods, _bits(dispatch.total_cost)


@pytest.mark.parametrize("name", sorted(SOLVER_SYSTEMS))
def test_solves_of_one_system_do_not_depend_on_its_earlier_solves(name):
    """Aggregated solves run in the full solve's family and test its bases
    first: bitwise what a fresh system gives, for k-means and basis
    representatives, and a full solve after them is unchanged too."""
    system = SOLVER_SYSTEMS[name]()
    full = solve_full(system)
    features = normalize_features(system)
    bmodel = basis_cluster(system, features=features, full=full)
    untableaued = [0, 0]  # periods solved in 0 pivots: shared, fresh
    for model in (bmodel, kmeans(features, bmodel.k, seed=0)):
        reps = to_representatives(model)
        shared = solve_aggregated(system, reps)
        fresh = _fresh(system)
        alone = solve_aggregated(fresh, reps)
        assert _dispatch_bits(shared) == _dispatch_bits(alone)
        assert _dispatch_bits(solve_full(fresh)) == _dispatch_bits(full)
        for i, dispatch in enumerate((shared, alone)):
            untableaued[i] += int((dispatch.iterations == 0).sum())
    assert untableaued[0] > untableaued[1]  # the full solve's bases took some


@pytest.mark.parametrize("name", ["default_year", *[f"build_fleet{s}" for s in range(3)]])
def test_compare_solves_its_representatives_with_no_tableau(name, monkeypatch):
    """Every representative of both models lies in the cone of a basis the
    full solve found, so ``compare``'s aggregated solves take each in a
    batch cone test and run no tableau (1 to 6 per solve when they did not
    test the full solve's bases first)."""
    if name == "default_year":
        system = generate_synthetic(default_spec())
    else:
        system = build_fleet(int(name.removeprefix("build_fleet")))
    tableau, inside, aggregated = [], [], []
    two_phase, solve = _kernels._two_phase, evaluation.solve_aggregated

    def counted_two_phase(*args):
        tableau.append(bool(inside))
        return two_phase(*args)

    def marked_solve(*args):
        inside.append(None)
        try:
            aggregated.append(solve(*args))
        finally:
            inside.pop()
        return aggregated[-1]

    monkeypatch.setattr(_kernels, "_two_phase", counted_two_phase)
    monkeypatch.setattr(evaluation, "solve_aggregated", marked_solve)
    result = evaluation.compare_methods_detailed(system)
    assert len(aggregated) == 2
    assert all((dispatch.iterations == 0).all() for dispatch in aggregated)
    assert tableau.count(False) >= len(result.full.distinct_bases)
    assert True not in tableau


def test_mutating_one_hour_leaves_the_others_bitwise_unchanged(solved):
    system, full = solved
    c, A = _template(system)
    base = StandardFormLP(c, A, hourly_rhs(system, 0))
    lps = [base] + [base.with_rhs(hourly_rhs(system, h)) for h in range(1, system.horizon)]

    def snapshot(sol):
        return sol.basis.indices, _bits(sol.x), _bits(sol.reduced_costs), _bits(sol.objective)

    sols = [solve(lp) for lp in lps]
    before = [snapshot(sol) for sol in sols]
    assert before == _dispatch_bits(full)[0]
    # the first hour of each distinct basis is the one mutated
    victims = {}
    for h, sol in enumerate(sols):
        victims.setdefault(sol.basis.indices, h)
    for h in victims.values():
        sol = sols[h]
        sol.x[:] = np.nan
        sol.reduced_costs[:] = np.nan
    untouched = set(range(len(sols))) - set(victims.values())
    assert all(snapshot(sols[h]) == before[h] for h in untouched)
    # nor does it reach the shared cache: the family solves every hour again
    assert [snapshot(solve(lp)) for lp in lps] == before


def test_theorem_trial_evaluations_match_uncached_reference(monkeypatch):
    seen = {"solve": [], "solve_with_basis": []}
    for name in seen:
        original = getattr(evaluation, name)

        def recorded(lp, *args, _name=name, _original=original):
            sol = _original(lp, *args)
            seen[_name].append((lp, sol))
            return sol

        monkeypatch.setattr(evaluation, name, recorded)
    result = evaluation.run_theorem_trials(200, seed=5)
    assert result.trials == 200
    assert len(seen["solve_with_basis"]) >= 3 * 200
    for i, (lp, sol) in enumerate(seen["solve_with_basis"]):
        _assert_reference(lp, i, sol.basis, sol.x, sol.reduced_costs, sol.objective)
    optimal = [(lp, s) for lp, s in seen["solve"] if s.status is LPStatus.OPTIMAL]
    assert len(optimal) >= 2 * 200
    for i, (lp, sol) in enumerate(optimal):
        _assert_reference(lp, i, sol.basis, sol.x, sol.reduced_costs, sol.objective)


# --- solve_with_basis against its earlier formulas ----------------------------

def _assert_earlier_formulas(lp, basis, where):
    """``solve_with_basis`` against the formulas it used before the cached
    minimum: values from the reference kernel, the status from ``np.min``
    over x[idx] and over the whole reduced-cost array."""
    sol = lp_core.solve_with_basis(lp, basis)
    idx = np.array(basis.indices)
    ok, x, rc, obj = basis_eval_reference(lp.c, lp.A, lp.b, idx, PIVOT_EPS)
    assert ok, where
    if x[idx].min(initial=np.inf) < -lp_core.TOL_FEAS:
        status = LPStatus.BASIS_INFEASIBLE
    elif rc.min(initial=np.inf) < -lp_core.TOL_OPT:
        status = LPStatus.BASIS_SUBOPTIMAL
    else:
        status = LPStatus.OPTIMAL
    assert sol.status is status, where
    assert type(sol.objective) is float, where
    assert _bits(sol.objective) == _bits(float(obj)), where
    assert _bits(sol.x) == _bits(x), where
    assert _bits(sol.reduced_costs) == _bits(rc), where
    assert sol.x.flags.writeable and sol.reduced_costs.flags.writeable, where
    return status


def test_solve_with_basis_matches_earlier_formulas_on_theorem_trials(monkeypatch):
    seen = []
    original = evaluation.solve_with_basis

    def recorded(lp, basis):
        seen.append((lp, basis))
        return original(lp, basis)

    monkeypatch.setattr(evaluation, "solve_with_basis", recorded)
    evaluation.run_theorem_trials(200, seed=11)
    assert len(seen) >= 3 * 200
    for i, (lp, basis) in enumerate(seen):
        _assert_earlier_formulas(lp, basis, i)


@pytest.mark.parametrize("name", sorted(SOLVER_SYSTEMS))
def test_solve_with_basis_matches_earlier_formulas_on_system_hours(name):
    """Each hour under its own basis, then under every distinct basis of
    its system (infeasible or suboptimal there, mostly), every 7th hour."""
    system = SOLVER_SYSTEMS[name]()
    full = solve_full(system)
    base = StandardFormLP(*_template(system), hourly_rhs(system, 0))
    statuses = set()
    for h, basis in enumerate(full.bases()):
        lp = base.with_rhs(hourly_rhs(system, h))
        statuses.add(_assert_earlier_formulas(lp, basis, (h, basis)))
        if h % 7 == 0:
            for other in full.distinct_bases:
                statuses.add(_assert_earlier_formulas(lp, other, (h, other)))
    assert LPStatus.OPTIMAL in statuses
    if len(full.distinct_bases) > 1:
        assert len(statuses) > 1


@pytest.mark.parametrize("c, A, b, basis, status", [
    # x_B = (-1): infeasible
    ([1.0, 2.0], [[1.0, 1.0]], [-1.0], (0,), LPStatus.BASIS_INFEASIBLE),
    # x1 is cheaper: suboptimal
    ([2.0, 1.0], [[1.0, 1.0]], [1.0], (0,), LPStatus.BASIS_SUBOPTIMAL),
    # m = n: no nonbasic reduced cost, where np.min saw only the zeros
    ([1.0, -3.0], [[2.0, 1.0], [1.0, 3.0]], [3.0, 4.0], (0, 1), LPStatus.OPTIMAL),
    # y overflows: reduced costs -inf, then NaN (inf * 0); np.min gives NaN,
    # and the objective 1e308 * 1e-290 stays finite
    ([1e308, 1.0, 1.0], [[1e-10, 1.0, 0.0]], [1e-300], (0,), LPStatus.OPTIMAL),
    # -0.0 in b, c and A: zero entries of either sign in x_B and rc
    ([-0.0, 0.0, -0.0, 1.0], [[1.0, -0.0, 0.0, 1.0], [-0.0, 1.0, 1.0, -0.0]],
     [-0.0, -0.0], (0, 1), LPStatus.OPTIMAL),
], ids=["infeasible", "suboptimal", "m_equals_n", "nan_in_rc", "signed_zeros"])
def test_solve_with_basis_matches_earlier_formulas_on_crafted_cases(c, A, b, basis, status):
    lp = StandardFormLP(c, A, b)
    basis = lp_core.BasisSignature(basis)
    with np.errstate(over="ignore", invalid="ignore"):  # the reference's overflows
        for _ in range(2):  # the record's first use, then the kept one
            assert _assert_earlier_formulas(lp, basis, basis) is status
