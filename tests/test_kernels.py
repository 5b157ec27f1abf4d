"""Simplex kernel guards: pinned pivot sequence, the basis-cone test of
registered bases and basis evaluation."""

import hashlib

import numpy as np
import pytest

from oracles import basis_eval_reference, random_lp_data, simplex_reference
from systems import (
    SOLVER_SYSTEMS, degenerate_system, fleet_at_boundaries, fleet_system, near_boundary_system,
    random_system,
)
import tsagg
from tsagg import _kernels, evaluation
from tsagg.data_io import default_spec, generate_synthetic
from tsagg.dispatch_model import _template, hourly_rhs, solve_full
from tsagg.lp_core import PIVOT_EPS, TOL_FEAS, TOL_OPT

# sha256 over (status, iterations, basis) of the 300 LPs below, recorded when
# the numpy kernel was last checked pivot for pivot against an independent
# loop implementation.  A change means some pivot decision changed.
PIVOT_SEQUENCE_SHA256 = "0f3ad9c3c74917d69d2c4521a6641358de23db07757fd2553dcab828bdb8b878"


def test_backend_reports_name():
    assert _kernels.BACKEND == "numpy"


def test_simplex_pivot_sequence_pinned():
    rng = np.random.default_rng(23)
    digest = hashlib.sha256()
    statuses = set()
    for _ in range(300):
        c, A, b = random_lp_data(rng)
        st, basis, it, _ = _kernels.simplex(c, A, b, 2000, _kernels.Family())
        statuses.add(st)
        digest.update(np.array([st, it], dtype="<i8").tobytes())
        digest.update(np.asarray(basis, dtype="<i8").tobytes())
    assert {_kernels.OPTIMAL, _kernels.INFEASIBLE, _kernels.UNBOUNDED} <= statuses
    assert digest.hexdigest() == PIVOT_SEQUENCE_SHA256


def test_basis_eval_matches_numpy_linalg():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 80:
        c, A, b = random_lp_data(rng)
        st, basis, _, _ = _kernels.simplex(c, A, b, 2000, _kernels.Family())
        if st != _kernels.OPTIMAL:
            continue
        checked += 1
        idx = np.sort(basis)
        ok, x, rc, obj, _, _ = _kernels.basis_eval(
            c, A, b, tuple(idx.tolist()), _kernels.Family())
        assert ok
        B = A[:, idx]
        xb = np.linalg.solve(B, b)
        np.testing.assert_allclose(x[idx], xb, rtol=1e-9, atol=1e-9)
        y = np.linalg.solve(B.T, c[idx])
        expected_rc = c - A.T @ y
        expected_rc[idx] = 0.0
        np.testing.assert_allclose(rc, expected_rc, rtol=1e-8, atol=1e-8)
        assert obj == pytest.approx(float(c[idx] @ xb), rel=1e-10, abs=1e-10)


def test_min_is_np_min_up_to_the_sign_of_a_zero():
    rng = np.random.default_rng(8)
    pool = np.array([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf, 1e-9, -1e-9])
    for _ in range(3000):
        n = int(rng.integers(0, 30))
        v = np.where(rng.uniform(size=n) < 0.5, rng.choice(pool, n), rng.normal(size=n))
        got, ref = _kernels._min(v.tolist()), v.min(initial=np.inf)
        assert got == ref or (np.isnan(got) and np.isnan(ref))


def test_lu_factor_flags_singular_matrix():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert not _kernels._lu_factor(M.tolist())
    assert _kernels._lu_factor(np.eye(3).tolist())


def _bits(v):
    """Raw float64 bytes: equal values and equal signs of zero."""
    return np.asarray(v, dtype=np.float64).tobytes()


def _random_basis_case(rng):
    """Random (c, A, b, basis) with m <= 14; a third integer-valued, with
    exact pivot ties, and some with a repeated basic column (singular)."""
    m = int(rng.integers(1, 15))
    n = int(rng.integers(m, m + 11))
    kind = rng.integers(3)
    if kind == 0:
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        c = rng.normal(size=n)
    elif kind == 1:
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(-3, 4, size=m).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
    else:
        A = rng.uniform(-1.0, 1.0, size=(m, n)) * 10.0 ** rng.integers(-4, 5, size=(m, 1))
        b = rng.uniform(-1.0, 1.0, size=m)
        c = rng.uniform(0.0, 1.0, size=n)
    basis = rng.permutation(n)[:m]
    if m > 1 and rng.integers(8) == 0:
        A[:, basis[1]] = A[:, basis[0]]
    return c, A, b, basis


def test_basis_eval_bitwise_equal_to_reference():
    rng = np.random.default_rng(31)
    singular = 0
    for _ in range(2400):
        c, A, b, basis = _random_basis_case(rng)
        ok, x, rc, obj, x_min, rc_min = _kernels.basis_eval(
            c, A, b, tuple(basis.tolist()), _kernels.Family())
        ok_ref, x_ref, rc_ref, obj_ref = basis_eval_reference(c, A, b, basis, PIVOT_EPS)
        assert ok == ok_ref
        assert _bits(x) == _bits(x_ref)
        assert _bits(rc) == _bits(rc_ref)
        assert _bits(obj) == _bits(obj_ref)
        if ok:
            # The minima are np.min's, up to the sign of a zero.
            nonbasic = np.setdiff1d(np.arange(len(c)), basis)
            assert x_min == x_ref[basis].min()
            assert rc_min == rc_ref[nonbasic].min(initial=np.inf)
        singular += not ok
    assert singular >= 100


# B = A[:, basis] needs a row swap at its second LU step, and L and U hold
# exact zeros; with -0.0 in b, leaving out the zero terms of the solve
# would give x = +0.0 in the basic column that B holds third.
SWAPPED_B = np.array([[-2.0, -1.0, 0.0], [0.0, 0.0, -2.0], [-2.0, -2.0, -2.0]])


@pytest.mark.parametrize(
    "b", [[1.0, -0.0, 1.0], [-0.0, 1.0, -0.0], [2.0, -0.0, -0.0]], ids=["mid", "ends", "tail"]
)
def test_basis_eval_keeps_zero_terms_and_row_swaps(b):
    A = np.column_stack([SWAPPED_B[:, 1], [1.0, 0.0, 3.0], SWAPPED_B[:, 2], SWAPPED_B[:, 0]])
    c = np.array([2.0, -1.0, 0.5, 3.0])
    basis = (3, 0, 2)  # B = SWAPPED_B
    b = np.array(b)
    family = _kernels.Family()
    for _ in range(2):  # the record's first use, then the kept one
        ok, x, rc, obj, _, _ = _kernels.basis_eval(c, A, b, basis, family)
        ok_ref, x_ref, rc_ref, obj_ref = basis_eval_reference(c, A, b, np.array(basis), PIVOT_EPS)
        assert ok and ok_ref
        assert _bits(x) == _bits(x_ref)
        assert _bits(rc) == _bits(rc_ref)
        assert _bits(obj) == _bits(obj_ref)
    (record,) = family.values()
    assert record.ops[0]  # the LU permutation is not the identity


def _count_calls(monkeypatch, name):
    """Count the calls of ``_kernels.<name>``: the list returned gets one
    entry per call."""
    calls = []
    original = getattr(_kernels, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(_kernels, name, counted)
    return calls


def _reference(c, A, b, max_iter):
    """The tableau reference at the package's tolerances."""
    return simplex_reference(c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, max_iter)


def _assert_matches_reference(args, family, tableau):
    """Solve ``args`` (c, A, b, max_iter) through ``family`` and against
    the tableau reference.

    ``tableau`` counts ``_two_phase`` calls (see ``_count_calls``).  Where
    the kernel ran it, status, iterations and basis in row order equal the
    reference's.  Otherwise it accepted a registered basis: OPTIMAL in 0
    iterations, with the reference's status and sorted basis.  Returns the
    kernel's result.
    """
    solves = len(tableau)
    st, basis, it, _ = _kernels.simplex(*args, family)
    ref = _reference(*args)
    assert st == ref[0]
    if len(tableau) > solves:
        assert it == ref[2]
        assert np.array_equal(basis, ref[1])
    else:
        assert (st, it) == (_kernels.OPTIMAL, 0)
        assert sorted(basis.tolist()) == sorted(ref[1].tolist())
    return st, basis, it


def _assert_hours_match_reference(system, monkeypatch):
    """Every hour through one family, then through ``solve_full``,
    against the tableau reference; returns the hours the tableau solved."""
    tableau = _count_calls(monkeypatch, "_two_phase")
    c, A = _template(system)
    family = _kernels.Family()
    results = []
    for h in range(system.horizon):
        args = (c, A, hourly_rhs(system, h), 2000)
        _, basis, it = _assert_matches_reference(args, family, tableau)
        results.append((it, tuple(sorted(basis.tolist()))))
    solved = len(tableau)
    # Iterations reach no output file, so no digest would see them move.
    full = solve_full(system)
    bases = [full.distinct_bases[j].indices for j in full.basis_ids.tolist()]
    assert list(zip(full.iterations.tolist(), bases)) == results
    return solved


def test_simplex_matches_reference_on_default_year(monkeypatch):
    # two tableau solves register each of the year's three bases
    assert _assert_hours_match_reference(generate_synthetic(default_spec()), monkeypatch) == 6


def test_simplex_matches_reference_on_degenerate_fleet(monkeypatch):
    system = fleet_system(np.random.default_rng(4))  # 7 exact ratio-test ties
    assert system.size == 13
    cf = system.capacity_factors["wind_a"]
    assert (cf == 0.0).any() and (cf == 1.0).any()
    _assert_hours_match_reference(system, monkeypatch)


def _random_simplex_case(rng):
    """Random (c, A, b, max_iter) with m <= 14 and n <= m + 16, in four kinds:
    normal data, integer data with exact ratio ties, a duplicated row (rank
    deficient) and signed zeros in A and b.  One case in seven has a small
    iteration cap, so the cap ends it with a partial basis."""
    m = int(rng.integers(1, 15))
    n = int(rng.integers(m, m + 17))
    kind = int(rng.integers(4))
    if kind == 1:
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(-3, 4, size=m).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
    else:
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.0, 1.0, n) if rng.integers(2) == 0 else rng.normal(size=m)
        c = rng.uniform(0.0, 1.0, n) if rng.integers(2) == 0 else rng.normal(size=n)
    if kind == 2 and m > 1:
        i, k = rng.choice(m, size=2, replace=False)
        A[k] = A[i]
        b[k] = b[i]
    elif kind == 3:
        zero = np.where(rng.integers(2, size=(m, n + 1)) == 0, 0.0, -0.0)
        mask = rng.random((m, n + 1)) < 0.4
        A[mask[:, :n]] = zero[:, :n][mask[:, :n]]
        b[mask[:, n]] = zero[:, n][mask[:, n]]
    max_iter = int(rng.integers(1, 8)) if rng.integers(7) == 0 else 2000
    return c, A, b, max_iter


def test_simplex_matches_reference_on_random_lps():
    rng = np.random.default_rng(47)
    statuses = set()
    for case in range(3000):
        c, A, b, max_iter = _random_simplex_case(rng)
        st, basis, it, _ = _kernels.simplex(c, A, b, max_iter, _kernels.Family())
        st_ref, basis_ref, it_ref = _reference(c, A, b, max_iter)
        assert (st, it) == (st_ref, it_ref), case
        assert np.array_equal(basis, basis_ref), case
        statuses.add(st)
    assert statuses == {
        _kernels.OPTIMAL,
        _kernels.INFEASIBLE,
        _kernels.UNBOUNDED,
        _kernels.RANK_DEFICIENT,
        _kernels.NUMERICAL,
    }


SMALL_SYSTEMS = {
    "degenerate": degenerate_system,
    **{f"random{s}": lambda s=s: random_system(np.random.default_rng(s), hours=48)
       for s in range(11, 21)},
    **{f"fleet{s}": lambda s=s: fleet_system(np.random.default_rng(s)) for s in range(4)},
}


@pytest.mark.parametrize("name", sorted(SMALL_SYSTEMS))
def test_simplex_matches_reference_on_small_systems(name, monkeypatch):
    _assert_hours_match_reference(SMALL_SYSTEMS[name](), monkeypatch)


@pytest.mark.parametrize("seed", range(4))
def test_solve_full_matches_reference_at_tolerance_distance_from_boundaries(seed, monkeypatch):
    """Demand on, within 1e-12 to 1e-7 MW of and 1-5 ulp from each merit-order
    boundary, after hours that registered cones: where the cone test's
    strict x_B > TOL_FEAS and Bland's ratio test must agree, every hour's
    basis and pivot count is the reference tableau's."""
    system = near_boundary_system(np.random.default_rng(seed))
    assert _assert_hours_match_reference(system, monkeypatch) < system.horizon


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4, 44))
def test_solve_full_matches_reference_next_to_boundaries_of_more_systems(seed, monkeypatch):
    """The check above on 40 more ``near_boundary_system`` draws."""
    system = near_boundary_system(np.random.default_rng(seed))
    assert _assert_hours_match_reference(system, monkeypatch) < system.horizon


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4))
def test_solve_full_matches_reference_on_fleets_moved_to_boundaries(seed, monkeypatch):
    """Every hour of a 336 h ``fleet_system`` at a random merit-order boundary
    of its 13 units plus an offset: every hour's basis and pivot count is
    the reference tableau's."""
    system = fleet_at_boundaries(np.random.default_rng(seed))
    assert system.horizon == 336
    _assert_hours_match_reference(system, monkeypatch)


# --- the basis-cone test --------------------------------------------------------

def _random_family(rng):
    """One (c, A) and 12 calls (b, max_iter) on it.

    Each b is a scaled copy of one of three base vectors, so sign patterns
    and paths repeat, with entries set to zero of either sign.  A may have
    a duplicated row, rank deficient or infeasible by whether the two b
    entries agree; c may be unbounded below.  One call in seven has a
    small cap.
    """
    m = int(rng.integers(1, 9))
    n = int(rng.integers(m, m + 9))
    integer = rng.integers(2) == 0
    if integer:
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        c = rng.integers(-1, 4, size=n).astype(float)
    else:
        A = rng.normal(size=(m, n))
        c = rng.uniform(0.0, 1.0, n) if rng.integers(2) == 0 else rng.normal(size=n)
    dup = m > 1 and rng.integers(3) == 0
    if dup:
        i, k = rng.choice(m, size=2, replace=False)
        A[k] = A[i]
    bases = [
        A @ rng.uniform(0.0, 1.0, n) if rng.integers(2) == 0 else rng.normal(size=m)
        for _ in range(3)
    ]
    calls = []
    for _ in range(12):
        scale = rng.uniform(0.5, 1.5, m if rng.integers(2) == 0 else 1)
        b = bases[rng.integers(3)] * scale
        if integer:
            b = np.round(b)
        if dup and rng.integers(2) == 0:
            b[k] = b[i]
        zero = rng.random(m) < 0.2
        b[zero] = np.where(rng.integers(2, size=m) == 0, 0.0, -0.0)[zero]
        max_iter = int(rng.integers(1, 8)) if rng.integers(7) == 0 else 2000
        calls.append((b, max_iter))
    return c, A, calls


def test_shared_paths_match_reference_on_random_families(monkeypatch):
    """Each b solved twice through its family, the second time under
    another cap.  Tableau solves match the reference exactly.  An accepted
    basis is the unique optimum by the reference's own evaluation, and the
    reference's basis; the cone must accept under a cap too.  A basis
    keeps one record across calls, and no record is registered twice."""
    tableau = _count_calls(monkeypatch, "_two_phase")
    rng = np.random.default_rng(61)
    solved, accepted = set(), set()
    for _ in range(200):
        c, A, calls = _random_family(rng)
        family, records = _kernels.Family(), {}
        for b, max_iter in calls:
            for cap in (max_iter, 2000 if max_iter < 2000 else int(rng.integers(1, 8))):
                solves = len(tableau)
                st, basis, it, hit = _kernels.simplex(c, A, b, cap, family)
                assert (hit is None) == (st != _kernels.OPTIMAL)
                if hit is not None:
                    key = tuple(sorted(basis.tolist()))
                    assert records.setdefault(key, hit[0]) is hit[0]
                    assert tuple(hit[0].idx.tolist()) == key
                cone = [r.idx.tobytes() for r in family.cone]
                assert len(set(cone)) == len(cone)
                if len(tableau) > solves:
                    ref = _reference(c, A, b, cap)
                    assert (st, it) == (ref[0], ref[2])
                    assert np.array_equal(basis, ref[1])
                    solved.add(st)
                    continue
                assert (st, it) == (_kernels.OPTIMAL, 0)
                idx = np.sort(basis)
                ok, x, rc, _ = basis_eval_reference(c, A, b, idx, PIVOT_EPS)
                assert ok and x[idx].min() > TOL_FEAS
                assert np.delete(rc, idx).min(initial=np.inf) > TOL_OPT
                ref = _reference(c, A, b, 2000)
                assert ref[0] == _kernels.OPTIMAL
                assert np.array_equal(idx, np.sort(ref[1]))
                accepted.add(cap < 2000)
    assert solved == {
        _kernels.OPTIMAL,
        _kernels.INFEASIBLE,
        _kernels.UNBOUNDED,
        _kernels.RANK_DEFICIENT,
        _kernels.NUMERICAL,
    }
    assert accepted == {False, True}


# min x0 + 2 x1 s.t. x0 + x1 = d, x0 + x2 = 10, x1 + x3 = 10: for 0 < d < 10
# the optimal basis is {0, 2, 3}, with x1's reduced cost 1 its smallest.
CONE_C = np.array([1.0, 2.0, 0.0, 0.0])
CONE_A = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


def _cone_solver(monkeypatch, c=CONE_C):
    """A solve of demand d in one family of the LP above, checked against
    the reference; it returns (status, iterations, whether the tableau ran)."""
    tableau = _count_calls(monkeypatch, "_two_phase")
    family = _kernels.Family()

    def solve(d):
        solves = len(tableau)
        args = (c, CONE_A, np.array([d, 10.0, 10.0]), 2000)
        st, _, it = _assert_matches_reference(args, family, tableau)
        return st, it, len(tableau) > solves

    return solve, family


def test_registration_happens_on_the_second_sighting(monkeypatch):
    solve, family = _cone_solver(monkeypatch)
    factors = _count_calls(monkeypatch, "_basis_factor")
    assert solve(4.0)[2]
    # the first sighting makes the record, factor included, and registers nothing
    assert (len(factors), family.cone) == (1, [])
    assert solve(5.0)[2]
    (record,) = family.cone
    assert (record.rc_min, record.idx.tolist(), len(factors)) == (1.0, [0, 2, 3], 1)
    assert solve(6.0) == (_kernels.OPTIMAL, 0, False)


@pytest.mark.parametrize("d", [0.0, 10.0])
def test_degenerate_hour_is_never_accepted(monkeypatch, d):
    solve, family = _cone_solver(monkeypatch)
    assert solve(d)[2] and solve(d)[2]  # x0 or x2 is exactly 0
    assert family.cone == []
    assert solve(4.0)[2]  # a later sighting registers the basis
    assert solve(d)[2]  # which is refused here
    assert solve(6.0) == (_kernels.OPTIMAL, 0, False)


def test_zero_nonbasic_reduced_cost_is_never_accepted(monkeypatch):
    solve, family = _cone_solver(monkeypatch, c=np.array([1.0, 1.0, 0.0, 0.0]))
    assert all(solve(d)[2] for d in (4.0, 5.0, 6.0, 5.0))
    assert family.cone == []


def test_reduced_cost_within_tol_opt_is_never_accepted(monkeypatch):
    """x1's cost is x0's plus 5e-10: the tableau ends in a basis whose
    smallest nonbasic reduced cost is about -5e-10, optimal to within
    ``TOL_OPT`` but not above it, so it is never registered, and ``_cone_x``
    refuses it where its x_B is well inside the cone."""
    solve, family = _cone_solver(monkeypatch, c=np.array([1.0, 1.0 + 5e-10, 0.0, 0.0]))
    assert all(solve(d)[2] for d in (4.0, 5.0, 6.0, 5.0, 7.0))
    assert family.cone == []
    (record,) = family.values()
    assert -TOL_OPT < record.rc_min < 0.0
    assert _kernels._solve(record.ops, [6.0, 10.0, 10.0], TOL_FEAS) is not None
    assert _kernels._cone_x(record, [6.0, 10.0, 10.0]) is None


def test_an_infinite_x_b_is_never_registered(monkeypatch):
    """The tableau ends in basis (0, 1) with x_0 = inf at each of these
    right-hand sides (the numpy reference breaks down on them).  That x_B
    is never registered, so every solve runs the tableau."""
    tableau = _count_calls(monkeypatch, "_two_phase")
    A = np.array([[-1e-06, 1.0, 0.0], [0.0, -1.0, 1.0]])
    c = np.array([0.08401534358238483, 0.8326441476533978, 0.7870983074886834])
    b = np.array([-5.407481500825879e307, -1.8266510050802505e307])
    family = _kernels.Family()
    for scale in (1.0, 0.5, 1.0, 0.25):
        st, _, it, (record, xb) = _kernels.simplex(c, A, b * scale, 2000, family)
        assert (st, it, record.cols, xb[0]) == (_kernels.OPTIMAL, 2, (0, 1), np.inf)
    assert len(tableau) == 4 and family.cone == []


def test_tolerances_are_the_kernels_own():
    assert tsagg.TOL_FEAS is _kernels.TOL_FEAS
    assert tsagg.TOL_OPT is _kernels.TOL_OPT
    assert tsagg.PIVOT_EPS is _kernels.PIVOT_EPS


def test_theorem_trials_solve_every_averaged_rhs_with_the_tableau(monkeypatch):
    tableau = _count_calls(monkeypatch, "_two_phase")
    simplex = _count_calls(monkeypatch, "simplex")
    fresh = []
    check = evaluation.theorem_check

    def counted_check(*args):
        before = len(tableau), len(simplex)
        result = check(*args)
        fresh.append((len(tableau) - before[0], len(simplex) - before[1]))
        return result

    monkeypatch.setattr(evaluation, "theorem_check", counted_check)
    assert evaluation.run_theorem_trials(200, seed=3).trials == 200
    assert fresh == [(1, 1)] * 200
    assert len(tableau) == len(simplex)


# --- the early exit of a candidate solve ----------------------------------------

def _assert_early_exit_agrees(ops, bl, floor, branches):
    """``_solve`` with a floor: the full list, bitwise, if every entry is
    above the floor, else None; returns whether it gave None.

    ``branches`` collects which way the solve over the zero-free list
    went: it rejected, which the dense list must too, or accepted a list
    with a zero entry or an infinite one (``"needed"`` marks one that
    differs from the dense result), or accepted a list of finite nonzero
    entries, which must then be bitwise the dense one.  At a positive
    floor, as in ``_cone_x``, the zero-free list accepts with every entry
    finite exactly when the dense list does, and then gives its bits."""
    full = _kernels._solve(ops, bl)
    cut = _kernels._solve(ops, bl, floor)
    if all(v > floor for v in full):
        assert cut is not None and _bits(cut) == _bits(full)
    else:
        assert cut is None
    alone = _kernels._solve(_kernels._zero_free(ops), bl, floor)
    if alone is None:
        assert cut is None  # a zero-free rejection is a dense one
        branches.add("rejected")
    elif 0.0 in alone or np.inf in alone:
        branches.add("zero" if 0.0 in alone else "infinite")
        if cut is None or _bits(alone) != _bits(cut):
            branches.add("needed")
    else:
        assert cut is not None and _bits(alone) == _bits(cut)
        branches.add("exact")
    if floor > 0.0:
        finite = alone is not None and np.inf not in alone
        assert finite == (cut is not None and np.inf not in cut)
        assert not finite or _bits(alone) == _bits(cut)
    return cut is None


def _floors(full):
    """Each entry itself (which must be refused), the float just below it,
    the package's tol, +-0 and a negative floor, at which a zero entry
    passes."""
    return [v for e in full for v in (e, np.nextafter(e, -np.inf))] + [TOL_FEAS, 0.0, -0.0, -1.0]


def _overflowing(bl):
    """``bl`` scaled so that its largest entry is 1e308: the solve's
    products and sums overflow to inf, and inf - inf or 0 * inf is NaN."""
    top = max(map(abs, bl))
    return [v * (1e308 / top) for v in bl] if top else None


def test_early_exit_matches_the_full_solve_on_swapped_zero_terms():
    """The op list of ``test_basis_eval_keeps_zero_terms_and_row_swaps``,
    with its mid, ends and tail right-hand sides, and them scaled toward
    overflow."""
    ops = _kernels._lu_factor(SWAPPED_B.tolist())
    assert ops[0]  # row swaps
    negative_zero, outcomes, branches = False, set(), set()
    for b in ([1.0, -0.0, 1.0], [-0.0, 1.0, -0.0], [2.0, -0.0, -0.0]):
        full = _kernels._solve(ops, b)
        negative_zero |= any(v == 0.0 and np.signbit(v) for v in full)
        for rhs in (b, _overflowing(b)):
            for floor in _floors(_kernels._solve(ops, rhs)):
                outcomes.add(_assert_early_exit_agrees(ops, rhs, floor, branches))
    assert negative_zero and outcomes == {False, True}
    assert branches >= {"rejected", "zero", "exact", "needed"}


def test_early_exit_matches_the_full_solve_on_random_factors():
    rng = np.random.default_rng(67)
    outcomes, branches = set(), set()
    for _ in range(600):
        c, A, b, basis = _random_basis_case(rng)
        ops = _kernels._lu_factor(A[:, basis].tolist())
        if ops is None:
            continue
        for bl in (b.tolist(), _overflowing(b.tolist())):
            if bl is None:
                continue
            for floor in _floors(_kernels._solve(ops, bl)):
                outcomes.add(_assert_early_exit_agrees(ops, bl, floor, branches))
    assert outcomes == {False, True}
    assert branches == {"rejected", "zero", "infinite", "exact"}


def test_zero_free_acceptance_of_an_infinite_entry_is_refused():
    """x_1 = 1e308 / 1e-10 overflows; the dense list's dropped term 0 * inf
    makes x_0 NaN and rejects, while the zero-free x_0 is 1.0, so
    ``_cone_x`` refuses the infinite entry."""
    record = _kernels._Basis(np.zeros(2), np.array([[1.0, 0.0], [0.0, 1e-10]]), (0, 1))
    assert record.rc_min > TOL_OPT  # every column is basic
    free = _kernels._zero_free(record.ops)
    assert _kernels._solve(free, [1.0, 1e308], TOL_FEAS) == [1.0, np.inf]
    assert _kernels._solve(record.ops, [1.0, 1e308], TOL_FEAS) is None
    assert _kernels._cone_x(record, [1.0, 1e308]) is None


def _assert_columns_match_cone_x(family, cols, R):
    """``cone_columns`` on block ``R`` against ``_cone_x`` column by column:
    the same columns accepted, each x_B bitwise ``_cone_x``'s and each
    objective ``evaluate``'s.  Returns the accepted mask."""
    record = family[cols]
    accepted, xb, obj = _kernels.cone_columns(family, cols, R)
    with np.errstate(over="ignore", invalid="ignore"):
        singles = [_kernels._cone_x(record, column) for column in R.T.tolist()]
    assert accepted.tolist() == [x is not None for x in singles]
    kept = [x for x in singles if x is not None]
    assert xb.shape == (len(cols), len(kept))
    assert _bits(xb.T) == _bits(kept)
    assert _bits(obj) == _bits([_kernels.evaluate(record, x)[3] for x in kept])
    return accepted


def _cone_block(rng, B):
    """Eight right-hand sides for basis matrix ``B``: inside its cone, on
    and near its boundary, at random, with zeros of either sign, scaled
    toward overflow and with an infinite entry."""
    m = len(B)
    columns = [
        B @ rng.uniform(0.5, 2.0, m),
        B @ rng.uniform(-0.2, 1.0, m),
        B @ np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.5, 2.0, m)),
        rng.normal(size=m),
        np.where(rng.random(m) < 0.5, 0.0, -0.0),
    ]
    columns.append(_overflowing((B @ rng.uniform(0.5, 2.0, m)).tolist()) or np.zeros(m))
    with_inf = B @ rng.uniform(0.5, 2.0, m)
    with_inf[rng.integers(m)] = np.inf
    columns += [with_inf, B @ rng.uniform(0.5, 2.0, m)]
    return np.column_stack(columns)


def test_cone_columns_accepts_what_cone_x_accepts_with_its_bits():
    """Random families, each basis with costs made to price it optimal and
    with its own costs, which are often dual degenerate or infeasible."""
    rng = np.random.default_rng(71)
    seen = set()
    for _ in range(500):
        c, A, _, basis = _random_basis_case(rng)
        cols = tuple(sorted(basis.tolist()))
        B = A[:, list(cols)]
        priced = A.T @ rng.normal(size=len(A))
        priced[np.setdiff1d(np.arange(len(c)), cols)] += rng.uniform(0.1, 1.0, len(c) - len(cols))
        for costs in (priced, c):
            family = _kernels.Family()
            record = family[cols] = _kernels._Basis(costs, A, cols)
            accepted = _assert_columns_match_cone_x(family, cols, _cone_block(rng, B))
            if record.ops is None:
                seen.add("singular")
            elif not record.rc_min > TOL_OPT:
                seen.add("dual degenerate")
                assert not accepted.any()
            else:
                seen.add("accepted" if accepted.any() else "refused")
                if any(not t[2] for t in record.ops[1]) or any(
                        not u for _, _, terms in record.ops[2] for _, u in terms):
                    seen.add("exact-zero LU term")
    assert seen == {"singular", "dual degenerate", "accepted", "exact-zero LU term"}


def test_cone_columns_refuses_an_infinite_x_b_entry_and_one_at_the_floor():
    """``test_zero_free_acceptance_of_an_infinite_entry_is_refused``'s basis:
    the zero-free x_B of [1, 1e308] has an infinite entry and that of
    [TOL_FEAS, 1] an entry equal to the floor, both refused as by
    ``_cone_x``, next to columns just above the floor and well inside."""
    family = _kernels.Family()
    cols = (0, 1)
    family[cols] = _kernels._Basis(np.zeros(2), np.array([[1.0, 0.0], [0.0, 1e-10]]), cols)
    above = np.nextafter(TOL_FEAS, 1.0)
    R = np.array([[1.0, TOL_FEAS, above, 1.0], [1e308, 1.0, 1.0, 1e-3]])
    accepted = _assert_columns_match_cone_x(family, cols, R)
    assert accepted.tolist() == [False, False, True, True]


def test_cone_columns_refuses_every_column_of_a_dual_degenerate_basis():
    """A zero nonbasic reduced cost: no column passes, whatever its x_B."""
    family = _kernels.Family()
    cols = (0,)
    family[cols] = _kernels._Basis(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), cols)
    assert family[cols].rc_min == 0.0
    R = np.array([[1.0, 2.0, 3.0]])
    assert _assert_columns_match_cone_x(family, cols, R).tolist() == [False, False, False]


# --- candidate order and the x_B handed to evaluate -----------------------------

def _fingerprint(full):
    return [
        (full.distinct_bases[j].indices, _bits(x), _bits(full.reduced_costs[j]), _bits(obj))
        for j, x, obj in zip(full.basis_ids.tolist(), full.x, full.objective.tolist())
    ]


@pytest.mark.parametrize("order", ["negated", "permuted"])
def test_candidate_order_never_changes_the_solution(order, monkeypatch):
    """The stored dual scores negated (worst bound first) or shuffled for
    every call: the same bases, x, reduced costs and objectives, bitwise."""
    expected = {name: _fingerprint(solve_full(make())) for name, make in SOLVER_SYSTEMS.items()}
    rng = np.random.default_rng(71)
    simplex = _kernels.simplex
    reordered_calls = []

    def reordered(*args):
        family = args[-1]
        if family.duals is None:
            return simplex(*args)
        duals = family.duals
        family.duals = changed = (
            -duals if order == "negated" else duals[rng.permutation(len(duals))]
        )
        reordered_calls.append(None)
        try:
            return simplex(*args)
        finally:
            if family.duals is changed:  # else a registration rebuilt it
                family.duals = duals

    monkeypatch.setattr(_kernels, "simplex", reordered)
    for name, make in SOLVER_SYSTEMS.items():
        assert _fingerprint(solve_full(make())) == expected[name], name
    assert reordered_calls


def test_cone_candidates_are_tried_in_the_stable_descending_order(monkeypatch):
    """Under ``solve_full``, each call tests the most recently accepted
    basis, then, if it fails, the head of a stable descending sort of the
    dual scores if that is another basis, and nothing else: the tableau
    runs exactly when neither passes."""
    simplex, cone_x = _kernels.simplex, _kernels._cone_x
    tried, checked = [], []
    tableau = _count_calls(monkeypatch, "_two_phase")

    def recorded_cone_x(record, *args):
        xb = cone_x(record, *args)
        tried.append((record, xb is not None))
        return xb

    def checked_simplex(c, A, b, *args):
        family = args[-1]
        cone, mru = list(family.cone), family.mru
        order = [mru] if cone else []
        if len(cone) > 1:
            scores = (family.duals @ b).tolist()
            top = sorted(range(len(cone)), key=scores.__getitem__, reverse=True)[0]
            order += [top] if top != mru else []
        del tried[:], tableau[:]
        result = simplex(c, A, b, *args)
        passed = [ok for _, ok in tried]
        assert [record for record, _ in tried] == [cone[k] for k in order[: len(tried)]]
        assert passed == [False] * (len(tried) - 1) + [True] or passed == [False] * len(order)
        assert len(tableau) == (not any(passed))
        checked.append(len(tried))
        return result

    monkeypatch.setattr(_kernels, "_cone_x", recorded_cone_x)
    monkeypatch.setattr(_kernels, "simplex", checked_simplex)
    for name, make in SOLVER_SYSTEMS.items():
        solve_full(make())
    assert max(checked) == 2  # some calls reached the top score


@pytest.mark.parametrize("name,hours,bound", [
    ("default_year", None, 1.25),
    *[(f"fleet{s}", 1008, 2.0) for s in range(5)],
    *[(f"boundary{s}", 336, 3.0) for s in range(4)],
])
def test_lu_solves_per_hour_stay_bounded(name, hours, bound, monkeypatch):
    """``_solve`` calls under ``solve_full``, ``evaluate``'s included.
    Without the dual-bound order, the early exit and the x_B handoff (the
    other registered bases tried by recency, each solved in full, and the
    accepted one solved again by ``evaluate``) these are 2.19 per hour on
    the year and 5.2-5.6 on the fleets; testing every other registered
    basis before the tableau made 2.2-2.4 on the fleets and 8.1-9.7 on the
    boundary fleets, where the tableau runs in most hours."""
    if name == "default_year":
        system = generate_synthetic(default_spec())
    elif name.startswith("fleet"):
        system = fleet_system(np.random.default_rng(int(name[5:])), hours=hours)
    else:
        system = fleet_at_boundaries(np.random.default_rng(int(name[8:])), hours=hours)
    solves = _count_calls(monkeypatch, "_solve")
    solve_full(system)
    assert len(solves) <= bound * system.horizon


@pytest.mark.parametrize("name", ["default_year", "fleet4"])
def test_accepted_cone_tests_run_on_the_zero_free_list(name, monkeypatch):
    """Under ``solve_full`` no accepted cone test is solved on a dense op
    list (one ``_basis_factor`` returned): the zero-free list decides."""
    system = SOLVER_SYSTEMS[name]()
    dense, accepted = set(), []
    factor, solve = _kernels._basis_factor, _kernels._solve

    def recorded_factor(*args):
        result = factor(*args)
        if result is not None:
            dense.add(id(result[0]))
        return result

    def recorded_solve(ops, rhs, floor=None):
        x = solve(ops, rhs, floor)
        if floor is not None and x is not None:
            accepted.append(id(ops) in dense)
        return x

    monkeypatch.setattr(_kernels, "_basis_factor", recorded_factor)
    monkeypatch.setattr(_kernels, "_solve", recorded_solve)
    solve_full(system)
    assert accepted.count(False) > system.horizon // 2
    assert accepted.count(True) == 0


@pytest.mark.parametrize("name", ["default_year", "fleet4", "degenerate"])
def test_simplex_returns_the_x_b_that_basis_eval_would_solve(name):
    """Each OPTIMAL call returns its basis's one record in the family, keyed
    by the sorted index tuple, and x_B bitwise what the reference
    evaluation gives."""
    system = SOLVER_SYSTEMS[name]()
    c, A = _template(system)
    family, records = _kernels.Family(), {}
    for h in range(system.horizon):
        b = hourly_rhs(system, h)
        st, basis, _, (record, xb) = _kernels.simplex(c, A, b, 2000, family)
        assert st == _kernels.OPTIMAL
        idx = np.sort(basis)
        key = tuple(idx.tolist())
        assert records.setdefault(key, record) is record
        assert family[key] is record and record.cols == key == tuple(record.idx.tolist())
        ok, x, _, _ = basis_eval_reference(c, A, b, idx, PIVOT_EPS)
        assert ok and _bits(xb) == _bits(x[idx]), h
