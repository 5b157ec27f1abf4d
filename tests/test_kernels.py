"""Simplex kernel guards: pinned pivot sequence, the reference tableau,
the batched basis-cone test and basis evaluation."""

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
from tsagg.dispatch_model import _template, hourly_rhs, solve_by_cones, solve_full
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
        st, basis, it, _ = _kernels.simplex(c, A, b, 2000, {})
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
        st, basis, _, _ = _kernels.simplex(c, A, b, 2000, {})
        if st != _kernels.OPTIMAL:
            continue
        checked += 1
        idx = np.sort(basis)
        ok, x, rc, obj, _, _ = _kernels.basis_eval(
            c, A, b, tuple(idx.tolist()), {})
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
            c, A, b, tuple(basis.tolist()), {})
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
    family = {}
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


def _assert_matches_reference(args, family):
    """Solve ``args`` (c, A, b, max_iter) through ``family`` and against
    the tableau reference: status, iterations and basis in row order are
    the reference's.  Returns the kernel's result."""
    st, basis, it, _ = _kernels.simplex(*args, family)
    ref = _reference(*args)
    assert (st, it) == (ref[0], ref[2])
    assert np.array_equal(basis, ref[1])
    return st, basis, it


def _assert_hours_match_reference(system):
    """Every hour through one family, then through ``solve_full``,
    against the tableau reference."""
    c, A = _template(system)
    family = {}
    results = []
    for h in range(system.horizon):
        _, basis, it = _assert_matches_reference((c, A, hourly_rhs(system, h), 2000), family)
        results.append((it, tuple(sorted(basis.tolist()))))
    # Iterations reach no output file, so no digest would see them move.
    full = solve_full(system)
    bases = [full.distinct_bases[j].indices for j in full.basis_ids.tolist()]
    assert list(zip(full.iterations.tolist(), bases)) == results


def test_simplex_matches_reference_on_default_year():
    _assert_hours_match_reference(generate_synthetic(default_spec()))


def test_simplex_matches_reference_on_degenerate_fleet():
    system = fleet_system(np.random.default_rng(4))  # 7 exact ratio-test ties
    assert system.size == 13
    cf = system.capacity_factors["wind_a"]
    assert (cf == 0.0).any() and (cf == 1.0).any()
    _assert_hours_match_reference(system)


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
        st, basis, it, _ = _kernels.simplex(c, A, b, max_iter, {})
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
def test_simplex_matches_reference_on_small_systems(name):
    _assert_hours_match_reference(SMALL_SYSTEMS[name]())


@pytest.mark.parametrize("seed", range(4))
def test_solve_full_matches_reference_at_tolerance_distance_from_boundaries(seed):
    """Demand on, within 1e-12 to 1e-7 MW of and 1-5 ulp from each merit-order
    boundary, after hours well inside the regimes: every hour's basis and
    pivot count is the reference tableau's."""
    _assert_hours_match_reference(near_boundary_system(np.random.default_rng(seed)))


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4, 44))
def test_solve_full_matches_reference_next_to_boundaries_of_more_systems(seed):
    """The check above on 40 more ``near_boundary_system`` draws."""
    _assert_hours_match_reference(near_boundary_system(np.random.default_rng(seed)))


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4))
def test_solve_full_matches_reference_on_fleets_moved_to_boundaries(seed):
    """Every hour of a 336 h ``fleet_system`` at a random merit-order boundary
    of its 13 units plus an offset: every hour's basis and pivot count is
    the reference tableau's."""
    system = fleet_at_boundaries(np.random.default_rng(seed))
    assert system.horizon == 336
    _assert_hours_match_reference(system)


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


def test_shared_paths_match_reference_on_random_families():
    """Each b solved twice through its family, the second time under
    another cap: every call matches the reference exactly, and a basis
    keeps one record, keyed by its sorted index tuple, across calls."""
    rng = np.random.default_rng(61)
    solved = set()
    for _ in range(200):
        c, A, calls = _random_family(rng)
        family, records = {}, {}
        for b, max_iter in calls:
            for cap in (max_iter, 2000 if max_iter < 2000 else int(rng.integers(1, 8))):
                st, basis, it, hit = _kernels.simplex(c, A, b, cap, family)
                assert (hit is None) == (st != _kernels.OPTIMAL)
                if hit is not None:
                    key = tuple(sorted(basis.tolist()))
                    assert records.setdefault(key, hit[0]) is hit[0] is family[key]
                    assert tuple(hit[0].idx.tolist()) == key
                ref = _reference(c, A, b, cap)
                assert (st, it) == (ref[0], ref[2])
                assert np.array_equal(basis, ref[1])
                solved.add(st)
    assert solved == {
        _kernels.OPTIMAL,
        _kernels.INFEASIBLE,
        _kernels.UNBOUNDED,
        _kernels.RANK_DEFICIENT,
        _kernels.NUMERICAL,
    }


# min x0 + 2 x1 s.t. x0 + x1 = d, x0 + x2 = 10, x1 + x3 = 10: for 0 < d < 10
# the optimal basis is {0, 2, 3}, with x1's reduced cost 1 its smallest.
CONE_C = np.array([1.0, 2.0, 0.0, 0.0])
CONE_A = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


def _cone_rhs(*demands):
    """The (3, U) block of right-hand sides of ``demands`` in the LP above."""
    return np.array([[d, 10.0, 10.0] for d in demands]).T


def _cone_family(c=CONE_C, d=4.0):
    """A family of the LP above holding the record of the basis the
    tableau ends in at demand d, checked against the reference."""
    family = {}
    st, basis, _ = _assert_matches_reference((c, CONE_A, _cone_rhs(d)[:, 0], 2000), family)
    assert st == _kernels.OPTIMAL
    (cols,) = family
    assert cols == tuple(sorted(basis.tolist()))
    return family, cols


def test_a_basis_is_factorised_at_its_first_optimum_only(monkeypatch):
    factors = _count_calls(monkeypatch, "_basis_factor")
    tableau = _count_calls(monkeypatch, "_two_phase")
    family, cols = _cone_family()
    for d in (5.0, 6.0):
        _assert_matches_reference((CONE_C, CONE_A, _cone_rhs(d)[:, 0], 2000), family)
    (record,) = family.values()
    assert (record.rc_min, cols, len(factors), len(tableau)) == (1.0, (0, 2, 3), 1, 3)


@pytest.mark.parametrize("d", [0.0, 10.0])
def test_degenerate_hour_is_never_accepted(d):
    """x0 or x2 is exactly 0 at d: refused, next to a column inside."""
    family, cols = _cone_family()
    accepted = _assert_columns_match_dense(family, cols, _cone_rhs(d, 4.0))
    assert accepted.tolist() == [False, True]


def test_zero_nonbasic_reduced_cost_is_never_accepted():
    family, cols = _cone_family(c=np.array([1.0, 1.0, 0.0, 0.0]))
    assert family[cols].rc_min == 0.0
    assert not _assert_columns_match_dense(family, cols, _cone_rhs(4.0, 5.0, 6.0)).any()


def test_reduced_cost_within_tol_opt_is_never_accepted():
    """x1's cost is x0's plus 5e-10: the tableau ends in a basis whose
    smallest nonbasic reduced cost is about -5e-10, optimal to within
    ``TOL_OPT`` but not above it, so ``cone_columns`` refuses it where
    its x_B is well inside the cone."""
    family, cols = _cone_family(c=np.array([1.0, 1.0 + 5e-10, 0.0, 0.0]))
    (record,) = family.values()
    assert -TOL_OPT < record.rc_min < 0.0
    assert min(_kernels._solve(record.ops, [6.0, 10.0, 10.0])) > TOL_FEAS
    accepted = _assert_columns_match_dense(family, cols, _cone_rhs(4.0, 5.0, 6.0))
    assert not accepted.any()


# ``test_evaluation.test_theorem_check_fails_a_nan_gap``'s former LP: x_B
# overflows, so x_0 = inf in basis (0, 1) at every scale below.
OVERFLOW_A = np.array([[-1e-06, 1.0, 0.0], [0.0, -1.0, 1.0]])
OVERFLOW_C = np.array([0.08401534358238483, 0.8326441476533978, 0.7870983074886834])
OVERFLOW_B = np.array([-5.407481500825879e307, -1.8266510050802505e307])


@pytest.mark.parametrize("c", [OVERFLOW_C, np.ones(3)], ids=["own_costs", "unit_costs"])
def test_simplex_matches_reference_where_x_b_overflows(c):
    """The reference tableau follows the kernel's leaving-row scan, so it
    agrees on status, basis and pivot count where ratios overflow; the
    cone test refuses the infinite x_B."""
    family = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for scale in (1.0, 0.5, 0.25):
            b = OVERFLOW_B * scale
            st, _, it = _assert_matches_reference((c, OVERFLOW_A, b, 2000), family)
            assert (st, it) == (_kernels.OPTIMAL, 2)
    (cols,) = family
    assert cols == (0, 1)
    assert not _assert_columns_match_dense(family, cols, OVERFLOW_B[:, None]).any()


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


# --- the zero-free solve of the cone test ---------------------------------------

def _accepts(x, floor=TOL_FEAS):
    """The cone test's rule on an x_B at ``floor``: every entry above it
    (NaN fails ``>``) and none infinite."""
    return all(v > floor for v in x) and np.inf not in x


def _assert_zero_free_agrees(ops, bl, floor, branches):
    """The solve on ``_zero_free``'s list against the dense ``_solve``:
    an x_B refused on the zero-free list, an entry not above ``floor``,
    is refused on the dense one too.  Returns whether the dense x_B has
    an entry not above ``floor``.

    ``branches`` collects which way the zero-free solve went: refused,
    which the dense solve must be too, or every entry above the floor
    with a zero or an infinite one (``"needed"`` marks one whose bits
    differ from the dense result), or above it with finite nonzero
    entries, which must then be bitwise the dense ones.  At a positive
    floor, as in ``cone_columns``, the zero-free x_B passes the cone test
    exactly when the dense one does, and then has its bits."""
    full = _kernels._solve(ops, bl)
    alone = _kernels._solve(_kernels._zero_free(ops), bl)
    above = all(v > floor for v in full)
    if not all(v > floor for v in alone):
        assert not above  # a zero-free refusal is a dense one
        branches.add("rejected")
    elif 0.0 in alone or np.inf in alone:
        branches.add("zero" if 0.0 in alone else "infinite")
        if not above or _bits(alone) != _bits(full):
            branches.add("needed")
    else:
        assert above and _bits(alone) == _bits(full)
        branches.add("exact")
    if floor > 0.0:
        assert _accepts(alone, floor) == _accepts(full, floor)
        assert not _accepts(alone, floor) or _bits(alone) == _bits(full)
    return not above


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


def test_zero_free_solve_matches_the_dense_one_on_swapped_zero_terms():
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
                outcomes.add(_assert_zero_free_agrees(ops, rhs, floor, branches))
    assert negative_zero and outcomes == {False, True}
    assert branches >= {"rejected", "zero", "exact", "needed"}


def test_zero_free_solve_matches_the_dense_one_on_random_factors():
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
                outcomes.add(_assert_zero_free_agrees(ops, bl, floor, branches))
    assert outcomes == {False, True}
    assert branches == {"rejected", "zero", "infinite", "exact"}


def test_zero_free_acceptance_of_an_infinite_entry_is_refused():
    """x_1 = 1e308 / 1e-10 overflows; the dense list's dropped term 0 * inf
    makes x_0 NaN and refuses, while the zero-free x_0 is 1.0, so
    ``cone_columns`` refuses the infinite entry."""
    record = _kernels._Basis(np.zeros(2), np.array([[1.0, 0.0], [0.0, 1e-10]]), (0, 1))
    assert record.rc_min > TOL_OPT  # every column is basic
    free = _kernels._zero_free(record.ops)
    assert _kernels._solve(free, [1.0, 1e308]) == [1.0, np.inf]
    assert np.isnan(_kernels._solve(record.ops, [1.0, 1e308])[0])
    family = {(0, 1): record}
    assert not _assert_columns_match_dense(family, (0, 1), np.array([[1.0], [1e308]])).any()


def _assert_columns_match_dense(family, cols, R):
    """``cone_columns`` on block ``R`` against the dense ``_solve`` on the
    record's op list, column by column: a column is accepted iff B is
    nonsingular, its smallest nonbasic reduced cost exceeds ``TOL_OPT``
    and the dense x_B passes ``_accepts``; each accepted x_B is bitwise
    the dense one and each objective ``evaluate``'s.  Returns the
    accepted mask."""
    record = family[cols]
    got, accepted, xb, obj = _kernels.cone_columns(family, cols, R)
    assert got is record
    singles = []
    with np.errstate(over="ignore", invalid="ignore"):
        for column in R.T.tolist():
            x = None if record.ops is None else _kernels._solve(record.ops, column)
            ok = x is not None and record.rc_min > TOL_OPT and _accepts(x)
            singles.append(x if ok else None)
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


def test_cone_columns_accepts_what_the_dense_solve_accepts_with_its_bits():
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
            family = {}
            record = family[cols] = _kernels._Basis(costs, A, cols)
            accepted = _assert_columns_match_dense(family, cols, _cone_block(rng, B))
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
    [TOL_FEAS, 1] an entry equal to the floor, both refused, next to
    columns just above the floor and well inside."""
    family = {}
    cols = (0, 1)
    family[cols] = _kernels._Basis(np.zeros(2), np.array([[1.0, 0.0], [0.0, 1e-10]]), cols)
    above = np.nextafter(TOL_FEAS, 1.0)
    R = np.array([[1.0, TOL_FEAS, above, 1.0], [1e308, 1.0, 1.0, 1e-3]])
    accepted = _assert_columns_match_dense(family, cols, R)
    assert accepted.tolist() == [False, False, True, True]


def test_cone_columns_refuses_every_column_of_a_dual_degenerate_basis():
    """A zero nonbasic reduced cost: no column passes, whatever its x_B."""
    family = {}
    cols = (0,)
    family[cols] = _kernels._Basis(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), cols)
    assert family[cols].rc_min == 0.0
    R = np.array([[1.0, 2.0, 3.0]])
    assert _assert_columns_match_dense(family, cols, R).tolist() == [False, False, False]


# --- seed order and the x_B handed to evaluate ----------------------------------

def _fingerprint(full):
    return [
        (full.distinct_bases[j].indices, _bits(x), _bits(full.reduced_costs[j]), _bits(obj))
        for j, x, obj in zip(full.basis_ids.tolist(), full.x, full.objective.tolist())
    ]


@pytest.mark.parametrize("order", ["reversed", "permuted"])
def test_seed_order_never_changes_the_solution(order, monkeypatch):
    """The recorded bases that ``solve_by_cones`` tests first, after a
    ``solve_full`` of the same system, reversed or shuffled: the same
    bases, x, reduced costs and objectives, bitwise, numbered in
    first-hour order."""
    rng = np.random.default_rng(71)
    recorded = _kernels.recorded
    seeded = []

    def reordered(family):
        cols = recorded(family)
        seeded.append(len(cols))
        return cols[::-1] if order == "reversed" else [cols[i] for i in rng.permutation(len(cols))]

    monkeypatch.setattr(_kernels, "recorded", reordered)
    for name, make in SOLVER_SYSTEMS.items():
        system = make()
        want = solve_full(system)
        got = solve_by_cones(system)
        assert _fingerprint(got) == _fingerprint(want), name
        assert got.basis_ids.tobytes() == want.basis_ids.tobytes(), name
    assert max(seeded) > 1


@pytest.mark.parametrize("name,hours,bound", [
    ("default_year", None, 1.25),
    *[(f"fleet{s}", 1008, 2.0) for s in range(5)],
    *[(f"boundary{s}", 336, 3.0) for s in range(4)],
])
def test_lu_solves_per_hour_stay_bounded(name, hours, bound, monkeypatch):
    """``_solve`` calls under ``solve_full``: each hour's x_B, solved once
    by ``simplex`` and handed to ``evaluate``, plus one dual solve per
    distinct basis.  Solving x_B again in ``evaluate`` would make about 2
    per hour."""
    if name == "default_year":
        system = generate_synthetic(default_spec())
    elif name.startswith("fleet"):
        system = fleet_system(np.random.default_rng(int(name[5:])), hours=hours)
    else:
        system = fleet_at_boundaries(np.random.default_rng(int(name[8:])), hours=hours)
    solves = _count_calls(monkeypatch, "_solve")
    solve_full(system)
    assert len(solves) <= bound * system.horizon


@pytest.mark.parametrize("name", ["default_year", "fleet4", "degenerate"])
def test_simplex_returns_the_x_b_that_basis_eval_would_solve(name):
    """Each OPTIMAL call returns its basis's one record in the family, keyed
    by the sorted index tuple, and x_B bitwise what the reference
    evaluation gives."""
    system = SOLVER_SYSTEMS[name]()
    c, A = _template(system)
    family, records = {}, {}
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
