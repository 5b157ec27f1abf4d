"""Simplex kernel guards: pinned pivot sequence, recorded pivot paths and
basis evaluation."""

import hashlib

import numpy as np
import pytest

from oracles import basis_eval_reference, random_lp_data, simplex_reference
from systems import degenerate_system, fleet_system, random_system
from tsagg import _kernels
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
        st, basis, it = _kernels.simplex(c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, 2000, {})
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
        st, basis, _ = _kernels.simplex(c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, 2000, {})
        if st != _kernels.OPTIMAL:
            continue
        checked += 1
        idx = np.sort(basis)
        ok, x, rc, obj = _kernels.basis_eval(c, A, b, idx, PIVOT_EPS, {})
        assert ok
        B = A[:, idx]
        xb = np.linalg.solve(B, b)
        np.testing.assert_allclose(x[idx], xb, rtol=1e-9, atol=1e-9)
        y = np.linalg.solve(B.T, c[idx])
        expected_rc = c - A.T @ y
        expected_rc[idx] = 0.0
        np.testing.assert_allclose(rc, expected_rc, rtol=1e-8, atol=1e-8)
        assert obj == pytest.approx(float(c[idx] @ xb), rel=1e-10, abs=1e-10)


def test_lu_factor_flags_singular_matrix():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    perm = [0] * 2
    assert not _kernels._lu_factor(M.tolist(), perm, PIVOT_EPS)
    ident = np.eye(3)
    perm3 = [0] * 3
    assert _kernels._lu_factor(ident.tolist(), perm3, PIVOT_EPS)


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
        ok, x, rc, obj = _kernels.basis_eval(c, A, b, basis, PIVOT_EPS, {})
        ok_ref, x_ref, rc_ref, obj_ref = basis_eval_reference(c, A, b, basis, PIVOT_EPS)
        assert ok == ok_ref
        assert _bits(x) == _bits(x_ref)
        assert _bits(rc) == _bits(rc_ref)
        assert _bits(obj) == _bits(obj_ref)
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
    basis = np.array([3, 0, 2])  # B = SWAPPED_B
    b = np.array(b)
    factors = {}
    for _ in range(2):  # the factor's first use, then the cached one
        ok, x, rc, obj = _kernels.basis_eval(c, A, b, basis, PIVOT_EPS, factors)
        ok_ref, x_ref, rc_ref, obj_ref = basis_eval_reference(c, A, b, basis, PIVOT_EPS)
        assert ok and ok_ref
        assert _bits(x) == _bits(x_ref)
        assert _bits(rc) == _bits(rc_ref)
        assert _bits(obj) == _bits(obj_ref)
    (((swaps, _, _), _, _),) = factors.values()
    assert swaps  # the LU permutation is not the identity


def _assert_matches_reference(args, paths):
    """Solve ``args`` through ``paths`` and against the tableau reference:
    equal status, iterations and basis.  Returns the reference's result."""
    st, basis, it = _kernels.simplex(*args, paths)
    ref = simplex_reference(*args)
    assert (st, it) == (ref[0], ref[2])
    assert np.array_equal(basis, ref[1])
    return ref


def _assert_hours_match_reference(system):
    """Every hour through one shared path trie, then through ``solve_full``,
    against the tableau reference: status, iterations and basis."""
    c, A = _template(system)
    paths = {}
    refs = []
    for h in range(system.horizon):
        args = (c, A, hourly_rhs(system, h), TOL_FEAS, TOL_OPT, PIVOT_EPS, 2000)
        _, basis_ref, it_ref = _assert_matches_reference(args, paths)
        refs.append((it_ref, tuple(sorted(basis_ref.tolist()))))
    # Iterations reach no output file, so no digest would see them move.
    periods = solve_full(system).periods
    assert [(p.solution.iterations, p.solution.basis.indices) for p in periods] == refs


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
        args = (c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, max_iter)
        st, basis, it = _kernels.simplex(*args, {})
        st_ref, basis_ref, it_ref = simplex_reference(*args)
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


@pytest.mark.parametrize(
    "system",
    [
        degenerate_system(),
        random_system(np.random.default_rng(11), hours=48),
        random_system(np.random.default_rng(12), hours=48),
    ],
    ids=["degenerate", "random11", "random12"],
)
def test_simplex_matches_reference_on_small_systems(system):
    _assert_hours_match_reference(system)


# --- recorded pivot paths -----------------------------------------------------

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


def _random_family(rng):
    """One (c, A) and 12 calls (b, max_iter, tol_opt, pivot_eps) on it.

    Each b is a scaled copy of one of three base vectors, so sign patterns
    and paths repeat, with entries set to zero of either sign.  A may have
    a duplicated row, rank deficient or infeasible by whether the two b
    entries agree; c may be unbounded below.  One call in seven has a
    small cap and one in eight tolerances that change pivot decisions.
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
        tols = (0.3, 0.3) if rng.integers(8) == 0 else (TOL_OPT, PIVOT_EPS)
        calls.append((b, max_iter) + tols)
    return c, A, calls


def test_shared_paths_match_reference_on_random_families(monkeypatch):
    """Each b solved twice through its family's trie, the second time under
    another cap; walks that need no tableau must reach every status."""
    tableau = _count_calls(monkeypatch, "_two_phase")
    rng = np.random.default_rng(61)
    walked = set()
    for _ in range(200):
        c, A, calls = _random_family(rng)
        paths = {}
        for b, max_iter, tol_opt, pivot_eps in calls:
            for cap in (max_iter, 2000 if max_iter < 2000 else int(rng.integers(1, 8))):
                solves = len(tableau)
                args = (c, A, b, TOL_FEAS, tol_opt, pivot_eps, cap)
                st = _assert_matches_reference(args, paths)[0]
                if len(tableau) == solves:
                    walked.add(st)
    assert walked == {
        _kernels.OPTIMAL,
        _kernels.INFEASIBLE,
        _kernels.UNBOUNDED,
        _kernels.RANK_DEFICIENT,
        _kernels.NUMERICAL,
    }


def _phase1_ends(trie):
    """The nodes below the root of ``trie``, a (root, shared) value of a
    ``paths`` dict, where phase 1 ended optimal."""
    ends, stack = [], [trie[0]]
    while stack:
        node = stack.pop()
        if node and node[0] >= 0:
            stack.extend(node[5::4])
        elif node and node[0] == _kernels._OPTIMAL:
            ends.append(node)
    return ends


def test_phase1_end_reached_first_by_infeasible_then_by_feasible_b():
    A = np.array([
        [1.0, 2.0, 1.0, 2.0, 2.0],
        [0.0, 2.0, 0.0, 2.0, 1.0],
        [0.0, 1.0, 2.0, 2.0, 1.0],
    ])
    c = np.array([3.0, 3.0, 2.0, 1.0, 2.0])
    infeasible, feasible = np.array([2.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0])
    paths = {}

    def status(b):
        args = (c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, 2000)
        return _assert_matches_reference(args, paths)[0]

    assert status(infeasible) == _kernels.INFEASIBLE
    (root,) = paths.values()
    (end,) = _phase1_ends(root)
    assert end == [_kernels._OPTIMAL]  # no drive-out recorded yet
    assert status(feasible) == _kernels.OPTIMAL
    assert _phase1_ends(root) == [end]
    assert len(end) == 3 and len(end[1]) == 1  # one drive-out pivot
    assert (status(infeasible), status(feasible)) == (_kernels.INFEASIBLE, _kernels.OPTIMAL)


def test_path_recorded_under_a_cap_is_walked_past_it(monkeypatch):
    tableau = _count_calls(monkeypatch, "_two_phase")
    system = fleet_system(np.random.default_rng(4))
    c, A = _template(system)
    for h in range(0, system.horizon, 24):
        b = hourly_rhs(system, h)
        cap = simplex_reference(c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, 2000)[2] // 2
        paths = {}
        for max_iter, tableau_solves in ((cap, 1), (2000, 1), (cap, 0), (2000, 0)):
            del tableau[:]
            args = (c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, max_iter)
            st = _assert_matches_reference(args, paths)[0]
            assert st == (_kernels.NUMERICAL if max_iter == cap else _kernels.OPTIMAL)
            assert len(tableau) == tableau_solves, (h, max_iter)


def test_walk_misses_on_a_leaving_row_with_no_record_and_one_tableau_adds_it(monkeypatch):
    """Both rows are eligible at the first pivot and the two b pick
    different ones: the second b reaches the recorded root, finds no record
    of its leaving row and misses; one tableau solve then adds exactly that
    edge, and a second pass walks it."""
    tableau = _count_calls(monkeypatch, "_two_phase")
    A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    c = np.array([1.0, 0.0, 0.0])
    first, second = np.array([1.0, 2.0]), np.array([2.0, 1.0])
    paths = {}

    def solve(b):
        return _assert_matches_reference((c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, 2000), paths)

    solve(first)
    ((root, _),) = paths.values()
    assert root[:2] == [0, (0, 1.0, 1, 1.0)]  # column 0 enters, both rows eligible
    assert root[2::4] == [0]
    recorded = root[:]
    assert _kernels._walk(root, second.tolist(), [3, 4], 2, TOL_FEAS, 2000) == (None, 0)
    del tableau[:]
    solve(second)
    assert len(tableau) == 1
    assert root[2::4] == [0, 1]
    assert all(a is b for a, b in zip(root, recorded))  # row 0's record untouched
    del tableau[:]
    solve(second)
    assert tableau == []


def _trie_size(paths):
    """(nodes, phase starts) of the tries in a ``paths`` dict: a phase start
    is a root or a phase-2 root."""
    nodes = 0
    stack = [root for root, _ in paths.values()]
    starts = len(stack)
    while stack:
        node = stack.pop()
        nodes += 1
        if node and node[0] >= 0:
            stack.extend(node[5::4])
        elif len(node) == 3 and node[2] is not None:
            stack.append(node[2])
            starts += 1
    return nodes, starts


def test_trie_holds_no_more_nodes_than_the_pivots_it_recorded(monkeypatch):
    """Each node but a phase start is the child a tableau pivot led to, and
    a tableau solve adds at most one root and one phase-2 root; a second
    pass over the same hours walks every one and adds nothing."""
    pivots = _count_calls(monkeypatch, "_pivot")
    tableau = _count_calls(monkeypatch, "_two_phase")
    system = fleet_system(np.random.default_rng(4))
    c, A = _template(system)
    bs = [hourly_rhs(system, h) for h in range(system.horizon)]
    paths = {}
    for b in bs:
        _kernels.simplex(c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, 2000, paths)
        nodes, starts = _trie_size(paths)
        assert nodes - starts <= len(pivots)
        assert starts <= 2 * len(tableau)
    size = _trie_size(paths)
    del pivots[:], tableau[:]
    for b in bs:
        _kernels.simplex(c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, 2000, paths)
    assert pivots == tableau == []
    assert _trie_size(paths) == size
