"""Simplex kernel guards: pinned pivot sequence and basis evaluation."""

import hashlib

import numpy as np
import pytest

from oracles import basis_eval_reference, random_lp_data, simplex_reference
from systems import degenerate_system, fleet_system, random_system
from tsagg import _kernels
from tsagg.data_io import default_spec, generate_synthetic
from tsagg.dispatch_model import _template, hourly_rhs
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
        st, basis, it = _kernels.simplex(c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, 2000)
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
        st, basis, _ = _kernels.simplex(c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, 2000)
        if st != _kernels.OPTIMAL:
            continue
        checked += 1
        idx = np.sort(basis)
        ok, x, rc, obj = _kernels.basis_eval(c, A, b, idx, PIVOT_EPS)
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
        ok, x, rc, obj = _kernels.basis_eval(c, A, b, basis, PIVOT_EPS)
        ok_ref, x_ref, rc_ref, obj_ref = basis_eval_reference(c, A, b, basis, PIVOT_EPS)
        assert ok == ok_ref
        assert _bits(x) == _bits(x_ref)
        assert _bits(rc) == _bits(rc_ref)
        assert _bits(obj) == _bits(obj_ref)
        singular += not ok
    assert singular >= 100


def _assert_hours_match_reference(system):
    c, A = _template(system)
    for h in range(system.horizon):
        b = hourly_rhs(system, h)
        st, basis, it = _kernels.simplex(c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, 2000)
        st_ref, basis_ref, it_ref = simplex_reference(
            c, A, b, TOL_FEAS, TOL_OPT, PIVOT_EPS, 2000
        )
        assert (st, it) == (st_ref, it_ref), h
        assert np.array_equal(basis, basis_ref), h


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
        st, basis, it = _kernels.simplex(*args)
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
