"""Simplex kernel guards: pinned pivot sequence and basis evaluation."""

import hashlib

import numpy as np
import pytest

from oracles import random_lp_data
from tsagg import _kernels
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
    perm = np.empty(2, np.int64)
    assert not _kernels._lu_factor(M.copy(), perm, PIVOT_EPS)
    ident = np.eye(3)
    perm3 = np.empty(3, np.int64)
    assert _kernels._lu_factor(ident.copy(), perm3, PIVOT_EPS)
