"""Dense simplex and basis-evaluation kernels.

A vectorised numpy Bland pivot loop plus a hand-written LU for evaluating
a given basis.  The LU runs on Python-float lists: they are IEEE binary64
with the same rounding as numpy float64 scalars, so each value equals what
the same loops give on numpy scalars, only with less interpreter overhead.
Pivot decisions must not change: the basis of every hour, and through it
every CLI output byte, is pinned by the tests and by the benchmark digests.
Any edit here has to keep each float produced by the same operations in
the same order; ``tests/oracles.py`` keeps the earlier element-by-element
kernels as the bitwise reference.  Kernels return integer status codes;
the public wrappers in ``lp_core`` translate them into exceptions and enums.
"""

from __future__ import annotations

import numpy as np

# Kernel status codes.
OPTIMAL = 0
INFEASIBLE = 1
UNBOUNDED = 2
RANK_DEFICIENT = 3
NUMERICAL = 4

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Factorisation helpers.
# ---------------------------------------------------------------------------

def _lu_factor(M, perm, pivot_eps):
    """LU-factorise square M (a list of row lists) in place, partial pivoting.

    ``perm`` records the row swap made at each elimination step.  Returns
    False as soon as the best available pivot magnitude drops below
    ``pivot_eps`` (near-singular matrix).
    """
    m = len(M)
    for k in range(m):
        p = k
        best = abs(M[k][k])
        for i in range(k + 1, m):
            v = abs(M[i][k])
            if v > best:
                best = v
                p = i
        if best < pivot_eps:
            return False
        perm[k] = p
        if p != k:
            M[k], M[p] = M[p], M[k]
        rk = M[k]
        piv = rk[k]
        tail = rk[k + 1:]
        for i in range(k + 1, m):
            ri = M[i]
            l = ri[k] / piv
            ri[k] = l
            ri[k + 1:] = [v - l * u for v, u in zip(ri[k + 1:], tail)]
    return True


def _lu_solve(LU, perm, rhs):
    m = len(LU)
    x = list(rhs)
    for k in range(m):
        p = perm[k]
        if p != k:
            x[k], x[p] = x[p], x[k]
    for i in range(1, m):
        s = x[i]
        row = LU[i]
        for j in range(i):
            s -= row[j] * x[j]
        x[i] = s
    for i in range(m - 1, -1, -1):
        s = x[i]
        row = LU[i]
        for j in range(i + 1, m):
            s -= row[j] * x[j]
        x[i] = s / row[i]
    return x


def basis_eval(c, A, b, basis, pivot_eps):
    """Evaluate a basis B = A[:, basis]: x_B = B^-1 b, duals, reduced costs.

    Returns (ok, x, reduced_costs, objective).  ok is False when a
    factorisation pivot falls below ``pivot_eps``.  Reduced costs at basic
    indices are zeroed exactly.
    """
    m, n = A.shape
    B = A[:, basis]
    cb = c[basis].tolist()
    perm = [0] * m
    LU = B.tolist()
    if not _lu_factor(LU, perm, pivot_eps):
        return False, np.zeros(n), np.zeros(n), 0.0
    xb = _lu_solve(LU, perm, b.tolist())
    LUt = B.T.tolist()
    if not _lu_factor(LUt, perm, pivot_eps):
        return False, np.zeros(n), np.zeros(n), 0.0
    y = _lu_solve(LUt, perm, cb)
    # Row by row, so each element sees its m subtractions in the order i.
    rc = c.copy()
    for i in range(m):
        rc -= y[i] * A[i]
    obj = 0.0
    for k in range(m):
        obj += cb[k] * xb[k]
    x = np.zeros(n)
    x[basis] = xb
    rc[basis] = 0.0
    return True, x, rc, obj


# ---------------------------------------------------------------------------
# Vectorised simplex.  Row updates are elementwise and reductions are
# accumulated row by row in a fixed order; changing either can flip a ratio
# or reduced-cost tie and so change the pinned bases.
# ---------------------------------------------------------------------------

def _pivot_np(T, basis, r, jc):
    # Column jc is overwritten with the unit vector at the end, so what the
    # row update leaves in it is never read.
    Tr = T[r]
    Tr *= 1.0 / Tr[jc]
    f = T[:, jc].copy()
    f[r] = 0.0
    T -= np.multiply.outer(f, Tr)
    T[:, jc] = 0.0
    Tr[jc] = 1.0
    basis[r] = jc


def _pivot_loop_np(T, basis, m, n_enter, tol_opt, pivot_eps, max_iter, iters):
    """Run Bland pivots until optimal (0), unbounded (2) or the cap (4)."""
    row = T[m, :n_enter]
    rhs = T[:m, -1]
    ratios = np.empty(m)
    while iters < max_iter:
        neg = row < -tol_opt
        enter = neg.argmax()  # Bland: the first improving column
        if not neg[enter]:
            return 0, iters
        col = T[:m, enter]
        elig = col > pivot_eps
        if not elig.any():
            return 2, iters
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=elig)
        # Bland: among rows at the minimum ratio, the smallest basic index.
        ties = (ratios == ratios.min()).nonzero()[0]
        leave = ties[0] if ties.size == 1 else ties[basis[ties].argmin()]
        _pivot_np(T, basis, leave, enter)
        iters += 1
    return 4, iters


def _simplex_numpy(c, A, b, tol_feas, tol_opt, pivot_eps, max_iter):
    m, n = A.shape
    ncol = n + m + 1
    rhs = ncol - 1
    T = np.zeros((m + 1, ncol))
    basis = np.arange(n, n + m, dtype=np.int64)
    T[:m, :n] = A
    T[:m, rhs] = b
    flip = np.flatnonzero(b < 0.0)
    T[flip, :n] = -A[flip]
    T[flip, rhs] = -b[flip]
    T[:m, n:rhs] = np.eye(m)
    # Phase 1: minimise the artificial sum; its reduced-cost row is the
    # negated column sums of the (sign-fixed) constraint rows.
    for i in range(m):
        T[m, :n] -= T[i, :n]
        T[m, rhs] -= T[i, rhs]
    status, iters = _pivot_loop_np(T, basis, m, n, tol_opt, pivot_eps, max_iter, 0)
    if status != 0:
        # Phase 1 is bounded below by zero, so failing to pivot is numeric.
        return NUMERICAL, basis, iters
    if -T[m, rhs] > tol_feas:
        return INFEASIBLE, basis, iters
    # Drive artificials that linger degenerately at level zero out of the
    # basis; a row with no eligible original column is redundant.
    for i in range(m):
        if basis[i] >= n:
            nz = np.nonzero(np.abs(T[i, :n]) > pivot_eps)[0]
            if nz.size == 0:
                return RANK_DEFICIENT, basis, iters
            _pivot_np(T, basis, i, nz[0])
            iters += 1
    # Phase 2: rebuild the reduced-cost row from the true costs.
    T[m, :n] = c
    T[m, n:] = 0.0
    for i in range(m):
        cb = c[basis[i]]
        if cb != 0.0:
            T[m] -= cb * T[i]
    status, iters = _pivot_loop_np(T, basis, m, n, tol_opt, pivot_eps, max_iter, iters)
    if status == 2:
        return UNBOUNDED, basis, iters
    if status != 0:
        return NUMERICAL, basis, iters
    return OPTIMAL, basis, iters


simplex = _simplex_numpy
