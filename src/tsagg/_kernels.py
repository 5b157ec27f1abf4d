"""Dense simplex and basis-evaluation kernels.

A two-phase Bland simplex on a tableau of Python-float lists, plus a
hand-written LU for evaluating a given basis, also on lists.  Python floats
are IEEE binary64 with the same rounding as numpy float64 scalars, so each
value equals what the same operations give in numpy; at these sizes (a few
rows, tens of columns) lists avoid numpy's per-call overhead.  A pivot
skips the rows whose entry in the pivot column is exactly zero and the
columns where the pivot row is exactly zero.  That can flip the sign of a
zero entry but never a decision or a nonzero value.  The tableau also
leaves out phase 1's artificial columns: no decision and no other column
ever reads them, so they are write-only (both arguments are in
``simplex``).

Pivot decisions must not change: the basis of every hour, and through it
every CLI output byte, is pinned by the tests and by the benchmark digests.
Any edit here has to keep each nonzero float produced by the same
operations in the same order; ``tests/oracles.py`` keeps the earlier numpy
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

# One backend only; the name is kept because benchmark records report it.
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


def _basis_factor(c, A, basis, pivot_eps):
    """The b-independent half of a basis evaluation, or None if B is singular.

    Returns (LU of B, its perm, c_B, reduced costs).  The duals
    y = B^-T c_B are solved on their own LU of B^T: solving them with the
    LU of B would round them differently and move the pinned outputs.
    """
    m = A.shape[0]
    B = A[:, basis]
    perm = [0] * m
    LU = B.tolist()
    if not _lu_factor(LU, perm, pivot_eps):
        return None
    permt = [0] * m
    LUt = B.T.tolist()
    if not _lu_factor(LUt, permt, pivot_eps):
        return None
    cb = c[basis].tolist()
    y = _lu_solve(LUt, permt, cb)
    # Row by row, so each element sees its m subtractions in the order i.
    rc = c.copy()
    for i in range(m):
        rc -= y[i] * A[i]
    rc[basis] = 0.0
    return LU, perm, cb, rc


def basis_eval(c, A, b, basis, pivot_eps, factors=None):
    """Evaluate a basis B = A[:, basis]: x_B = B^-1 b, duals, reduced costs.

    Returns (ok, x, reduced_costs, objective).  ok is False when a
    factorisation pivot falls below ``pivot_eps``.  Reduced costs at basic
    indices are zeroed exactly.

    Only x_B and the objective depend on b.  ``factors``, when given, is a
    dict that keeps the rest per basis (None for a singular one) across
    calls; it must only ever be passed with this same c and A.  The arrays
    returned are fresh either way.
    """
    if factors is None:
        factor = _basis_factor(c, A, basis, pivot_eps)
    else:
        key = basis.tobytes()
        if key in factors:
            factor = factors[key]
        else:
            factor = factors[key] = _basis_factor(c, A, basis, pivot_eps)
    n = A.shape[1]
    if factor is None:
        return False, np.zeros(n), np.zeros(n), 0.0
    LU, perm, cb, rc = factor
    xb = _lu_solve(LU, perm, b.tolist())
    obj = 0.0
    for k in range(len(xb)):
        obj += cb[k] * xb[k]
    x = np.zeros(n)
    x[basis] = xb
    return True, x, rc.copy(), obj


# ---------------------------------------------------------------------------
# Two-phase Bland simplex on a tableau of Python-float lists.
# ---------------------------------------------------------------------------

def _pivot(T, basis, r, jc):
    """Pivot row ``r`` onto column ``jc``: the dense update minus exact zeros.

    Row r is scaled by ``inv = 1.0 / T[r][jc]``; every other row i,
    objective row included, becomes ``v - f * u`` with ``f = T[i][jc]``,
    but only where f and the pivot row entry u are nonzero.  Column jc is
    then the unit vector at r.
    """
    inv = 1.0 / T[r][jc]
    Tr = T[r] = [v * inv for v in T[r]]
    Tr[jc] = 0.0  # keeps jc out of the update; column jc is set below
    pairs = [(j, u) for j, u in enumerate(Tr) if u]
    Tr[jc] = 1.0
    for i, Ti in enumerate(T):
        f = Ti[jc]
        if f == 0.0 or i == r:
            continue
        for j, u in pairs:
            Ti[j] -= f * u
        Ti[jc] = 0.0
    basis[r] = jc


def _pivot_loop(T, basis, m, n_enter, tol_opt, pivot_eps, max_iter, iters):
    """Run Bland pivots until optimal (0), unbounded (2) or the cap (4)."""
    ntol = -tol_opt
    while iters < max_iter:
        row = T[m]
        for enter in range(n_enter):  # Bland: the first improving column
            if row[enter] < ntol:
                break
        else:
            return 0, iters
        # Minimum ratio over the eligible rows; among rows at the minimum,
        # the smallest basic index (Bland).
        leave = -1
        for i in range(m):
            Ti = T[i]
            v = Ti[enter]
            if v > pivot_eps:
                q = Ti[-1] / v
                if leave < 0 or q < best or (q == best and basis[i] < basis[leave]):
                    best = q
                    leave = i
        if leave < 0:
            return 2, iters
        _pivot(T, basis, leave, enter)
        iters += 1
    return 4, iters


def simplex(c, A, b, tol_feas, tol_opt, pivot_eps, max_iter):
    """Two-phase Bland simplex on min c.x, A x = b, x >= 0.

    Returns (status, basis, iterations): a status code above, the basic
    column of each row as an int64 array (partial unless OPTIMAL) and the
    number of pivots.

    Bland's rule: the entering column is the first j < n with reduced cost
    below ``-tol_opt``; the leaving row has the minimum ratio rhs / col over
    col > ``pivot_eps``, ties going to the smallest basic index.  The
    phase-1 cost row subtracts the rows one by one in order, and the
    phase-2 row is ``row - cb * T[i]`` in order i.

    Skipping exact zeros in a pivot gives the dense update's decisions and
    nonzero values, provided every tableau entry stays finite.  A skipped
    term is ``v - 0 * u`` or ``v - f * 0``, which is v unless v is itself
    zero, and then only the sign of that zero can differ.  A zero's sign
    never reaches a nonzero value: multiplying it gives a zero, adding it
    to a nonzero is exact, and no entry that is zero is ever a divisor,
    since pivots exceed ``pivot_eps`` in magnitude.  And no decision sees
    it: each is a comparison against +-tol, or a ratio with a positive
    divisor compared with another, and +0.0 and -0.0 compare equal.

    The tableau is (m+1) x (n+1): the m artificial columns of the
    textbook phase 1 are left out, because they are write-only.  Phase 1
    starts from the artificial basis, labelled n..n+m-1, with the
    identity in those columns, but no step reads them: entering
    candidates are j < n in both phases, a ratio reads only column
    ``enter`` and the RHS, the drive-out of lingering artificials scans
    only j < n, and a pivot updates each column from that column and the
    pivot column alone.  So every decision, the pivot count and every
    value outside those columns are what the full tableau gives.
    """
    m, n = A.shape
    basis = list(range(n, n + m))
    status, iters = _two_phase(c, A, b, basis, tol_feas, tol_opt, pivot_eps, max_iter)
    return status, np.array(basis, dtype=np.int64), iters


def _two_phase(c, A, b, basis, tol_feas, tol_opt, pivot_eps, max_iter):
    """The body of ``simplex``: returns (status, iterations), pivots ``basis``."""
    m, n = A.shape
    T = []
    for a, bi in zip(A.tolist(), b.tolist()):
        if bi < 0.0:
            a = [-v for v in a]
            bi = -bi
        a.append(bi)
        T.append(a)
    # Phase 1: minimise the artificial sum; its reduced-cost row is the
    # negated column sums of the (sign-fixed) constraint rows.
    obj = [0.0] * (n + 1)
    for Ti in T:
        obj = [v - u for v, u in zip(obj, Ti)]
    T.append(obj)
    status, iters = _pivot_loop(T, basis, m, n, tol_opt, pivot_eps, max_iter, 0)
    if status != 0:
        # Phase 1 is bounded below by zero, so failing to pivot is numeric.
        return NUMERICAL, iters
    if -T[m][-1] > tol_feas:
        return INFEASIBLE, iters
    # Drive artificials that linger degenerately at level zero out of the
    # basis; a row with no eligible original column is redundant.
    for i in range(m):
        if basis[i] >= n:
            Ti = T[i]
            for j in range(n):
                if abs(Ti[j]) > pivot_eps:
                    break
            else:
                return RANK_DEFICIENT, iters
            _pivot(T, basis, i, j)
            iters += 1
    # Phase 2: rebuild the reduced-cost row from the true costs.
    cl = c.tolist()
    obj = cl + [0.0]
    for i in range(m):
        cb = cl[basis[i]]
        if cb != 0.0:
            obj = [v - cb * u for v, u in zip(obj, T[i])]
    T[m] = obj
    status, iters = _pivot_loop(T, basis, m, n, tol_opt, pivot_eps, max_iter, iters)
    if status == 2:
        return UNBOUNDED, iters
    if status != 0:
        return NUMERICAL, iters
    return OPTIMAL, iters
