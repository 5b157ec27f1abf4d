"""Reference implementations used to validate the simplex solver.

``enumerate_lp`` deliberately avoids the package's own factorisation and
pivoting code: bases are enumerated exhaustively and solved with
numpy.linalg, so agreement with ``tsagg.solve`` is a genuine two-route
check rather than the same algorithm run twice.

``basis_eval_reference`` and ``simplex_reference`` are the earlier kernels:
the first indexes numpy scalars one element at a time, the second pivots a
dense numpy tableau that still carries the m artificial columns.  They are
kept verbatim as the slow reference: the kernels in ``tsagg._kernels`` must
return bitwise the same results, and for the simplex the same status,
pivot count and basis.

``kmeans_reference`` and ``input_mse_reference`` are the earlier k-means:
(H, k) distance temporaries per Lloyd step, ``argmin`` labels and
``np.add.at`` member sums.  ``tsagg.tsa_clustering`` must give the same
assignment, centroids and ``input_mse`` in raw bytes.
"""

from __future__ import annotations

import itertools

import numpy as np

from tsagg._kernels import INFEASIBLE, NUMERICAL, OPTIMAL, RANK_DEFICIENT, UNBOUNDED
from tsagg.tsa_clustering import (
    ClusterMethod,
    ClusterModel,
    KExceedsHError,
    _kmeans_pp,
    _order_by_first_occurrence,
    _reseed_empty,
)


def _basic_solution(A, b, cols, res_tol=1e-7):
    """Solve the square basis system for ``cols``; None when unusable."""
    B = A[:, cols]
    try:
        xb = np.linalg.solve(B, b)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(xb).all():
        return None
    # Guard against near-singular bases whose "solution" is garbage.
    if np.abs(B @ xb - b).max() > res_tol * (1.0 + np.abs(xb).max()):
        return None
    return xb


def enumerate_lp(c, A, b, feas_tol=1e-9):
    """Classify min c.x s.t. Ax=b, x>=0 by exhaustive basis enumeration.

    Returns (status, objective, x) with status in
    {"optimal", "infeasible", "unbounded"}.  Assumes rank(A) == m.  The
    feasible case relies on the fundamental theorem of LP (an attained
    optimum sits at a basic feasible solution); unboundedness is decided
    by enumerating the normalised recession problem
    min c.d s.t. Ad = 0, sum(d) = 1, d >= 0, whose feasible set is compact.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape

    best = None
    best_x = None
    for cols in itertools.combinations(range(n), m):
        xb = _basic_solution(A, b, list(cols))
        if xb is None:
            continue
        if xb.min(initial=np.inf) < -feas_tol:
            continue
        obj = float(c[list(cols)] @ xb)
        if best is None or obj < best:
            best = obj
            x = np.zeros(n)
            x[list(cols)] = xb
            best_x = x
    if best is None:
        return "infeasible", None, None

    A2 = np.vstack([A, np.ones(n)])
    b2 = np.append(np.zeros(m), 1.0)
    scale = max(1.0, np.abs(c).max())
    for cols in itertools.combinations(range(n), m + 1):
        if m + 1 > n:
            break
        d = _basic_solution(A2, b2, list(cols))
        if d is None:
            continue
        if d.min(initial=np.inf) < -feas_tol:
            continue
        if float(c[list(cols)] @ d) < -1e-9 * scale:
            return "unbounded", None, None
    return "optimal", best, best_x


def random_lp_data(rng, max_m=5, max_n=10):
    """Random standard-form data with a healthy optimal/infeasible/unbounded mix."""
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(m, max_n + 1))
    A = rng.normal(size=(m, n))
    if rng.integers(2) == 0:
        x0 = rng.uniform(0.0, 1.0, n)
        b = A @ x0  # feasible by construction
    else:
        b = rng.normal(size=m)
    if rng.integers(2) == 0:
        c = rng.uniform(0.0, 1.0, n)  # bounded below whenever feasible
    else:
        c = rng.normal(size=n)
    return c, A, b


def _lu_factor(M, perm, pivot_eps):
    """LU-factorise square M in place with partial pivoting.

    ``perm`` records the row swap made at each elimination step.  Returns
    False as soon as the best available pivot magnitude drops below
    ``pivot_eps`` (near-singular matrix).
    """
    m = M.shape[0]
    for k in range(m):
        p = k
        best = abs(M[k, k])
        for i in range(k + 1, m):
            v = abs(M[i, k])
            if v > best:
                best = v
                p = i
        if best < pivot_eps:
            return False
        perm[k] = p
        if p != k:
            for j in range(m):
                t = M[k, j]
                M[k, j] = M[p, j]
                M[p, j] = t
        piv = M[k, k]
        for i in range(k + 1, m):
            l = M[i, k] / piv
            M[i, k] = l
            for j in range(k + 1, m):
                M[i, j] -= l * M[k, j]
    return True


def _lu_solve(LU, perm, rhs):
    m = LU.shape[0]
    x = rhs.copy()
    for k in range(m):
        p = perm[k]
        if p != k:
            t = x[k]
            x[k] = x[p]
            x[p] = t
    for i in range(1, m):
        s = x[i]
        for j in range(i):
            s -= LU[i, j] * x[j]
        x[i] = s
    for i in range(m - 1, -1, -1):
        s = x[i]
        for j in range(i + 1, m):
            s -= LU[i, j] * x[j]
        x[i] = s / LU[i, i]
    return x


def basis_eval_reference(c, A, b, basis, pivot_eps):
    """Evaluate a basis B = A[:, basis]: x_B = B^-1 b, duals, reduced costs.

    Returns (ok, x, reduced_costs, objective).  ok is False when a
    factorisation pivot falls below ``pivot_eps``.  Reduced costs at basic
    indices are zeroed exactly.
    """
    m = A.shape[0]
    n = A.shape[1]
    B = np.empty((m, m))
    Bt = np.empty((m, m))
    cb = np.empty(m)
    for k in range(m):
        jc = basis[k]
        cb[k] = c[jc]
        for i in range(m):
            B[i, k] = A[i, jc]
            Bt[k, i] = A[i, jc]
    perm = np.empty(m, np.int64)
    if not _lu_factor(B, perm, pivot_eps):
        return False, np.zeros(n), np.zeros(n), 0.0
    xb = _lu_solve(B, perm, b)
    permt = np.empty(m, np.int64)
    if not _lu_factor(Bt, permt, pivot_eps):
        return False, np.zeros(n), np.zeros(n), 0.0
    y = _lu_solve(Bt, permt, cb)
    rc = np.empty(n)
    for j in range(n):
        rc[j] = c[j]
    for i in range(m):
        yi = y[i]
        for j in range(n):
            rc[j] -= yi * A[i, j]
    x = np.zeros(n)
    obj = 0.0
    for k in range(m):
        x[basis[k]] = xb[k]
        obj += cb[k] * xb[k]
        rc[basis[k]] = 0.0
    return True, x, rc, obj


def _pivot_np(T, basis, r, jc):
    T[r] *= 1.0 / T[r, jc]
    T[r, jc] = 1.0
    f = T[:, jc].copy()
    f[r] = 0.0
    T -= f[:, None] * T[r]
    T[:, jc] = 0.0
    T[r, jc] = 1.0
    basis[r] = jc


def _pivot_loop_np(T, basis, m, n_enter, tol_opt, pivot_eps, max_iter, iters):
    """Run Bland pivots until optimal (0), unbounded (2) or the cap (4)."""
    rhs = T.shape[1] - 1
    row = T[m]
    while iters < max_iter:
        neg = np.nonzero(row[:n_enter] < -tol_opt)[0]
        if neg.size == 0:
            return 0, iters
        enter = neg[0]
        col = T[:m, enter]
        elig = col > pivot_eps
        if not elig.any():
            return 2, iters
        ratios = np.full(m, np.inf)
        ratios[elig] = T[:m, rhs][elig] / col[elig]
        best = ratios.min()
        ties = np.nonzero(ratios == best)[0]
        leave = ties[np.argmin(basis[ties])]
        _pivot_np(T, basis, leave, enter)
        iters += 1
    return 4, iters


def simplex_reference(c, A, b, tol_feas, tol_opt, pivot_eps, max_iter):
    m, n = A.shape
    ncol = n + m + 1
    rhs = ncol - 1
    T = np.zeros((m + 1, ncol))
    basis = np.arange(n, n + m, dtype=np.int64)
    for i in range(m):
        if b[i] < 0.0:
            T[i, :n] = -A[i]
            T[i, rhs] = -b[i]
        else:
            T[i, :n] = A[i]
            T[i, rhs] = b[i]
        T[i, n + i] = 1.0
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


def _point_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances (H, k), accumulated feature by feature."""
    d2 = np.zeros((X.shape[0], centroids.shape[0]))
    for f in range(X.shape[1]):
        diff = X[:, f, None] - centroids[None, :, f]
        d2 += diff * diff
    return d2


def _member_means(values, assignment, k):
    """(k, F) mean of the rows of ``values`` assigned to each cluster id."""
    sums = np.zeros((k, values.shape[1]))
    np.add.at(sums, assignment, values)
    return sums / np.bincount(assignment, minlength=k)[:, None]


def _lloyd(X, centroids, max_iter, tol):
    H = X.shape[0]
    k = centroids.shape[0]
    labels = np.full(H, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = _point_distances(X, centroids)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            _reseed_empty(new_labels, counts, d2[np.arange(H), new_labels], k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        updated = _member_means(X, labels, k)
        if np.abs(updated - centroids).max() < tol:
            centroids = updated
            break
        centroids = updated
    # Every exit leaves centroids as the exact member means of labels.
    inertia = float(_point_distances(X, centroids)[np.arange(H), labels].sum())
    return labels, centroids, inertia


def kmeans_reference(
    features,
    k: int,
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-6,
    restarts: int = 10,
) -> ClusterModel:
    X = features.values
    if not 1 <= k <= features.H:
        raise KExceedsHError(f"k={k} outside [1, {features.H}]")
    streams = np.random.SeedSequence(seed).spawn(restarts)
    best = None
    for stream in streams:
        rng = np.random.default_rng(stream)
        init = _kmeans_pp(X, k, rng)
        labels, centroids, inertia = _lloyd(X, init, max_iter, tol)
        if best is None or inertia < best[0]:
            best = (inertia, labels, centroids)
    _, labels, centroids = best
    labels, centroids = _order_by_first_occurrence(labels, centroids, k)
    weights = np.bincount(labels, minlength=k)
    return ClusterModel(
        k,
        centroids,
        labels,
        weights,
        ClusterMethod.KMEANS,
        labels=tuple(f"cluster {i}" for i in range(k)),
    )


def input_mse_reference(features, model) -> float:
    d2 = _point_distances(features.values, model.centroids)
    per_point = d2[np.arange(features.H), model.assignment]
    return float(per_point.sum() / (features.H * features.F))
