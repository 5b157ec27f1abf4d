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
k-means++ seeding by row sums over (H, F), one restart at a time, (H, k)
distance temporaries per Lloyd step, ``argmin`` labels and ``np.add.at``
member sums.  ``tsagg.tsa_clustering`` must give the same
assignment, centroids and ``input_mse`` in raw bytes.  The reference returns
the centroids its own Lloyd loop computed in a plain record, not a
``ClusterModel``, which would derive them again with the package's code.

``regime_fractions_reference`` and ``write_series_reference`` are the
earlier per-hour loop and per-row CSV writer of ``tsagg.data_io``: the
array versions must give the same dict, key order included, and the same
file bytes.

``dual_certificate`` prices every hour with the dual vertex of each
distinct optimal basis, y_j = B_j^-T c_B.  The optimal cost is the largest
of these prices (LP duality), so it checks each hour's objective and basis
without the simplex.  ``exact_basis_check`` is its exact companion: it
checks in rational arithmetic whether each hour's basis is primal and dual
feasible, strictly or with a zero, so it grades the solver's float
tolerances against exact truth.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from tsagg._kernels import INFEASIBLE, NUMERICAL, OPTIMAL, RANK_DEFICIENT, UNBOUNDED
from tsagg.dispatch_model import NSE_NAME, _template, hourly_rhs
from tsagg.tsa_clustering import (
    ClusterMethod,
    KExceedsHError,
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
        # The first eligible row leads; a later one replaces it only with
        # a smaller ratio, or an equal one and a smaller basic index.  So
        # a NaN or infinite ratio (an overflowed tableau) is never skipped.
        rows = np.nonzero(elig)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = T[rows, rhs] / col[rows]
        leave, best = rows[0], ratios[0]
        for i, q in zip(rows[1:], ratios[1:]):
            if q < best or (q == best and basis[i] < basis[leave]):
                leave, best = i, q
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


def _kmeans_pp(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    H = X.shape[0]
    chosen = [int(rng.integers(H))]
    d2 = ((X - X[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            j = int(rng.integers(H))  # every point already sits on a centroid
        else:
            j = int(rng.choice(H, p=d2 / total))
        chosen.append(j)
        d2 = np.minimum(d2, ((X - X[j]) ** 2).sum(axis=1))
    return X[np.array(chosen)].copy()


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
) -> SimpleNamespace:
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
    return SimpleNamespace(
        k=k,
        centroids=centroids,
        assignment=labels,
        weights=np.bincount(labels, minlength=k),
        method=ClusterMethod.KMEANS,
        labels=tuple(f"cluster {i}" for i in range(k)),
    )


def input_mse_reference(features, model) -> float:
    d2 = _point_distances(features.values, model.centroids)
    per_point = d2[np.arange(features.H), model.assignment]
    return float(per_point.sum() / (features.H * features.F))


def regime_fractions_reference(system) -> dict[str, float]:
    H = system.horizon
    order = sorted(
        range(system.size), key=lambda g: (system.generators[g].variable_cost, g)
    )
    counts: dict[str, int] = {}
    headroom = np.empty((system.size, H))
    for g, gen in enumerate(system.generators):
        if gen.is_variable:
            headroom[g] = gen.capacity * system.capacity_factors[gen.cf_series_id]
        else:
            headroom[g] = gen.capacity
        headroom[g] -= gen.p_min
    floors = float(sum(g.p_min for g in system.generators))
    for hidx in range(H):
        cum = floors
        label = "infeasible"
        for g in order if floors <= system.demand[hidx] else ():
            cum += headroom[g, hidx]
            if cum >= system.demand[hidx]:
                gen = system.generators[g]
                label = NSE_NAME if gen.name == NSE_NAME else f"{gen.name} marginal"
                break
        counts[label] = counts.get(label, 0) + 1
    return {label: n / H for label, n in counts.items()}


def write_series_reference(bundle, path) -> None:
    demand = bundle.demand
    cfs = bundle.capacity_factors
    names = sorted(cfs)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["hour", "demand"] + [f"cf_{n}" for n in names])
        for h in range(len(demand)):
            writer.writerow(
                [h, repr(float(demand[h]))]
                + [repr(float(cfs[n][h])) for n in names]
            )


def load_series_reference(path):
    """``load_series``'s earlier row-by-row parse: (demand, {cf id: array}).

    It reads the header and every row in file order and raises the
    package's errors with the same messages and line numbers.
    """
    from tsagg.data_io import NonContiguousHoursError, OutOfRangeCFError, ParseError

    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ParseError("empty series file", 1)
    header = [cell.strip() for cell in rows[0]]
    if header[:2] != ["hour", "demand"]:
        raise ParseError(f"header must start with hour,demand; got {header}", 1)
    cf_names = []
    for cell in header[2:]:
        if not cell.startswith("cf_") or len(cell) <= 3:
            raise ParseError(f"capacity factor column {cell!r} must be cf_<id>", 1)
        cf_names.append(cell[3:])
    if len(set(cf_names)) != len(cf_names):
        raise ParseError(f"duplicate capacity factor columns in {header}", 1)
    demand = []
    cfs = [[] for _ in cf_names]
    for i, row in enumerate(rows[1:]):
        line = i + 2
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", line)
        try:
            hour = int(row[0])
        except ValueError as exc:
            raise ParseError(f"bad hour {row[0]!r}", line) from exc
        if hour != i:
            raise NonContiguousHoursError(f"hour {hour} out of order (expected {i})", line)
        try:
            d = float(row[1])
        except ValueError as exc:
            raise ParseError(f"bad demand {row[1]!r}", line) from exc
        if not math.isfinite(d) or d < 0.0:
            raise ParseError(f"demand {d} must be finite and >= 0", line)
        demand.append(d)
        for j, cell in enumerate(row[2:]):
            try:
                v = float(cell)
            except ValueError as exc:
                raise ParseError(f"bad capacity factor {cell!r}", line) from exc
            if not math.isfinite(v) or v < 0.0 or v > 1.0:
                raise OutOfRangeCFError(v, line)
            cfs[j].append(v)
    if not demand:
        raise ParseError("series file has a header but no rows", 2)
    return np.array(demand), {name: np.array(col) for name, col in zip(cf_names, cfs)}


def dual_certificate(system, dispatch):
    """(Z, own): Z[h, j] = y_j . b_h for each distinct basis j of ``dispatch``
    (a full solution of ``system``), and ``own[h]`` the id of hour h's basis."""
    c, A = _template(system)
    own, bases = dispatch.basis_ids, dispatch.distinct_bases
    Y = np.array([
        np.linalg.solve(A[:, list(basis.indices)].T, c[list(basis.indices)])
        for basis in bases
    ])
    R = np.array([hourly_rhs(system, h) for h in range(system.horizon)])
    return R @ Y.T, own


def _exact_inverse(B):
    """B^-1 of a square list of Fraction rows by Gauss-Jordan elimination,
    or None if B is singular."""
    m = len(B)
    M = [row[:] + [Fraction(int(i == k)) for k in range(m)] for i, row in enumerate(B)]
    for k in range(m):
        p = next((i for i in range(k, m) if M[i][k] != 0), None)
        if p is None:
            return None
        M[k], M[p] = M[p], M[k]
        piv = M[k][k]
        M[k] = [v / piv for v in M[k]]
        for i in range(m):
            f = M[i][k]
            if i != k and f != 0:
                M[i] = [v - f * u for v, u in zip(M[i], M[k])]
    return [row[m:] for row in M]


def exact_basis_check(system, dispatch):
    """(primal, dual, weak) for ``dispatch``, a full solution of ``system``:
    ``primal`` lists the hours whose x_B = B^-1 b_h has a negative entry,
    ``dual`` those whose basis has a negative reduced cost c - A^T B^-T c_B,
    and ``weak`` the other hours with an exact zero in x_B or in a nonbasic
    reduced cost.

    Everything is exact: each float of c, A and b_h is read as the rational
    it stores, and B^-1 is computed once per distinct basis with
    ``fractions.Fraction``.  An hour in neither ``primal`` nor ``dual`` is
    optimal for its basis in exact arithmetic, not only within the solver's
    tolerances; one outside ``weak`` too is strict, its optimum unique, so
    any correct method returns that basis.  A weak hour is optimal and
    degenerate, and Bland's rule picks among its optimal bases.
    """
    c, A = _template(system)
    A = [[Fraction(v) for v in row] for row in A.tolist()]
    c = [Fraction(v) for v in c.tolist()]
    own, bases = dispatch.basis_ids, dispatch.distinct_bases
    inverses, lowest_reduced = [], []
    for basis in bases:
        inv = _exact_inverse([[row[k] for k in basis.indices] for row in A])
        if inv is None:
            raise ValueError(f"basis {basis.indices} is singular")
        inverses.append([[(k, v) for k, v in enumerate(row) if v] for row in inv])
        cb = [c[i] for i in basis.indices]
        y = [sum(ci * row[k] for ci, row in zip(cb, inv)) for k in range(len(inv))]
        lowest_reduced.append(min(
            (cj - sum(yk * row[jj] for yk, row in zip(y, A))
             for jj, cj in enumerate(c) if jj not in basis.indices), default=1))
    primal, dual, weak = [], [], []
    for h, j in enumerate(own.tolist()):
        b = [Fraction(v) for v in hourly_rhs(system, h).tolist()]
        lowest_x = min(sum(v * b[k] for k, v in row) for row in inverses[j])
        if lowest_x < 0:
            primal.append(h)
        if lowest_reduced[j] < 0:
            dual.append(h)
        if min(lowest_x, lowest_reduced[j]) == 0:
            weak.append(h)
    return primal, dual, weak
