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

A basis factor keeps the LU solves of B and B^T as op lists, and the
duals.  ``simplex`` first tries the optimal bases the tableau has ended in
twice for its (c, A): the most recently accepted one, then the others by
descending dual bound on b, which ranks the only one that can pass first.
It skips the tableau where one is the unique optimum for b, and returns
that basis's x_B, which ``basis_eval`` takes in place of its own solve; so
an hour in a registered cone costs about one LU solve.  That test solve
runs over the basis's nonzero LU terms only, with the dense list's result
bit for bit (see ``_solve``).  A dispatch B is one balance row plus bound
rows, so on a 12-unit fleet (m = 14) a basis keeps about 45 of its 182
terms.  ``dispatch_model`` keeps one family per system, so its aggregated
solves test the full solve's cones too.

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

# Key of a family cache's registered bases; see ``simplex``.
_CONE = "cone"

_INF = float("inf")

# One backend only; the name is kept because benchmark records report it.
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Factorisation helpers.
# ---------------------------------------------------------------------------

def _lu_factor(M, perm, pivot_eps):
    """LU-factorise square M (a list of row lists) in place, partial pivoting.

    ``perm`` records the row swap made at each elimination step.  Returns
    None once the best pivot magnitude left is below ``pivot_eps``, else
    the solve as ``_solve``'s op list: swaps (k, p), forward terms (i, j, l)
    and backward rows (i, pivot, terms (j, u)), in order.  This dense list
    keeps every term, exact zeros included, which ``basis_eval`` needs
    (see ``_solve``); ``_zero_free`` gives the cone test its own list.
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
            return None
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
    swaps = [(k, p) for k, p in enumerate(perm) if p != k]
    forward = [(i, j, M[i][j]) for i in range(1, m) for j in range(i)]
    backward = [
        (i, M[i][i], [(j, M[i][j]) for j in range(i + 1, m)])
        for i in range(m - 1, -1, -1)
    ]
    return swaps, forward, backward


def _solve(ops, rhs, floor=None):
    """Solve against ``_lu_factor``'s op list: a new list from ``rhs``.

    With a ``floor``, returns None instead as soon as the backward pass
    finishes an entry that is not above it (NaN included), so a rejected
    cone candidate (see ``simplex``) skips the rows left.  A list returned
    is the same with or without a floor.

    On the dense list an exact zero term can still flip the sign of a zero
    in x, so ``basis_eval`` keeps every term.  The cone test runs on
    ``_zero_free``'s list, which leaves out the zero l and u terms, and
    that gives the dense list's decision and x_B bit for bit:

    - A dropped term is ``0 * x[j]``: +-0 when x[j] is finite, NaN when
      not.  Subtracting +-0 leaves a nonzero or infinite value as it is
      and can only flip the sign of a zero; divisors are pivots, never
      zero.  So every dense intermediate either equals the zero-free one
      up to the sign of a zero, or is NaN.
    - Hence a zero-free rejection implies a dense one: +-0 compare the
      same against the floor, and NaN never passes it.
    - A non-finite intermediate never becomes finite again on the
      zero-free list (each term left has a nonzero factor), so if every
      zero-free entry is finite, every intermediate was, no dropped term
      was NaN, and the dense entries differ at most in the sign of a
      zero: if none is zero, the two lists are bitwise equal.
    - An accepted list with a zero entry (possible at a negative floor) or
      an infinite one is therefore solved again on the dense list, which
      decides, as ``_cone_solve`` does.
    """
    swaps, forward, backward = ops
    x = list(rhs)
    for k, p in swaps:
        x[k], x[p] = x[p], x[k]
    for i, j, l in forward:
        x[i] -= l * x[j]
    for i, piv, terms in backward:
        s = x[i]
        for j, u in terms:
            s -= u * x[j]
        s /= piv
        if floor is not None and not s > floor:
            return None
        x[i] = s
    return x


def _zero_free(ops):
    """``ops`` without its exact-zero forward l and backward u terms."""
    swaps, forward, backward = ops
    return (
        swaps,
        [term for term in forward if term[2]],
        [(i, piv, [term for term in terms if term[1]]) for i, piv, terms in backward],
    )


def _cone_solve(ops, free, rhs, floor):
    """``_solve(ops, rhs, floor)``, bitwise, mostly run on ``free``.

    ``free`` is ``_zero_free(ops)``; its result stands unless it accepts
    an entry that is zero or infinite (see ``_solve``).
    """
    x = _solve(free, rhs, floor)
    if x is not None and (0.0 in x or _INF in x):
        return _solve(ops, rhs, floor)
    return x


def _basis_factor(c, A, basis, pivot_eps):
    """The b-independent half of a basis evaluation, or None if B is singular.

    Returns (solve ops of B, c_B, reduced costs, duals y).  The duals
    y = B^-T c_B are solved on their own LU of B^T: solving them with the
    LU of B would round them differently and move the pinned outputs.
    """
    m = A.shape[0]
    B = A[:, basis]
    ops = _lu_factor(B.tolist(), [0] * m, pivot_eps)
    if ops is None:
        return None
    dual_ops = _lu_factor(B.T.tolist(), [0] * m, pivot_eps)
    if dual_ops is None:
        return None
    cb = c[basis].tolist()
    y = _solve(dual_ops, cb)
    # Row by row, so each element sees its m subtractions in the order i.
    rc = c.copy()
    for i in range(m):
        rc -= y[i] * A[i]
    rc[basis] = 0.0
    return ops, cb, rc, y


def _factor(c, A, key, basis, pivot_eps, factors):
    """``_basis_factor`` of ``basis``, kept in ``factors`` under ``key``."""
    if key not in factors:
        factors[key] = _basis_factor(c, A, basis, pivot_eps)
    return factors[key]


def basis_eval(c, A, b, basis, pivot_eps, factors, xb=None):
    """Evaluate a basis B = A[:, basis]: x_B = B^-1 b, duals, reduced costs.

    Returns (ok, x, reduced_costs, objective).  ok is False when a
    factorisation pivot falls below ``pivot_eps``.  Reduced costs at basic
    indices are zeroed exactly.

    Only x_B and the objective depend on b.  ``factors`` is a dict that
    keeps the rest per basis (None for a singular one) across calls; it
    must only ever be passed with this same c and A.  ``xb``, if given, is
    the x_B list ``simplex`` returned for this basis (in sorted index
    order) and b: the same factor applied to the same ``b.tolist()``, so
    it is taken in place of the solve.  The arrays returned are fresh.
    """
    factor = _factor(c, A, basis.tobytes(), basis, pivot_eps, factors)
    n = A.shape[1]
    if factor is None:
        return False, np.zeros(n), np.zeros(n), 0.0
    ops, cb, rc, _ = factor
    if xb is None:
        xb = _solve(ops, b.tolist())
    obj = 0.0
    for cbk, xk in zip(cb, xb):
        obj += cbk * xk
    x = np.zeros(n)
    x[basis] = xb
    return True, x, rc.copy(), obj


# ---------------------------------------------------------------------------
# Two-phase Bland simplex on a tableau of Python-float lists.
# ---------------------------------------------------------------------------

def _pivot(T, basis, r, jc):
    """Pivot row ``r`` onto column ``jc``: the dense update minus exact zeros.

    Row r is scaled by ``1.0 / T[r][jc]``; every other row i, objective row
    included, becomes ``v - f * u`` with ``f = T[i][jc]``, but only where f
    and the pivot row entry u are nonzero.  Column jc is then the unit
    vector at r.
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
    """Bland pivots to (OPTIMAL, UNBOUNDED or NUMERICAL at the cap, iterations)."""
    ntol = -tol_opt
    while iters < max_iter:
        row = T[m]
        for enter in range(n_enter):  # Bland: the first improving column
            if row[enter] < ntol:
                break
        else:
            return OPTIMAL, iters
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
            return UNBOUNDED, iters
        _pivot(T, basis, leave, enter)
        iters += 1
    return NUMERICAL, iters


class _Cone:
    """A family's registered bases (see ``simplex``), kept under ``_CONE``.

    ``bases`` holds (smallest nonbasic reduced cost, solve ops of B, basis
    in row order, duals y) in registration order.  Once there are two,
    ``duals`` stacks their y as a (K, m) array; with one there is nothing
    to order.  ``free`` holds each basis's ``_zero_free`` op list, None
    until its first cone test: a basis that is never tested (as in
    ``evaluation.run_theorem_trials``) never pays for it.  ``mru`` is the
    index of the most recently accepted basis; ``seen`` holds the sorted
    index tuples the tableau has ended in.
    """

    __slots__ = ("bases", "duals", "free", "mru", "seen")

    def __init__(self):
        self.bases = []
        self.duals = None
        self.free = []
        self.mru = 0
        self.seen = set()


def _cone_x(cone, k, bl, tol_feas, tol_opt):
    """x_B of registered basis k if it passes the cone test for b, else None."""
    rc_min, ops, _, _ = cone.bases[k]
    if not rc_min > tol_opt:
        return None
    free = cone.free[k]
    if free is None:
        free = cone.free[k] = _zero_free(ops)
    return _cone_solve(ops, free, bl, tol_feas)


def simplex(c, A, b, tol_feas, tol_opt, pivot_eps, max_iter, cache):
    """Two-phase Bland simplex on min c.x, A x = b, x >= 0.

    Returns (status, basis, iterations, x_B): a status code above, the
    basic column of each row as an int64 array (partial unless OPTIMAL),
    the number of pivots, and the list x_B = B^-1 b of the returned basis
    in sorted index order where the call computed it (else None); it is
    what ``basis_eval`` would compute, so it can be passed on there.

    Bland's rule: the entering column is the first j < n with reduced cost
    below ``-tol_opt``; the leaving row has the minimum ratio rhs / col over
    col > ``pivot_eps``, ties going to the smallest basic index.  The
    phase-1 cost row subtracts the rows one by one in order, and the
    phase-2 row is ``row - cb * T[i]`` in order i.

    ``cache``, like ``basis_eval``'s ``factors`` (it may be the same
    dict), must only ever be passed with this c and A.  Under ``_CONE`` it
    keeps the registered bases and the bases the tableau has ended in.  A
    registered basis is accepted when every x_B = B^-1 b exceeds
    ``tol_feas`` and every nonbasic reduced cost exceeds ``tol_opt``: the
    call returns OPTIMAL, the basis in its registered row order, 0 pivots
    and that x_B, whatever ``max_iter``.  Such a basis is the unique
    optimal one for b (Bertsimas & Tsitsiklis, *Introduction to Linear
    Optimization*, ch. 3), so Bland's rule ends there too at tolerances
    small against the data; a coarse ``tol_opt`` or ``pivot_eps`` can stop
    it short.  The most recently accepted basis is tried first, since
    hours come in runs of one basis, then the others by descending dual
    bound y_j.b.  Every registered basis is dual
    feasible, so y_j.b <= z(b), the optimal cost, by weak duality, with
    equality for an optimal basis; the one basis that can pass ranks first
    up to rounding.  Every candidate is tried before the tableau runs, so
    the order changes how many solves a call makes, never its result.  A
    candidate's solve stops at its first x_B entry not above ``tol_feas``,
    and runs over the basis's nonzero LU terms only (``_zero_free``, built
    on the basis's first test): it accepts and returns exactly what the
    dense list would, as ``_solve`` argues, which keeps every term for
    ``basis_eval``, the duals and registration.
    Otherwise the tableau runs, and from the second time it ends OPTIMAL in
    a basis on, solves that basis's x_B and registers the basis if it is
    nonsingular and passes the same test.

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
    bl = b.tolist()
    cone = cache.get(_CONE)
    if cone is not None and cone.bases:
        bases, k = cone.bases, cone.mru
        xb = _cone_x(cone, k, bl, tol_feas, tol_opt)
        if xb is None and len(bases) > 1:
            scores = (cone.duals @ b).tolist()
            for k in sorted(range(len(bases)), key=scores.__getitem__, reverse=True):
                if k != cone.mru:
                    xb = _cone_x(cone, k, bl, tol_feas, tol_opt)
                    if xb is not None:
                        break
        if xb is not None:
            cone.mru = k
            return OPTIMAL, bases[k][2].copy(), 0, xb
    basis = list(range(n, n + m))
    status, iters = _two_phase(c, A, bl, basis, tol_feas, tol_opt, pivot_eps, max_iter)
    xb = None
    if status == OPTIMAL:
        if cone is None:
            cone = cache[_CONE] = _Cone()
        key = tuple(sorted(basis))
        if key in cone.seen:
            idx = np.array(key, dtype=np.int64)
            factor = _factor(c, A, idx.tobytes(), idx, pivot_eps, cache)
            if factor is not None:
                ops, _, rc, y = factor
                xb = _solve(ops, bl)
                rcl = rc.tolist()
                for j in key:
                    rcl[j] = np.inf
                rc_min = min(rcl)
                if rc_min > tol_opt and min(xb) > tol_feas:
                    bases = cone.bases
                    cone.mru = len(bases)
                    bases.append((rc_min, ops, np.array(basis, dtype=np.int64), y))
                    cone.free.append(None)
                    if len(bases) > 1:
                        cone.duals = np.array([entry[3] for entry in bases])
        cone.seen.add(key)
    return status, np.array(basis, dtype=np.int64), iters, xb


def _two_phase(c, A, bl, basis, tol_feas, tol_opt, pivot_eps, max_iter):
    """The tableau solve of ``simplex``: pivots ``basis``, returns (status, iterations)."""
    m, n = A.shape
    T = []
    for a, bi in zip(A.tolist(), bl):
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
    if status != OPTIMAL:
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
    return _pivot_loop(T, basis, m, n, tol_opt, pivot_eps, max_iter, iters)
