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

Only the RHS column of the tableau depends on b beyond its sign pattern:
every other column is fixed by c, A, the signs of b and the pivots made.
Bland's entering choice reads only the objective row and eligibility to
leave only the entering column; the RHS is read by the ratio test and by
phase 1's feasibility check alone.  So ``simplex`` can record each pivot
path once per (c, A) and solve another b down the same path by carrying
its RHS column alone, through the same operations and so to the same bits
in every entry a decision reads.  A recorded pivot keeps what that walk
reads: the rows eligible to leave with their entries and, per leaving row,
1 / pivot and the column's other entries; a drive-out pivot keeps the
last two (layout in ``simplex``).  A basis factor likewise keeps its LU
solve as an op list.

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

# Tags of the simplex path nodes that hold no pivot (an entering column
# is >= 0); see ``simplex``.
_OPTIMAL = -1
_NO_LEAVE = -2

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

    Returns (solve ops, c_B, reduced costs); the ops are ``_lu_solve``'s on
    the LU of B, in its order: swaps (k, p), forward terms (i, j, l) and
    backward rows (i, pivot, terms (j, u)).  Every term is kept, since one
    that is an exact zero can still flip the sign of a zero in x.  The
    duals y = B^-T c_B are solved on their own LU of B^T: solving them with
    the LU of B would round them differently and move the pinned outputs.
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
    swaps = [(k, p) for k, p in enumerate(perm) if p != k]
    forward = [(i, j, LU[i][j]) for i in range(1, m) for j in range(i)]
    backward = [
        (i, LU[i][i], [(j, LU[i][j]) for j in range(i + 1, m)])
        for i in range(m - 1, -1, -1)
    ]
    return (swaps, forward, backward), cb, rc


def basis_eval(c, A, b, basis, pivot_eps, factors):
    """Evaluate a basis B = A[:, basis]: x_B = B^-1 b, duals, reduced costs.

    Returns (ok, x, reduced_costs, objective).  ok is False when a
    factorisation pivot falls below ``pivot_eps``.  Reduced costs at basic
    indices are zeroed exactly.

    Only x_B and the objective depend on b.  ``factors`` is a dict that
    keeps the rest per basis (None for a singular one) across calls; it
    must only ever be passed with this same c and A.  The arrays returned
    are fresh.
    """
    key = basis.tobytes()
    if key in factors:
        factor = factors[key]
    else:
        factor = factors[key] = _basis_factor(c, A, basis, pivot_eps)
    n = A.shape[1]
    if factor is None:
        return False, np.zeros(n), np.zeros(n), 0.0
    (swaps, forward, backward), cb, rc = factor
    xb = b.tolist()
    for k, p in swaps:
        xb[k], xb[p] = xb[p], xb[k]
    for i, j, l in forward:
        xb[i] -= l * xb[j]
    for i, piv, terms in backward:
        s = xb[i]
        for j, u in terms:
            s -= u * xb[j]
        xb[i] = s / piv
    obj = 0.0
    for cbk, xk in zip(cb, xb):
        obj += cbk * xk
    x = np.zeros(n)
    x[basis] = xb
    return True, x, rc.copy(), obj


# ---------------------------------------------------------------------------
# Two-phase Bland simplex on a tableau of Python-float lists.
# ---------------------------------------------------------------------------

def _pivot(T, basis, r, jc, shared):
    """Pivot row ``r`` onto column ``jc``: the dense update minus exact zeros.

    Row r is scaled by ``inv = 1.0 / T[r][jc]``; every other row i,
    objective row included, becomes ``v - f * u`` with ``f = T[i][jc]``,
    but only where f and the pivot row entry u are nonzero.  Column jc is
    then the unit vector at r.  Returns (inv, others): ``others`` holds the
    nonzero entries of column jc before the pivot in the rows other than r,
    as a flat ``(i, f, i, f, ...)`` tuple in row order.  Each is the equal
    value already in the dict ``shared``, if any (see ``simplex``).
    """
    inv = 1.0 / T[r][jc]
    Tr = T[r] = [v * inv for v in T[r]]
    Tr[jc] = 0.0  # keeps jc out of the update; column jc is set below
    pairs = [(j, u) for j, u in enumerate(Tr) if u]
    Tr[jc] = 1.0
    others = []
    for i, Ti in enumerate(T):
        f = Ti[jc]
        if f == 0.0 or i == r:
            continue
        others += (i, f)
        for j, u in pairs:
            Ti[j] -= f * u
        Ti[jc] = 0.0
    basis[r] = jc
    others = tuple(others)
    if shared is None:
        return inv, others
    return shared.setdefault(inv, inv), shared.setdefault(others, others)


def _pivot_loop(
    T, basis, m, n_enter, tol_opt, pivot_eps, max_iter, iters, node, shared
):
    """Run Bland pivots until optimal (0), unbounded (2) or the cap (4).

    Returns (status, iterations, node): ``node`` is the path node of the
    state it stopped in.  Each state and leaving row on the way that has no
    record yet gets one (see ``simplex``).
    """
    ntol = -tol_opt
    while iters < max_iter:
        row = T[m]
        for enter in range(n_enter):  # Bland: the first improving column
            if row[enter] < ntol:
                break
        else:
            if not node:
                node += (_OPTIMAL,)
            return 0, iters, node
        # Minimum ratio over the eligible rows; among rows at the minimum,
        # the smallest basic index (Bland).  A new node keeps the eligible
        # (row, entry) pairs.
        new = not node
        eligible = ()
        leave = -1
        for i in range(m):
            Ti = T[i]
            v = Ti[enter]
            if v > pivot_eps:
                if new:
                    eligible += (i, v)
                q = Ti[-1] / v
                if leave < 0 or q < best or (q == best and basis[i] < basis[leave]):
                    best = q
                    leave = i
        if leave < 0:
            if new:
                node += (_NO_LEAVE,)
            return 2, iters, node
        inv, others = _pivot(T, basis, leave, enter, shared)
        if new:
            if shared is not None:
                eligible = shared.setdefault(eligible, eligible)
            node += (enter, eligible, leave, inv, others, [])  # one extension: no spare slots
            node = node[5]
        else:
            k = 2
            while k < len(node) and node[k] != leave:
                k += 4
            if k == len(node):
                node += (leave, inv, others, [])
            node = node[k + 3]
        iters += 1
    return 4, iters, node


def simplex(c, A, b, tol_feas, tol_opt, pivot_eps, max_iter, paths):
    """Two-phase Bland simplex on min c.x, A x = b, x >= 0.

    Returns (status, basis, iterations): a status code above, the basic
    column of each row as an int64 array (partial unless OPTIMAL) and the
    number of pivots.

    Bland's rule: the entering column is the first j < n with reduced cost
    below ``-tol_opt``; the leaving row has the minimum ratio rhs / col over
    col > ``pivot_eps``, ties going to the smallest basic index.  The
    phase-1 cost row subtracts the rows one by one in order, and the
    phase-2 row is ``row - cb * T[i]`` in order i.

    ``paths`` is a dict that keeps the pivot paths solved so far across
    calls; like ``basis_eval``'s ``factors`` it must only ever be passed
    with this same c and A.  Every tableau column but the RHS
    depends only on c, A, the sign pattern of b (rows with b_i < 0 are
    negated) and the pivots made so far.  No decision reads the RHS but
    the ratio test and phase 1's feasibility check: the entering column
    reads only the objective row, and eligibility to leave and the
    drive-out only constraint columns.  So with the root keyed by
    (tol_opt, pivot_eps, sign pattern), each pivot state is a node that
    stores what a walk reads there: its entering column, the rows eligible
    to leave with their entries and, per leaving row taken from it,
    1 / pivot, the column's other nonzero entries and the child state.  A
    solve whose path is recorded walks it carrying only the RHS column,
    through exactly the operations ``_pivot`` applies to it, so each entry
    a decision reads keeps the tableau's bits, zero signs included, and
    the decisions, basis and pivot count are the tableau's.  (Phase 2's
    objective entry is write-only, like the artificial columns below, so
    the walk does not rebuild it.)  A solve that reaches a state, or a
    leaving row, with no record runs the tableau from the start and
    records what it lacks.

    Node layout, as lists that recording fills in place: ``[]`` is a
    state not yet recorded; ``[enter, eligible, row, inv, others, child,
    row, ...]`` a pivot, ``eligible`` being the flat ``(i, entry, ...)``
    pairs in row order and ``(inv, others)`` what ``_pivot`` returns;
    ``[_NO_LEAVE]`` no eligible leaving row; ``[_OPTIMAL]`` the optimum of
    phase 2, or the end of phase 1 before a feasible b has reached it, and
    then ``[_OPTIMAL, drive-out pivots (row, column, inv, others), phase-2
    root]``, with None for the root after a rank-deficient drive-out.
    Each key of ``paths`` holds (root node, shared).  A dispatch LP's
    columns are mostly +-1, so a tableau solve after the root's first,
    which shares nothing and so costs a one-shot LP nothing, records the
    equal values already in the dict ``shared`` in place of its own.
    Recorded values are nonzero and finite, so equal ones have equal bits.

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
    key = (tol_opt, pivot_eps, tuple([v < 0.0 for v in bl]))
    root, shared = paths.setdefault(key, ([], {}))
    status = None
    if root:
        basis = list(range(n, n + m))
        status, iters = _walk(root, bl, basis, m, tol_feas, max_iter)
    if status is None:
        basis = list(range(n, n + m))
        status, iters = _two_phase(
            c, A, bl, basis, tol_feas, tol_opt, pivot_eps, max_iter, root,
            shared if root else None,
        )
    return status, np.array(basis, dtype=np.int64), iters


def _walk(node, bl, basis, m, tol_feas, max_iter):
    """Follow recorded path nodes from ``node``, carrying only the RHS.

    Returns (status, iterations) as ``_two_phase`` does and pivots
    ``basis`` the same way, or status None on reaching a state, or a
    leaving row, with no record.
    """
    rhs = [-v if v < 0.0 else v for v in bl]
    obj = 0.0
    for v in rhs:
        obj -= v
    rhs.append(obj)
    iters = 0
    phase1 = True
    while True:
        if iters >= max_iter:
            return NUMERICAL, iters
        if not node:
            return None, iters
        enter = node[0]
        if enter >= 0:
            eligible = node[1]
            if len(eligible) == 2:
                leave = eligible[0]  # the only eligible row: no ratio to compare
            elif len(eligible) == 4:  # two rows, the usual case: the loop unrolled
                i, v, j, w = eligible
                q = rhs[i] / v
                p = rhs[j] / w
                leave = j if p < q or (p == q and basis[j] < basis[i]) else i
            else:
                leave = -1
                it = iter(eligible)
                for i, v in zip(it, it):
                    q = rhs[i] / v
                    if leave < 0 or q < best or (q == best and basis[i] < basis[leave]):
                        best = q
                        leave = i
            k = 2
            while node[k] != leave:
                k += 4
                if k == len(node):
                    return None, iters
            # What _pivot does to the RHS column, in the same order.
            u = rhs[leave] = rhs[leave] * node[k + 1]
            if u:
                it = iter(node[k + 2])
                for i, f in zip(it, it):
                    rhs[i] -= f * u
            basis[leave] = enter
            iters += 1
            node = node[k + 3]
        elif enter == _NO_LEAVE:
            return (NUMERICAL if phase1 else UNBOUNDED), iters
        elif not phase1:
            return OPTIMAL, iters
        elif -rhs[m] > tol_feas:
            return INFEASIBLE, iters
        elif len(node) == 1:
            return None, iters  # no feasible b has reached this end of phase 1
        else:
            _, drive, node = node
            for r, j, inv, others in drive:
                u = rhs[r] = rhs[r] * inv
                if u:
                    it = iter(others)
                    for i, f in zip(it, it):
                        rhs[i] -= f * u
                basis[r] = j
                iters += 1
            if node is None:
                return RANK_DEFICIENT, iters
            phase1 = False


def _two_phase(c, A, bl, basis, tol_feas, tol_opt, pivot_eps, max_iter, node, shared):
    """The tableau solve of ``simplex`` from path root ``node``.

    Returns (status, iterations), pivots ``basis`` and records each state
    on its path that has no record yet.
    """
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
    status, iters, node = _pivot_loop(
        T, basis, m, n, tol_opt, pivot_eps, max_iter, 0, node, shared
    )
    if status != 0:
        # Phase 1 is bounded below by zero, so failing to pivot is numeric.
        return NUMERICAL, iters
    if -T[m][-1] > tol_feas:
        return INFEASIBLE, iters
    # Drive artificials that linger degenerately at level zero out of the
    # basis; a row with no eligible original column is redundant.
    drive = []
    for i in range(m):
        if basis[i] >= n:
            Ti = T[i]
            for j in range(n):
                if abs(Ti[j]) > pivot_eps:
                    break
            else:
                if len(node) == 1:
                    node += (tuple(drive), None)
                return RANK_DEFICIENT, iters
            drive.append((i, j) + _pivot(T, basis, i, j, shared))
            iters += 1
    # Phase 2: rebuild the reduced-cost row from the true costs.
    cl = c.tolist()
    obj = cl + [0.0]
    for i in range(m):
        cb = cl[basis[i]]
        if cb != 0.0:
            obj = [v - cb * u for v, u in zip(obj, T[i])]
    T[m] = obj
    if len(node) == 1:
        node += (tuple(drive), [])
    status, iters, _ = _pivot_loop(
        T, basis, m, n, tol_opt, pivot_eps, max_iter, iters, node[2], shared
    )
    if status == 2:
        return UNBOUNDED, iters
    if status != 0:
        return NUMERICAL, iters
    return OPTIMAL, iters
