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

Each basis of a (c, A) family has one ``_Basis`` record in its family, a
dict keyed by its sorted index tuple: B's LU solve as an op list, c_B, the
reduced costs, their smallest nonbasic entry and the duals, solved on the
op list of B^T.  Every OPTIMAL ``simplex`` call returns its record with
x_B, which ``evaluate`` scatters into x; ``cone_columns`` tests a whole
block of b against one record's cone in one pass.  ``dispatch_model``
keeps one family per system, so all its solves share the records.  Only
this module reads or writes a family's entries.

Pivot decisions must not change: the basis of every hour, and through it
every CLI output byte, is pinned by the tests and by the benchmark digests.
Any edit here has to keep each nonzero float produced by the same
operations in the same order; ``tests/oracles.py`` keeps the earlier numpy
kernels as the bitwise reference.  Kernels return integer status codes;
the public wrappers in ``lp_core`` translate them into exceptions and enums.
Every kernel works at the one set of tolerances below, which ``lp_core``
re-exports.
"""

from __future__ import annotations

import numpy as np

# Kernel status codes.
OPTIMAL = 0
INFEASIBLE = 1
UNBOUNDED = 2
RANK_DEFICIENT = 3
NUMERICAL = 4

# Feasibility and optimality tolerances, and the smallest pivot magnitude.
TOL_FEAS = 1e-9
TOL_OPT = 1e-9
PIVOT_EPS = 1e-11

_INF = float("inf")

# One backend only; the name is kept because benchmark records report it.
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Factorisation helpers.
# ---------------------------------------------------------------------------

def _lu_factor(M):
    """LU-factorise square M (a list of row lists) in place, partial
    pivoting, into ``_solve``'s op list, or None once the best pivot
    magnitude left is below ``PIVOT_EPS``.

    The list holds the row swaps (k, p) made at elimination step k,
    forward terms (i, j, l) and backward rows (i, pivot, terms (j, u)), in
    order.  It keeps every term, exact zeros included, which ``evaluate``
    needs (see ``_solve``); ``_zero_free`` gives the cone test its own list.
    """
    m = len(M)
    swaps = []
    for k in range(m):
        p = k
        best = abs(M[k][k])
        for i in range(k + 1, m):
            v = abs(M[i][k])
            if v > best:
                best = v
                p = i
        if best < PIVOT_EPS:
            return None
        if p != k:
            swaps.append((k, p))
            M[k], M[p] = M[p], M[k]
        rk = M[k]
        piv = rk[k]
        tail = rk[k + 1:]
        for i in range(k + 1, m):
            ri = M[i]
            l = ri[k] / piv
            ri[k] = l
            ri[k + 1:] = [v - l * u for v, u in zip(ri[k + 1:], tail)]
    forward = [(i, j, M[i][j]) for i in range(1, m) for j in range(i)]
    backward = [
        (i, M[i][i], [(j, M[i][j]) for j in range(i + 1, m)])
        for i in range(m - 1, -1, -1)
    ]
    return swaps, forward, backward


def _solve(ops, rhs):
    """Solve against ``_lu_factor``'s op list: a new list from ``rhs``.

    Every term is applied, exact zeros included: on the dense list an
    exact zero term can still flip the sign of a zero in x, which
    ``evaluate`` keeps.  ``cone_columns`` runs ``_zero_free``'s list.
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
        x[i] = s / piv
    return x


def _zero_free(ops):
    """``ops`` without its exact-zero forward l and backward u terms."""
    swaps, forward, backward = ops
    return (
        swaps,
        [term for term in forward if term[2]],
        [(i, piv, [term for term in terms if term[1]]) for i, piv, terms in backward],
    )


def _basis_factor(c, A, basis):
    """The b-independent half of a basis evaluation, or None if B is singular.

    Returns (solve ops of B, c_B, reduced costs as a list, duals y).  The
    duals y = B^-T c_B are solved on the op list of B^T's own LU (solving
    them with the LU of B would round them differently and move the pinned
    outputs).  The reduced costs are
    ``c - y[0] * A[0] - y[1] * A[1] ...``, row by row, so each element sees
    its m subtractions in the order i, then zero at the basic indices.
    """
    B = A[:, basis]
    ops = _lu_factor(B.tolist())
    if ops is None:
        return None
    dual = _lu_factor(B.T.tolist())
    if dual is None:
        return None
    cb = c[basis].tolist()
    y = _solve(dual, cb)
    rc = c.tolist()
    for yi, row in zip(y, A.tolist()):
        rc = [r - yi * a for r, a in zip(rc, row)]
    for j in basis.tolist():
        rc[j] = 0.0
    return ops, cb, rc, y


def _min(values):
    """The smallest of ``values`` (inf if none), NaN if any is NaN, as
    ``np.min(values, initial=inf)`` gives it; of equal values the last is
    kept, so only the sign of a zero result can differ from numpy's, which
    no comparison sees."""
    low = _INF
    for v in values:
        if not low < v:
            if v != v:
                return v
            low = v
    return low


class _Basis:
    """One basis of a family: its index tuple ``cols``, the family key, as
    the read-only array ``idx`` too, and ``_basis_factor``'s ``ops``,
    ``cb``, ``rc`` (an array) and ``y`` (if B is singular, None but for
    zero reduced costs, which is what ``basis_eval`` returns then).

    ``rc_min``, the smallest nonbasic reduced cost by ``_min`` (inf if
    every column is basic), is computed here, once: ``basis_eval`` returns
    it for ``lp_core``'s optimality test, and ``cone_columns`` compares it
    with ``TOL_OPT``.  ``free``, the ``_zero_free`` op list, is set by the
    first ``cone_columns`` that needs it, so a basis never tested never
    pays for it.  ``tag`` is the caller's: the basis's one signature.
    """

    __slots__ = ("idx", "cols", "ops", "cb", "rc", "y", "rc_min", "free", "tag")

    def __init__(self, c, A, cols):
        self.cols = cols
        self.idx = idx = np.array(cols, dtype=np.int64)
        idx.setflags(write=False)
        factor = _basis_factor(c, A, idx)
        self.ops, self.cb, rc, self.y = factor or (None, None, [0.0] * len(c), None)
        self.rc = np.array(rc)
        basic = set(cols)
        self.rc_min = _min([r for j, r in enumerate(rc) if j not in basic])
        self.free = self.tag = None


def recorded(family):
    """The index tuples of ``family``'s records, in the order they were made."""
    return list(family)


def evaluate(record, xb):
    """``basis_eval``'s result for ``record``'s basis at the b whose x_B,
    solved on the record's op list (None if B is singular), is ``xb``.
    """
    rc = record.rc
    if record.ops is None:
        return False, np.zeros(len(rc)), rc.copy(), 0.0
    obj = 0.0
    x = [0.0] * len(rc)
    for j, cbk, xk in zip(record.cols, record.cb, xb):
        obj += cbk * xk
        x[j] = xk
    return True, np.array(x), rc.copy(), obj


def basis_eval(c, A, b, basis, family):
    """Evaluate a basis B = A[:, basis]: x_B = B^-1 b, duals, reduced costs.

    Returns (ok, x, reduced_costs, objective, x_min, rc_min): fresh arrays
    and the objective as ``evaluate`` gives them, then the smallest x_B
    entry and the record's ``rc_min``, both as ``_min`` gives them, for
    the caller's feasibility and optimality tests.  ok is False when a
    factorisation pivot falls below ``PIVOT_EPS`` (x_min is inf then).
    Reduced costs at basic indices are zeroed exactly.  All but x_B, the
    objective and x_min come from the record keyed by the index tuple
    ``basis`` in ``family``, made on first use; a call solves x_B alone.
    """
    record = family.get(basis)
    if record is None:
        record = family[basis] = _Basis(c, A, basis)
    if record.ops is None:
        return (*evaluate(record, None), _INF, record.rc_min)
    xb = _solve(record.ops, b.tolist())
    return (*evaluate(record, xb), _min(xb), record.rc_min)


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


def _pivot_loop(T, basis, m, n_enter, max_iter, iters):
    """Bland pivots to (OPTIMAL, UNBOUNDED or NUMERICAL at the cap, iterations)."""
    ntol = -TOL_OPT
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
            if v > PIVOT_EPS:
                q = Ti[-1] / v
                if leave < 0 or q < best or (q == best and basis[i] < basis[leave]):
                    best = q
                    leave = i
        if leave < 0:
            return UNBOUNDED, iters
        _pivot(T, basis, leave, enter)
        iters += 1
    return NUMERICAL, iters


def _free_ops(record):
    """``record``'s zero-free op list, made on first use, if B is nonsingular
    and its smallest nonbasic reduced cost exceeds ``TOL_OPT``, else None."""
    if record.ops is not None and record.rc_min > TOL_OPT:
        if record.free is None:
            record.free = _zero_free(record.ops)
        return record.free
    return None


def cone_columns(family, cols, R):
    """Test each column of the (m, U) float64 block ``R`` of right-hand
    sides against the cone of the basis keyed ``cols`` in ``family``.

    Returns the record, the (U,) mask of accepted columns, their x_B as
    the columns of an (m, accepted) array, and their objectives, each
    ``0.0 + cb[0] * x[0] + ...`` left to right as ``evaluate`` adds it.

    A column is accepted iff the record has a zero-free list
    (``_free_ops``) and x_B = B^-1 b, solved on it, has every entry above
    ``TOL_FEAS`` and none infinite (NaN fails ``>``).  The basis is then
    b's unique optimal one (Bertsimas & Tsitsiklis, *Introduction to
    Linear Optimization*, ch. 3-4), so Bland's rule ends there too.  A
    dispatch B is one balance row plus bound rows: on a 12-unit fleet
    (m = 14) a basis keeps about 45 of its 182 LU terms.

    The block is solved row-wise, each element with ``_solve``'s IEEE
    operations in its order, less the dropped terms, and an accepted x_B
    is the dense list's bit for bit.  A dropped term is ``0 * x[j]``: +-0
    when x[j] is finite, NaN when not.  Subtracting +-0 changes at most
    the sign of a zero, and divisors are pivots, never zero.  A
    non-finite value never becomes finite again on the zero-free list
    (each term left has a nonzero factor), so when every entry is finite
    no dropped term was NaN, and the dense entries differ at most in the
    sign of a zero; above ``TOL_FEAS`` none is zero.
    """
    record = family[cols]
    free = _free_ops(record)
    if free is None:
        return record, np.zeros(R.shape[1], dtype=bool), np.empty((len(cols), 0)), np.empty(0)
    swaps, forward, backward = free
    X = np.array(R, dtype=np.float64, order="C")
    with np.errstate(over="ignore", invalid="ignore"):
        for k, p in swaps:
            X[[k, p]] = X[[p, k]]
        for i, j, l in forward:
            X[i] -= l * X[j]
        for i, piv, terms in backward:
            s = X[i]  # a view: row i is finished in place
            for j, u in terms:
                s -= u * X[j]
            s /= piv
        accepted = (X > TOL_FEAS).all(axis=0) & (X != _INF).all(axis=0)
        xb = X[:, accepted]
        obj = np.zeros(xb.shape[1])
        for cbk, row in zip(record.cb, xb):
            obj += cbk * row
    return record, accepted, xb, obj


def simplex(c, A, b, max_iter, family):
    """Two-phase Bland simplex on min c.x, A x = b, x >= 0.

    Returns (status, basis, iterations, hit): a status code above, the
    basic column of each row as an int64 array (partial unless OPTIMAL),
    the number of pivots, and on OPTIMAL (record, x_B), else None.  The
    record is the returned basis's ``_Basis`` in ``family``, the family
    of this c and A, made, factor included, on first use.  x_B = B^-1 b
    is the list in sorted index order, None only if B is singular, which
    ``evaluate`` takes as is: the one x_B solve of an OPTIMAL call.

    Bland's rule: the entering column is the first j < n with reduced cost
    below ``-TOL_OPT``; the leaving row has the minimum ratio rhs / col over
    col > ``PIVOT_EPS``, ties going to the smallest basic index.  The
    phase-1 cost row subtracts the rows one by one in order, and the
    phase-2 row is ``row - cb * T[i]`` in order i.

    Next to a regime boundary the answer is a tolerance answer, not the
    exact optimum: the tableau's tests hold within ``TOL_FEAS`` and
    ``TOL_OPT``, so it can end in a basis with an x_B entry or a reduced
    cost below zero by about 1e-13 in exact arithmetic
    (``tests/oracles.exact_basis_check`` finds 7 and 2 such hours of 336
    on ``fleet_at_boundaries`` rng 0 and 1).

    Skipping exact zeros in a pivot gives the dense update's decisions and
    nonzero values, provided every tableau entry stays finite.  A skipped
    term is ``v - 0 * u`` or ``v - f * 0``, which is v unless v is itself
    zero, and then only the sign of that zero can differ.  A zero's sign
    never reaches a nonzero value: multiplying it gives a zero, adding it
    to a nonzero is exact, and no entry that is zero is ever a divisor,
    since pivots exceed ``PIVOT_EPS`` in magnitude.  And no decision sees
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
    bl = b.tolist()
    m, n = A.shape
    basis = list(range(n, n + m))
    status, iters = _two_phase(c, A, bl, basis, max_iter)
    hit = None
    if status == OPTIMAL:
        key = tuple(sorted(basis))
        record = family.get(key)
        if record is None:
            record = family[key] = _Basis(c, A, key)
        hit = (record, None if record.ops is None else _solve(record.ops, bl))
    return status, np.array(basis, dtype=np.int64), iters, hit


def _two_phase(c, A, bl, basis, max_iter):
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
    status, iters = _pivot_loop(T, basis, m, n, max_iter, 0)
    if status != OPTIMAL:
        # Phase 1 is bounded below by zero, so failing to pivot is numeric.
        return NUMERICAL, iters
    if -T[m][-1] > TOL_FEAS:
        return INFEASIBLE, iters
    # Drive artificials that linger degenerately at level zero out of the
    # basis; a row with no eligible original column is redundant.
    for i in range(m):
        if basis[i] >= n:
            Ti = T[i]
            for j in range(n):
                if abs(Ti[j]) > PIVOT_EPS:
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
    return _pivot_loop(T, basis, m, n, max_iter, iters)
