"""Solver unit tests: frozen small cases, oracle cross-checks, invariants."""

import dataclasses

import numpy as np
import pytest

from oracles import enumerate_lp, random_lp_data
from tsagg import (
    TOL_FEAS,
    TOL_OPT,
    BasisSignature,
    LPStatus,
    NumericalFailureError,
    RankDeficientError,
    SingularBasisError,
    StandardFormLP,
    solve,
    solve_with_basis,
)


def lp_1d():
    # min -x1  s.t.  x1 + x2 = 1
    return StandardFormLP([-1.0, 0.0], [[1.0, 1.0]], [1.0])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_lp_arrays_are_float64_and_readonly():
    lp = lp_1d()
    assert lp.A.dtype == np.float64
    assert not lp.A.flags.writeable
    assert lp.m == 1 and lp.n == 2


def test_lp_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        StandardFormLP([1.0, 2.0, 3.0], [[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        StandardFormLP([1.0, 2.0], [[1.0, 1.0]], [1.0, 2.0])


def test_lp_more_rows_than_columns_rejected():
    with pytest.raises(ValueError):
        StandardFormLP([1.0], [[1.0], [2.0]], [1.0, 2.0])


def test_lp_nonfinite_rejected():
    with pytest.raises(ValueError):
        StandardFormLP([np.nan, 1.0], [[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        StandardFormLP([1.0, 1.0], [[np.inf, 1.0]], [1.0])


def test_with_rhs_shares_costs_and_matrix():
    lp = lp_1d()
    lp2 = lp.with_rhs([2.0])
    assert np.array_equal(lp2.c, lp.c)
    assert np.array_equal(lp2.A, lp.A)
    assert lp2.c is lp.c
    assert lp2.A is lp.A
    assert lp2.b[0] == 2.0


@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [1.0, 2.0], [[1.0]]])
def test_with_rhs_rejects_bad_rhs(bad):
    with pytest.raises(ValueError):
        lp_1d().with_rhs(bad)


def test_lp_compares_and_hashes_by_identity():
    lp = StandardFormLP([1.0, 2.0, 0.0], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], [3.0, 1.0])
    assert lp == lp
    assert (lp == lp.with_rhs(lp.b)) is False
    assert lp != StandardFormLP(lp.c, lp.A, lp.b)
    assert hash(lp) == hash(lp)
    assert len({lp, lp.with_rhs(lp.b)}) == 2


def test_solutions_compare_by_identity():
    lp = StandardFormLP([1.0, 2.0, 0.0], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], [3.0, 1.0])
    first, second = solve(lp), solve(lp)
    assert first == first
    assert (first == second) is False
    assert hash(first) != hash(second)


def test_with_rhs_copies_rhs():
    b = np.array([2.0])
    lp2 = lp_1d().with_rhs(b)
    b[0] = 7.0
    assert lp2.b[0] == 2.0
    assert not lp2.b.flags.writeable


def lp_2d():
    return StandardFormLP([1.0, 2.0, 0.0], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], [3.0, 1.0])


@pytest.mark.parametrize("bad,message", [
    (np.array([np.nan, 1.0]), "LP data must be finite"),
    (np.array([1.0, -np.inf]), "LP data must be finite"),
    (np.array([1.0, 2.0, 3.0]), r"inconsistent shapes: A \(2, 3\), b \(3,\)"),
    (np.array([1.0]), r"inconsistent shapes: A \(2, 3\), b \(1,\)"),
    (np.array([[1.0, 2.0]]), "expected A 2-d, c and b 1-d"),
    (np.array([[1.0], [2.0]]), "expected A 2-d, c and b 1-d"),
    (np.array(1.0), "expected A 2-d, c and b 1-d"),
])
def test_with_rhs_refuses_a_bad_float64_array(bad, message):
    """A float64 ndarray b is copied as it is, but checked as any other."""
    lp = lp_2d()
    with pytest.raises(ValueError, match=message):
        lp.with_rhs(bad)
    with pytest.raises(ValueError, match=message):
        StandardFormLP(lp.c, lp.A, bad)


def test_with_rhs_keeps_a_read_only_copy_of_a_float64_array():
    lp = lp_2d()
    b = np.array([4.0, -0.0])
    lp2 = lp.with_rhs(b)
    assert lp2.b is not b and not lp2.b.flags.writeable
    assert b.flags.writeable
    b[:] = 9.0
    assert lp2.b.tobytes() == np.array([4.0, -0.0]).tobytes()
    # A strided view is copied into a contiguous array of its own.
    rows = np.array([[5.0, 1.0], [6.0, 2.0]])
    lp3 = lp.with_rhs(rows[:, 0])
    rows[:, 0] = 0.0
    assert lp3.b.tolist() == [5.0, 6.0] and lp3.b.flags.c_contiguous
    # So is a broadcast view with zero strides.
    lp4 = lp.with_rhs(np.broadcast_to(np.array(2.0), (2,)))
    assert lp4.b.tolist() == [2.0, 2.0] and not lp4.b.flags.writeable


@pytest.mark.parametrize("b", [
    np.array([3, 1]),
    np.array([3.1, 1.7], dtype=np.float32),
    np.array([3.1, 1.7], dtype=">f8"),
    [3.1, 1.7],
    (3, 1.7),
])
def test_with_rhs_of_other_types_gives_the_float64_bits(b):
    lp = lp_2d()
    expected = np.array(b, dtype=np.float64).ravel()
    for made in (lp.with_rhs(b), StandardFormLP(lp.c, lp.A, b)):
        assert type(made.b) is np.ndarray and made.b.dtype == np.float64
        assert made.b.tobytes() == expected.tobytes()
        assert not made.b.flags.writeable
        assert solve(made).x.tobytes() == solve(lp.with_rhs(expected)).x.tobytes()


def test_basis_signature_canonical_order():
    assert BasisSignature((3, 0, 2)).indices == (0, 2, 3)


def test_basis_signature_rejects_duplicates():
    with pytest.raises(ValueError):
        BasisSignature((1, 1))


# ---------------------------------------------------------------------------
# frozen tiny cases
# ---------------------------------------------------------------------------

def test_solve_min_neg_x1():
    s = solve(lp_1d())
    assert s.status is LPStatus.OPTIMAL
    assert s.objective == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_allclose(s.x, [1.0, 0.0], atol=1e-12)
    assert s.basis.indices == (0,)
    np.testing.assert_allclose(s.reduced_costs, [0.0, 1.0], atol=1e-12)


def test_solve_unbounded():
    # min -x1  s.t.  x1 - x2 = 0: the ray x1 = x2 -> inf has cost -inf.
    s = solve(StandardFormLP([-1.0, 0.0], [[1.0, -1.0]], [0.0]))
    assert s.status is LPStatus.UNBOUNDED
    assert s.objective == -np.inf


def test_solve_infeasible():
    s = solve(StandardFormLP([1.0, 1.0], [[1.0, 1.0]], [-1.0]))
    assert s.status is LPStatus.INFEASIBLE


def test_solve_negative_rhs_feasible():
    # x1 - x2 = -3 with min x1: optimum x = (0, 3).
    s = solve(StandardFormLP([1.0, 0.0], [[1.0, -1.0]], [-3.0]))
    assert s.status is LPStatus.OPTIMAL
    np.testing.assert_allclose(s.x, [0.0, 3.0], atol=1e-12)
    assert s.objective == pytest.approx(0.0, abs=1e-12)


def test_reduced_costs_frozen_examples():
    lp = lp_1d()
    for basis, expected in (((0,), [0.0, 1.0]), ((1,), [-1.0, 0.0])):
        rc = solve_with_basis(lp, BasisSignature(basis)).reduced_costs
        np.testing.assert_allclose(rc, expected)


def test_solve_with_basis_variants():
    lp = lp_1d()
    opt = solve_with_basis(lp, BasisSignature((0,)))
    assert opt.status is LPStatus.OPTIMAL
    assert opt.objective == pytest.approx(-1.0)
    sub = solve_with_basis(lp, BasisSignature((1,)))
    assert sub.status is LPStatus.BASIS_SUBOPTIMAL
    assert sub.objective == pytest.approx(0.0)
    # min x1 s.t. x1 - x2 = 1: basis {1} forces x2 = -1 < 0.
    lp2 = StandardFormLP([1.0, 0.0], [[1.0, -1.0]], [1.0])
    infeas = solve_with_basis(lp2, BasisSignature((1,)))
    assert infeas.status is LPStatus.BASIS_INFEASIBLE


def test_solve_with_basis_wrong_size_rejected():
    with pytest.raises(ValueError):
        solve_with_basis(lp_1d(), BasisSignature((0, 1)))
    with pytest.raises(ValueError):
        solve_with_basis(lp_1d(), BasisSignature((5,)))


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

def test_rank_deficient_consistent_rows():
    # Duplicate row, consistent system.
    lp = StandardFormLP([1.0, 1.0, 1.0], [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1.0, 1.0])
    with pytest.raises(RankDeficientError):
        solve(lp)


def test_rank_deficient_inconsistent_rows():
    lp = StandardFormLP([1.0, 1.0, 1.0], [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1.0, 2.0])
    with pytest.raises(RankDeficientError):
        solve(lp)


def test_singular_basis_error():
    lp = StandardFormLP(
        [1.0, 1.0, 1.0, 1.0],
        [[1.0, 2.0, 1.0, 0.0], [2.0, 4.0, 0.0, 1.0]],
        [3.0, 5.0],
    )
    with pytest.raises(SingularBasisError):
        solve_with_basis(lp, BasisSignature((0, 1)))  # columns 0,1 are parallel
    with pytest.raises(SingularBasisError):
        solve_with_basis(lp, BasisSignature((0, 1))).reduced_costs


def test_singular_basis_error_on_every_with_rhs_lp():
    lp = StandardFormLP(
        [1.0, 1.0, 1.0, 1.0],
        [[1.0, 2.0, 1.0, 0.0], [2.0, 4.0, 0.0, 1.0]],
        [3.0, 5.0],
    )
    basis = BasisSignature((0, 1))
    for b in ([3.0, 5.0], [1.0, 2.0], [4.0, 4.0]):
        family = lp.with_rhs(b)
        with pytest.raises(SingularBasisError):
            solve_with_basis(family, basis)
        with pytest.raises(SingularBasisError):
            solve_with_basis(family, basis).reduced_costs
    with pytest.raises(SingularBasisError):
        solve_with_basis(lp, basis)


# D39: min x s.t. -1e-6 x0 + x1 = b0, -x1 + x2 = b1 at b near -1e308 ends in
# basis (0, 1) with x0 = inf.
OVERFLOW_A = [[-1e-06, 1.0, 0.0], [0.0, -1.0, 1.0]]
OVERFLOW_B = [-5.407481500825879e307, -1.8266510050802505e307]


def test_an_overflowed_optimum_raises():
    lp = StandardFormLP([1.0, 1.0, 1.0], OVERFLOW_A, OVERFLOW_B)
    with pytest.raises(NumericalFailureError, match="not finite"):
        solve(lp)
    with pytest.raises(NumericalFailureError, match="not finite"):
        solve_with_basis(lp, BasisSignature((0, 1)))


def test_a_nan_x_b_raises():
    """x_B overflows to inf and -inf, and x_0 = -inf + inf is NaN."""
    lp = StandardFormLP(
        [1.0, 1.0, 1.0, 1.0],
        [[1.0, 1.0, 1.0, 0.0], [0.0, 1e-10, 0.0, 1.0], [0.0, 0.0, 1e-10, 1.0]],
        [0.0, 1e308, -1e308],
    )
    for _ in range(2):  # the record's first use, then the kept one
        with pytest.raises(NumericalFailureError, match="not finite"):
            solve_with_basis(lp, BasisSignature((0, 1, 2)))


# ---------------------------------------------------------------------------
# the factors shared by with_rhs LPs
# ---------------------------------------------------------------------------

def _two_row_lp():
    # min x0 + 2 x1 + 3 x2  s.t.  x0 + x1 + x3 = b0,  x1 + x2 + x4 = b1
    return StandardFormLP(
        [1.0, 2.0, 3.0, 0.0, 0.0],
        [[1.0, 1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0, 1.0]],
        [4.0, 3.0],
    )


def _fresh(lp):
    """The same LP built from scratch, so it shares nothing."""
    return StandardFormLP(np.array(lp.c), np.array(lp.A), np.array(lp.b))


def _same(a, b):
    assert a.status is b.status
    assert a.basis == b.basis
    assert a.objective == b.objective
    assert a.x.tobytes() == b.x.tobytes()
    assert a.reduced_costs.tobytes() == b.reduced_costs.tobytes()


def test_mutating_a_solution_leaves_other_solves_unchanged():
    lp = _two_row_lp()
    family = [lp.with_rhs(b) for b in ([4.0, 3.0], [5.0, 3.0], [4.0, 6.0])]
    first = solve(family[0])
    basis = first.basis
    first.x[:] = -7.0
    first.reduced_costs[:] = -7.0
    for other in family[1:]:
        _same(solve(other), solve(_fresh(other)))
        _same(solve_with_basis(other, basis), solve_with_basis(_fresh(other), basis))
    _same(solve(family[0]), solve(_fresh(family[0])))
    at_basis = solve_with_basis(family[1], basis)
    at_basis.x[:] = 9.0
    at_basis.reduced_costs[:] = 9.0
    rc = solve_with_basis(family[2], basis).reduced_costs
    rc[:] = 9.0
    _same(
        solve_with_basis(family[2], basis), solve_with_basis(_fresh(family[2]), basis)
    )
    np.testing.assert_array_equal(
        solve_with_basis(family[1], basis).reduced_costs,
        solve_with_basis(_fresh(family[1]), basis).reduced_costs,
    )


def test_replace_matrix_starts_a_fresh_cache():
    lp = _two_row_lp()
    basis = BasisSignature((0, 2))
    before = solve_with_basis(lp, basis)
    A2 = np.array(lp.A)
    A2[0, 0] = 2.0
    lp2 = dataclasses.replace(lp, A=A2)
    got = solve_with_basis(lp2, basis)
    _same(got, solve_with_basis(StandardFormLP(lp.c, A2, lp.b), basis))
    assert got.x.tobytes() != before.x.tobytes()
    family = lp2.with_rhs([5.0, 3.0])
    _same(
        solve_with_basis(family, basis),
        solve_with_basis(StandardFormLP(lp.c, A2, [5.0, 3.0]), basis),
    )


def test_template_with_other_arrays_shares_nothing():
    lp = _two_row_lp()
    basis = BasisSignature((0, 2))
    before = solve_with_basis(lp, basis)
    c2 = np.array(lp.c)
    c2[1] = 5.0
    lp2 = StandardFormLP(c2, lp.A, lp.b, lp)
    got = solve_with_basis(lp2, basis)
    _same(got, solve_with_basis(StandardFormLP(c2, lp.A, lp.b), basis))
    assert got.reduced_costs.tobytes() != before.reduced_costs.tobytes()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_solve_is_deterministic_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c, A, b = random_lp_data(rng)
        lp = StandardFormLP(c, A, b)
        s1 = solve(lp)
        s2 = solve(StandardFormLP(c, A, b))
        assert s1.status is s2.status
        if s1.status is LPStatus.OPTIMAL:
            assert s1.basis == s2.basis
            assert s1.objective == s2.objective  # bit-identical
            assert np.array_equal(s1.x, s2.x)


# ---------------------------------------------------------------------------
# oracle cross-checks and certificate invariants
# ---------------------------------------------------------------------------

def test_solve_matches_enumeration_oracle():
    rng = np.random.default_rng(42)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(200):
        c, A, b = random_lp_data(rng)
        lp = StandardFormLP(c, A, b)
        status, obj, _x = enumerate_lp(c, A, b)
        seen[status] += 1
        s = solve(lp)
        assert s.status.value == status, f"solver {s.status} vs oracle {status}"
        if status == "optimal":
            assert abs(s.objective - obj) <= 1e-8 * max(1.0, abs(obj))
    # the ensemble must actually exercise all three classifications
    assert min(seen.values()) > 0, seen


def test_optimal_certificates():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 100:
        c, A, b = random_lp_data(rng)
        lp = StandardFormLP(c, A, b)
        s = solve(lp)
        if s.status is not LPStatus.OPTIMAL:
            continue
        checked += 1
        scale = max(1.0, np.abs(b).max())
        assert np.abs(A @ s.x - b).max() <= 1e-7 * scale
        assert s.x.min() >= -TOL_FEAS * scale
        assert s.reduced_costs.min() >= -1e-7
        assert s.reduced_costs[list(s.basis.indices)].max() == 0.0
        assert abs(float(c @ s.x) - s.objective) <= 1e-9 * max(1.0, abs(s.objective))


def test_reevaluating_returned_basis_reproduces_solution():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 60:
        c, A, b = random_lp_data(rng)
        s = solve(StandardFormLP(c, A, b))
        if s.status is not LPStatus.OPTIMAL:
            continue
        checked += 1
        again = solve_with_basis(StandardFormLP(c, A, b), s.basis)
        assert again.status is LPStatus.OPTIMAL
        assert again.objective == s.objective  # same factorisation path
        assert np.array_equal(again.x, s.x)


def test_reduced_costs_zero_on_basis_across_random_instances():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 100:
        c, A, b = random_lp_data(rng)
        s = solve(StandardFormLP(c, A, b))
        if s.status is not LPStatus.OPTIMAL:
            continue
        checked += 1
        rc = solve_with_basis(StandardFormLP(c, A, b), s.basis).reduced_costs
        assert np.abs(rc[list(s.basis.indices)]).max() <= TOL_OPT
