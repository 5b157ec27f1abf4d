"""The full horizon solved by basis cones: ``solve_by_cones`` against the
per-hour ``solve_full`` it stands in for, field by field and bit for bit.

Differential checks run on the solver systems, ``tsbench`` fleets and the
systems built next to every merit-order boundary; a ``slow`` sweep covers
the 40 further near-boundary systems and four 336 h boundary fleets that
``tests/test_kernels.py`` sweeps against the reference tableau.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from systems import (  # noqa: E402
    SOLVER_SYSTEMS, THERMAL, fleet_at_boundaries, fleet_system,
    near_boundary_system, random_system,
)
from tsagg import _kernels, dispatch_model  # noqa: E402
from tsagg.data_io import default_spec, generate_synthetic  # noqa: E402
from tsagg.dispatch_model import (  # noqa: E402
    DispatchKind, InfeasiblePeriodError, SystemData, solve_by_cones, solve_full,
)
from tsagg.evaluation import compare_methods_detailed  # noqa: E402
from tsagg.lp_core import LPStatus  # noqa: E402
from tsagg.tsa_clustering import basis_cluster  # noqa: E402
from tsbench.instances import build_fleet  # noqa: E402

ARRAYS = ("weights", "x", "objective", "basis_ids", "reduced_costs", "production")


def assert_same_solution(got, want):
    """Every field of two full solves equal, floats bit for bit; the
    pivot counts may differ wherever ``got`` took an hour from a cone."""
    assert got.kind is want.kind is DispatchKind.FULL
    assert got.distinct_bases == want.distinct_bases
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
        assert a.tobytes() == b.tobytes(), name
    assert got.total_cost.hex() == want.total_cost.hex()
    solved = got.iterations != 0
    assert (got.iterations[solved] == want.iterations[solved]).all()


def _assert_cones_match_solve_full(make):
    """``solve_by_cones`` on a fresh system against ``solve_full`` on
    another, so neither solve sees the other's family."""
    assert_same_solution(solve_by_cones(make()), solve_full(make()))


DIFFERENTIAL_SYSTEMS = {
    **SOLVER_SYSTEMS,
    **{f"build_fleet{s}": lambda s=s: build_fleet(s) for s in range(4)},
    **{f"near_boundary{s}": lambda s=s: near_boundary_system(np.random.default_rng(s))
       for s in range(1, 8)},
    **{f"fleet_at_boundaries{s}": lambda s=s: fleet_at_boundaries(np.random.default_rng(s))
       for s in range(2)},
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SYSTEMS))
def test_solve_by_cones_equals_solve_full_bitwise(name):
    _assert_cones_match_solve_full(DIFFERENTIAL_SYSTEMS[name])


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 96), st.booleans())
def test_solve_by_cones_equals_solve_full_on_random_systems(seed, hours, nse):
    def make():
        return random_system(np.random.default_rng(seed), hours=hours, nse=nse)

    try:
        want = solve_full(make())
    except InfeasiblePeriodError as err:
        with pytest.raises(InfeasiblePeriodError) as got:
            solve_by_cones(make())
        assert (got.value.index, got.value.status) == (err.index, err.status)
    else:
        assert_same_solution(solve_by_cones(make()), want)


def test_solve_by_cones_equals_solve_full_in_a_family_either_solved_first():
    """Both orders in one family: the bits never depend on what was solved
    before, only pivot counts do."""
    system = fleet_system(np.random.default_rng(2))
    full = solve_full(system)
    assert_same_solution(solve_by_cones(system), full)
    system = fleet_system(np.random.default_rng(2))
    cones = solve_by_cones(system)
    assert_same_solution(cones, solve_full(system))


@pytest.mark.parametrize("demand, index", [([50.0, 170.0], 1), ([50.0, 60.0, 170.0, 70.0], 2)])
def test_infeasible_hour_propagates_index(demand, index):
    """Hours after the infeasible one are taken by the first basis's cone,
    yet the error names the first infeasible hour, as ``solve_full``'s."""
    for solver in (solve_full, solve_by_cones):
        with pytest.raises(InfeasiblePeriodError) as err:
            solver(SystemData((THERMAL,), demand))  # no NSE, 170 MW undeliverable
        assert (err.value.index, err.value.status) == (index, LPStatus.INFEASIBLE)


def _count_calls(monkeypatch):
    """The basis of each ``_kernels.cone_columns`` call, in call order, and
    a list with one entry per LP that ``dispatch_model`` solves."""
    tested, solves = [], []
    cone_columns, solve = _kernels.cone_columns, dispatch_model.solve

    def counted_test(family, cols, R):
        tested.append(cols)
        return cone_columns(family, cols, R)

    def counted_solve(lp):
        solves.append(None)
        return solve(lp)

    monkeypatch.setattr(_kernels, "cone_columns", counted_test)
    monkeypatch.setattr(dispatch_model, "solve", counted_solve)
    return tested, solves


# LPs solved: one per distinct basis plus one per hour that no cone takes,
# such as the exactly degenerate hours of the fleets (19 of 1008 weak hours
# on ``build_fleet`` 0) and most of the boundary fleet's hours.
@pytest.mark.parametrize("name, solved", [
    ("default_year", 3), ("fleet4", 28), ("degenerate", 12), ("build_fleet0", 29),
    ("fleet_at_boundaries0", 262),
])
def test_each_distinct_basis_is_tested_once(name, solved, monkeypatch):
    """A batch test per distinct basis, in first-hour order, and none for a
    basis found again: its one test already refused every hour left."""
    tested, solves = _count_calls(monkeypatch)
    full = solve_by_cones(DIFFERENTIAL_SYSTEMS[name]())
    assert tested == [basis.indices for basis in full.distinct_bases]
    assert len(solves) == solved
    assert (full.iterations == 0).sum() >= full.objective.size - solved


def test_compare_and_basis_clustering_get_the_bits_of_solve_full():
    want = solve_full(generate_synthetic(default_spec()))
    assert_same_solution(compare_methods_detailed(generate_synthetic(default_spec())).full, want)
    model = basis_cluster(generate_synthetic(default_spec()))
    assert model.assignment.tobytes() == want.basis_ids.tobytes()
    assert model.bases == want.distinct_bases


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4, 44))
def test_solve_by_cones_equals_solve_full_next_to_boundaries_of_more_systems(seed):
    _assert_cones_match_solve_full(lambda: near_boundary_system(np.random.default_rng(seed)))


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4))
def test_solve_by_cones_equals_solve_full_on_fleets_moved_to_boundaries(seed):
    _assert_cones_match_solve_full(lambda: fleet_at_boundaries(np.random.default_rng(seed)))
