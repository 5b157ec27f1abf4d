"""Statuses and objectives against HiGHS, beyond the reach of enumeration.

``oracles.enumerate_lp`` can only check LPs with a handful of columns.  Here
scipy's ``linprog(method="highs")`` (Huangfu & Hall, "Parallelizing the dual
revised simplex method", Math. Prog. Comp. 2018) is the independent solver:
random LPs up to m = 30, n = 60, and the hourly LPs of dispatch systems.
scipy is a test-only dependency; without it these tests are skipped.
"""

import numpy as np
import pytest

from oracles import random_lp_data
from systems import degenerate_system, fleet_system
from tsagg.dispatch_model import _template, hourly_rhs, solve_full
from tsagg.lp_core import LPStatus, StandardFormLP, solve

linprog = pytest.importorskip("scipy.optimize").linprog

# scipy.optimize.linprog status codes
HIGHS_STATUS = {LPStatus.OPTIMAL: 0, LPStatus.INFEASIBLE: 2, LPStatus.UNBOUNDED: 3}
REL_TOL = 1e-7


def _highs(lp):
    return linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")


def _assert_objective(ours, theirs, where):
    assert abs(ours - theirs) <= REL_TOL * max(1.0, abs(theirs)), where


def test_random_lps_match_highs():
    rng = np.random.default_rng(31)
    statuses, sizes = set(), []
    for k in range(150):
        lp = StandardFormLP(*random_lp_data(rng, max_m=30, max_n=60))
        sol, res = solve(lp), _highs(lp)
        assert HIGHS_STATUS[sol.status] == res.status, (k, sol.status, res.message)
        statuses.add(sol.status)
        if sol.status is LPStatus.OPTIMAL:
            _assert_objective(sol.objective, res.fun, k)
            sizes.append(lp.A.shape)
    assert statuses == set(HIGHS_STATUS)
    assert max(m for m, _ in sizes) >= 25 and max(n for _, n in sizes) >= 50


@pytest.mark.parametrize("make", [
    lambda: fleet_system(np.random.default_rng(4)),
    degenerate_system,
], ids=["fleet", "degenerate"])
def test_hourly_objectives_match_highs(make):
    system = make()
    full = solve_full(system)
    # every hour with an exact 0 or 1 capacity factor, plus a stride sample
    exact = np.zeros(system.horizon, dtype=bool)
    for cf in system.capacity_factors.values():
        exact |= (cf == 0.0) | (cf == 1.0)
    hours = sorted(set(np.flatnonzero(exact).tolist()) | set(range(0, system.horizon, 7)))
    for h in hours:
        res = _highs(StandardFormLP(*_template(system), hourly_rhs(system, h)))
        assert res.status == 0, (h, res.message)
        _assert_objective(full.objective[h], res.fun, h)
