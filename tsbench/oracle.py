"""Independent checks of tsagg's outputs.

The benchmark never trusts the program to grade itself: instance files are
parsed here with ``json`` and ``numpy`` alone, and the full-horizon cost is
recomputed in closed form by merit order.  In each hour the must-run floors
are paid first, then the residual demand is filled from the cheapest
headroom upwards; the LP optimum has exactly this cost whatever basis the
simplex ends in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COST_RTOL = 1e-9           # full cost vs merit order, relative
AGG_ERROR_PCT_MAX = 1e-6   # basis aggregation error, percent
TRIAL_GAP_MAX = 1e-9       # worst objective gap of a theorem trial


@dataclass(frozen=True)
class Instance:
    """Costs, bounds and series of a dispatch instance, as written to disk."""

    cost: np.ndarray      # (G,)
    p_min: np.ndarray     # (G,)
    upper: np.ndarray     # (G, H) available capacity per hour
    demand: np.ndarray    # (H,)

    @property
    def hours(self) -> int:
        return int(self.demand.size)


def read_instance(config_path) -> Instance:
    """Parse a config JSON and the series CSV it names, NSE unit included."""
    config_path = Path(config_path)
    doc = json.loads(config_path.read_text())
    series_path = config_path.parent / doc["series"]
    with open(series_path) as handle:
        header = handle.readline().strip().split(",")
    table = np.loadtxt(series_path, delimiter=",", skiprows=1, ndmin=2)
    columns = {name: table[:, j] for j, name in enumerate(header)}
    demand = columns["demand"]
    cost, p_min, upper = [], [], []
    for g in doc["generators"]:
        cost.append(float(g["cost"]))
        p_min.append(float(g.get("p_min", 0.0)))
        cap = float(g["capacity"])
        if g.get("is_variable", False):
            upper.append(cap * columns["cf_" + g["cf_series"]])
        else:
            upper.append(np.full(demand.size, cap))
    nse = doc.get("nse")
    if nse and nse.get("enabled", True):
        cost.append(float(nse.get("cost", 1000.0)))
        p_min.append(0.0)
        mult = nse.get("capacity_multiplier")
        peak = float(demand.max())
        cap = float(mult) * peak if mult is not None else 10.0 * max(peak, 1.0)
        upper.append(np.full(demand.size, cap))
    return Instance(np.array(cost), np.array(p_min), np.array(upper), demand)


def merit_order_costs(inst: Instance) -> np.ndarray:
    """Optimal dispatch cost of every hour, (H,), by merit order.

    Raises ValueError for an hour whose demand lies outside the fleet's
    [sum of floors, sum of available capacity] range.
    """
    residual = inst.demand - inst.p_min.sum()
    headroom = inst.upper - inst.p_min[:, None]
    slack = -1e-9 * max(1.0, float(inst.demand.max()))  # rounding of the sums
    if (residual < slack).any() or (headroom < slack).any():
        raise ValueError("must-run floors exceed demand or availability")
    residual = np.maximum(residual, 0.0)
    headroom = np.maximum(headroom, 0.0)
    order = np.argsort(inst.cost, kind="stable")
    head = headroom[order]
    before = np.cumsum(head, axis=0) - head
    take = np.clip(residual[None, :] - before, 0.0, head)
    if (take.sum(axis=0) < residual * (1.0 - 1e-12)).any():
        raise ValueError("demand exceeds available capacity")
    return float(inst.cost @ inst.p_min) + inst.cost[order] @ take


def rel_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


# ---------------------------------------------------------------------------
# checks per operation; each returns a list of failure messages
# ---------------------------------------------------------------------------

def check_compare(exit_code, out_dir, oracle_total: float) -> list[str]:
    if exit_code != 0:
        return [f"compare exited with {exit_code}"]
    basis = json.loads((Path(out_dir) / "basis_report.json").read_text())
    problems = []
    gap = rel_gap(basis["full_cost"], oracle_total)
    if gap > COST_RTOL:
        problems.append(
            f"full cost {basis['full_cost']!r} vs merit order {oracle_total!r} "
            f"(relative gap {gap:.3e})"
        )
    err_pct = 100.0 * rel_gap(basis["aggregated_cost"], oracle_total)
    if max(err_pct, basis["output_error_pct"]) > AGG_ERROR_PCT_MAX:
        problems.append(
            f"basis aggregation error {err_pct:.3e}% (reported "
            f"{basis['output_error_pct']:.3e}%) exceeds {AGG_ERROR_PCT_MAX}%"
        )
    return problems


def check_solve_full(exit_code, summary_path, oracle_total: float, hours: int) -> list[str]:
    if exit_code != 0:
        return [f"solve-full exited with {exit_code}"]
    doc = json.loads(Path(summary_path).read_text())
    problems = []
    gap = rel_gap(doc["total_cost"], oracle_total)
    if gap > COST_RTOL:
        problems.append(
            f"total cost {doc['total_cost']!r} vs merit order {oracle_total!r} "
            f"(relative gap {gap:.3e})"
        )
    labelled = sum(doc["regime_hours"].values())
    if doc["hours"] != hours or labelled != hours:
        problems.append(
            f"summary covers {doc['hours']} hours, {labelled} labelled; expected {hours}"
        )
    return problems


def check_trials(result, requested: int) -> list[str]:
    problems = []
    if result.failures != 0:
        problems.append(
            f"{result.failures} theorem trial(s) failed: {result.worst_basis_violation}"
        )
    if result.trials != requested:
        problems.append(f"{result.trials} trials completed, {requested} requested")
    if not result.worst_objective_gap <= TRIAL_GAP_MAX:
        problems.append(
            f"worst objective gap {result.worst_objective_gap:.3e} > {TRIAL_GAP_MAX}"
        )
    return problems


# ---------------------------------------------------------------------------
# behaviour digests
# ---------------------------------------------------------------------------

COMPARE_FILES = (
    "summary.txt",
    "kmeans_report.json",
    "basis_report.json",
    "clusters_kmeans.json",
    "clusters_basis.json",
)


def basis_sequence(clusters_basis_path) -> np.ndarray:
    """(H, m) sorted basic indices of every hour, from a basis clusters file."""
    doc = json.loads(Path(clusters_basis_path).read_text())
    bases = np.array([c["basis"] for c in doc["clusters"]], dtype=np.int64)
    return bases[np.array(doc["assignment"], dtype=np.int64)]


def compare_digest(out_dir) -> str:
    """Digest of the per-hour basis sequence and of every compare output file."""
    out_dir = Path(out_dir)
    h = hashlib.sha256()
    seq = basis_sequence(out_dir / "clusters_basis.json")
    h.update(repr(seq.shape).encode())
    h.update(np.ascontiguousarray(seq, dtype="<i8").tobytes())
    for name in COMPARE_FILES:
        h.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    return h.hexdigest()[:32]


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:32]
