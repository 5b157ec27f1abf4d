"""Period clustering: input-space k-means vs optimal-basis grouping.

Features are the per-hour model inputs (demand, then one capacity-factor
column per variable generator), min-max normalised so the squared-error
metric weighs columns comparably.  ``kmeans`` picks k a priori and
minimises that input-space error; ``basis_cluster`` instead groups hours
that share an optimal simplex basis, so k is discovered from the solved
model rather than chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dispatch_model import (
    DispatchSolution,
    Representative,
    RepresentativeSet,
    SystemData,
    regime_label,
    solve_full,
)
from .lp_core import BasisSignature


class ClusterMethod(Enum):
    KMEANS = "kmeans"
    BASIS = "basis"


class KExceedsHError(ValueError):
    """Requested cluster count outside [1, H]."""


@dataclass(frozen=True)
class FeatureMatrix:
    """Normalised per-hour features with the affine map to undo them."""

    values: np.ndarray            # (H, F) in [0, 1]
    columns: tuple[str, ...]      # "demand", then cf series ids
    mins: np.ndarray
    maxs: np.ndarray
    degenerate: tuple[bool, ...]  # constant input columns pinned to 0.5

    def __post_init__(self):
        for name in ("values", "mins", "maxs"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.columns):
            raise ValueError("feature matrix shape does not match columns")

    @property
    def H(self) -> int:
        return self.values.shape[0]

    @property
    def F(self) -> int:
        return self.values.shape[1]

    def denormalize(self, rows: np.ndarray) -> np.ndarray:
        """Map normalised rows back to physical units (exact for constants)."""
        return self.mins + np.asarray(rows) * (self.maxs - self.mins)


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray         # (k, F) normalised
    assignment: np.ndarray        # (H,) cluster id per hour
    weights: np.ndarray           # (k,) member counts
    method: ClusterMethod
    basis_map: dict[int, BasisSignature] | None = None
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.int64)
        _check_partition(self.k, self.assignment, self.weights)


def _check_partition(k, assignment, weights):
    """Raise ValueError unless ``weights`` counts the members of all k ids."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if assignment.min() < 0 or assignment.max() >= k:
        raise ValueError("assignment references unknown cluster ids")
    counts = np.bincount(assignment, minlength=k)
    if not np.array_equal(counts, weights):
        raise ValueError("weights must be the cluster cardinalities")
    if (weights == 0).any():
        raise ValueError("empty cluster in model")


def normalize_features(system: SystemData) -> FeatureMatrix:
    """Min-max normalise demand and variable-generator capacity factors.

    A constant column carries no spread to normalise, so it is pinned to
    0.5 and flagged; ``denormalize`` still restores the original constant
    because the affine span is zero.
    """
    columns = ["demand"] + [g.cf_series_id for g in system.variable_generators()]
    raw = np.column_stack(
        [system.demand]
        + [system.capacity_factors[g.cf_series_id] for g in system.variable_generators()]
    )
    mins = raw.min(axis=0)
    maxs = raw.max(axis=0)
    span = maxs - mins
    degenerate = span == 0.0
    values = np.empty_like(raw)
    for f in range(raw.shape[1]):
        if degenerate[f]:
            values[:, f] = 0.5
        else:
            values[:, f] = (raw[:, f] - mins[f]) / span[f]
    return FeatureMatrix(values, tuple(columns), mins, maxs, tuple(bool(d) for d in degenerate))


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def _distances(XT, centroids, out):
    """Squared distances (k, H) into ``out[0]``, accumulated feature by feature.

    ``XT`` holds the features as rows (F, H); ``out`` is a (2, k, H)
    scratch buffer that callers reuse.  The sum runs ``diff0**2``, then
    ``+= diff_f**2`` in feature order, so each value is the same as from an
    (H, k) sum started at 0.0.
    """
    d2, diff = out
    np.subtract(XT[0], centroids[:, :1], out=d2)
    d2 *= d2
    for f in range(1, XT.shape[0]):
        np.subtract(XT[f], centroids[:, f:f + 1], out=diff)
        diff *= diff
        d2 += diff
    return d2


def _nearest(d2):
    """(labels, own_d2): each point's first nearest centroid, as ``argmin``
    picks it, and its squared distance to that centroid.

    Row j takes a point only where it is strictly closer than rows 0..j-1,
    so ties keep the lowest id; every label so far is below j, so
    ``maximum`` sets exactly those points to j.
    """
    own_d2 = d2[0].copy()
    labels = np.zeros(d2.shape[1], dtype=np.int64)
    for j in range(1, d2.shape[0]):
        closer = d2[j] < own_d2
        np.minimum(own_d2, d2[j], out=own_d2)
        np.maximum(labels, closer * j, out=labels)
    return labels, own_d2


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


def _reseed_empty(labels, counts, own_d2, k):
    """Give each empty cluster the farthest point of a non-singleton cluster."""
    order = np.argsort(-own_d2, kind="stable")
    for cid in range(k):
        if counts[cid] > 0:
            continue
        for cand in order:
            src = labels[cand]
            if counts[src] > 1:
                counts[src] -= 1
                labels[cand] = cid
                counts[cid] = 1
                break


def _member_means(rows, assignment, k):
    """(k, F) mean of the points assigned to each cluster id.

    ``rows`` holds the features as rows (F, H).  ``bincount`` adds each
    feature's values in point order starting from 0.0, the same sums
    ``np.add.at`` makes.  Every id must have a member.
    """
    sums = np.column_stack(
        [np.bincount(assignment, weights=row, minlength=k) for row in rows]
    )
    return sums / np.bincount(assignment, minlength=k)[:, None]


def _lloyd(XT, centroids, max_iter, tol, out):
    k = centroids.shape[0]
    labels = np.full(XT.shape[1], -1, dtype=np.int64)
    for _ in range(max_iter):
        new_labels, own_d2 = _nearest(_distances(XT, centroids, out))
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            _reseed_empty(new_labels, counts, own_d2, k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        updated = _member_means(XT, labels, k)
        if np.abs(updated - centroids).max() < tol:
            centroids = updated
            break
        centroids = updated
    # Every exit leaves centroids as the exact member means of labels.
    d2 = _distances(XT, centroids, out)
    inertia = float(d2[labels, np.arange(XT.shape[1])].sum())
    return labels, centroids, inertia


def _order_by_first_occurrence(labels, centroids, k):
    uniq, first = np.unique(labels, return_index=True)
    order = uniq[np.argsort(first, kind="stable")]
    remap = np.empty(k, dtype=np.int64)
    remap[order] = np.arange(k)
    return remap[labels], centroids[order]


def kmeans(
    features: FeatureMatrix,
    k: int,
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-6,
    restarts: int = 10,
) -> ClusterModel:
    """Best-of-restarts Lloyd iteration with k-means++ seeding.

    Deterministic given (seed, data): restart streams are spawned from one
    seed sequence and ties keep the earliest restart.  Empty clusters are
    re-seeded with the farthest point of a non-singleton cluster, so all k
    clusters stay populated.
    """
    X = features.values
    if not 1 <= k <= features.H:
        raise KExceedsHError(f"k={k} outside [1, {features.H}]")
    XT = np.ascontiguousarray(X.T)
    out = np.empty((2, k, features.H))
    streams = np.random.SeedSequence(seed).spawn(restarts)
    best = None
    for stream in streams:
        rng = np.random.default_rng(stream)
        init = _kmeans_pp(X, k, rng)
        labels, centroids, inertia = _lloyd(XT, init, max_iter, tol, out)
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


def input_mse(features: FeatureMatrix, model: ClusterModel) -> float:
    """Mean squared deviation from assigned centroids over all H*F entries."""
    out = np.empty((2, model.k, features.H))
    d2 = _distances(features.values.T, model.centroids, out)
    per_point = d2[model.assignment, np.arange(features.H)]
    return float(per_point.sum() / (features.H * features.F))


# ---------------------------------------------------------------------------
# basis-oriented clustering
# ---------------------------------------------------------------------------

def basis_cluster(
    system: SystemData,
    features: FeatureMatrix | None = None,
    full: DispatchSolution | None = None,
) -> ClusterModel:
    """Group hours by canonical optimal basis; k is discovered, not chosen.

    Pass a precomputed full solve to avoid repeating the 8760 LPs.  Cluster
    ids follow first occurrence; each cluster records its shared basis plus
    a regime label derived from the marginal generator.
    """
    if features is None:
        features = normalize_features(system)
    if full is None:
        full = solve_full(system)
    if len(full.periods) != features.H:
        raise ValueError("dispatch solution and features disagree on horizon")
    sig_to_cid: dict[BasisSignature, int] = {}
    assignment = np.empty(features.H, dtype=np.int64)
    for h, period in enumerate(full.periods):
        sig = period.solution.basis
        if sig not in sig_to_cid:
            sig_to_cid[sig] = len(sig_to_cid)
        assignment[h] = sig_to_cid[sig]
    k = len(sig_to_cid)
    centroids = _member_means(features.values.T, assignment, k)
    weights = np.bincount(assignment, minlength=k)
    basis_map = {cid: sig for sig, cid in sig_to_cid.items()}
    labels = tuple(regime_label(system, basis_map[cid]) for cid in range(k))
    return ClusterModel(
        k, centroids, assignment, weights, ClusterMethod.BASIS, basis_map, labels
    )


def to_representatives(model: ClusterModel, features: FeatureMatrix) -> RepresentativeSet:
    """Denormalise centroids into representative periods weighted by size.

    Capacity factors are clamped to [0, 1] to shed rounding dust from the
    normalisation round trip; weights are member counts, so they sum to H.
    """
    phys = features.denormalize(model.centroids)
    reps = []
    for cid in range(model.k):
        cf = {
            features.columns[1 + j]: float(np.clip(phys[cid, 1 + j], 0.0, 1.0))
            for j in range(features.F - 1)
        }
        reps.append(Representative(float(phys[cid, 0]), cf, float(model.weights[cid])))
    return RepresentativeSet(tuple(reps))
