"""Period clustering: input-space k-means vs optimal-basis grouping.

Features are the per-hour model inputs (demand, then one capacity-factor
column per variable generator), min-max normalised so the squared-error
metric weighs columns comparably.  ``kmeans`` picks k a priori and
minimises that input-space error; ``basis_cluster`` instead groups hours
that share an optimal simplex basis, so k is discovered from the solved
model rather than chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dispatch_model import (
    DispatchSolution,
    Representative,
    SystemData,
    regime_label,
    solve_full,
)
from .lp_core import BasisSignature, readonly


class ClusterMethod(Enum):
    KMEANS = "kmeans"
    BASIS = "basis"


class KExceedsHError(ValueError):
    """Requested cluster count outside [1, H]."""


# k-means: Lloyd iterations per restart, the centroid shift that ends them
# early, and the k-means++ restarts of which the lowest inertia is kept.
# Restarts run g at a time in lockstep, with g*k*H at most GROUP_ELEMENTS
# (g = 1 beyond), so short horizons pay numpy's call overhead once per group.
MAX_ITER = 300
TOL = 1e-6
RESTARTS = 10
GROUP_ELEMENTS = 2 ** 15


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Normalised per-hour features with the affine map to undo them."""

    values: np.ndarray            # (H, F) in [0, 1]
    columns: tuple[str, ...]      # "demand", then cf series ids
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        for name in ("values", "mins", "maxs"):
            vars(self)[name] = readonly(getattr(self, name))  # frozen: set through the dict
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


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """A partition of the hours of ``features`` into k clusters; ``centroids``
    (member means) and ``weights`` (member counts) derive from ``assignment``."""

    features: FeatureMatrix
    k: int
    assignment: np.ndarray        # (H,) cluster id per hour
    method: ClusterMethod
    labels: tuple[str, ...]       # (k,) one per cluster
    bases: tuple[BasisSignature, ...] | None = None  # (k,) basis clustering only
    centroids: np.ndarray = field(init=False)  # (k, F) normalised, derived
    weights: np.ndarray = field(init=False)  # (k,) derived

    def __post_init__(self):
        assignment = readonly(self.assignment, np.int64)
        if assignment.shape != (self.features.H,):
            raise ValueError(f"assignment of shape {assignment.shape} for {self.features.H} hours")
        weights = readonly(_check_partition(self.k, assignment), np.int64, copy=False)
        # ``bincount`` adds each feature in point order from 0.0, the sums
        # ``_lloyd_group`` makes, so a k-means model's centroids are its own.
        sums = [np.bincount(assignment, row, self.k) for row in self.features.values.T]
        centroids = readonly(np.column_stack(sums) / weights[:, None], copy=False)
        bases = None if self.bases is None else tuple(self.bases)
        vars(self).update(centroids=centroids, assignment=assignment,
                          weights=weights, labels=tuple(self.labels), bases=bases)  # frozen
        if len(self.labels) != self.k:
            raise ValueError(f"{len(self.labels)} cluster labels for k = {self.k}")
        if self.bases is not None and self.method is ClusterMethod.KMEANS:
            raise ValueError("a k-means model has no cluster bases")


@dataclass(frozen=True)
class ClusterSummary(Representative):
    """One cluster as a representative period, with its label and, for
    basis clustering, its shared basis."""

    label: str
    basis: BasisSignature | None


def _check_partition(k, assignment):
    """The member count of each of the k ids of ``assignment``; ValueError
    unless every id is in [0, k) and each of them has a member."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if assignment.min() < 0 or assignment.max() >= k:
        raise ValueError("assignment references unknown cluster ids")
    counts = np.bincount(assignment, minlength=k)
    if (counts == 0).any():
        raise ValueError("empty cluster in model")
    return counts


def normalize_features(system: SystemData) -> FeatureMatrix:
    """Min-max normalise demand and variable-generator capacity factors.

    A constant column carries no spread to normalise, so it is pinned to
    0.5; ``denormalize`` still restores the original constant because the
    affine span is zero.
    """
    columns = ["demand"] + [g.cf_series_id for g in system.variable_generators()]
    raw = np.column_stack(
        [system.demand]
        + [system.capacity_factors[g.cf_series_id] for g in system.variable_generators()]
    )
    mins = raw.min(axis=0)
    maxs = raw.max(axis=0)
    span = maxs - mins
    values = np.empty_like(raw)
    for f in range(raw.shape[1]):
        if span[f] == 0.0:
            values[:, f] = 0.5
        else:
            values[:, f] = (raw[:, f] - mins[f]) / span[f]
    return FeatureMatrix(values, tuple(columns), mins, maxs)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def _distances(XT, centroids, out):
    """Squared distances (..., k, H) into ``out[0]``, summed feature by feature.

    ``XT`` holds the features as rows (F, H), ``centroids`` is (..., k, F)
    and ``out`` a (2, ..., k, H) scratch buffer that callers reuse.  The sum
    runs ``diff0**2``, then ``+= diff_f**2`` in feature order, so each value
    is the same as from an (H, k) sum started at 0.0.
    """
    d2, diff = out
    np.subtract(XT[0], centroids[..., :1], out=d2)
    d2 *= d2
    for f in range(1, XT.shape[0]):
        np.subtract(XT[f], centroids[..., f:f + 1], out=diff)
        diff *= diff
        d2 += diff
    return d2


def _kmeans_pp(XT, k, rng, out):
    """(k, F) k-means++ seeds; ``out`` is a (2, 1, H) scratch.  Distances
    are built column by column, the same sums as a row sum over (H, F)."""
    H = XT.shape[1]
    chosen = [int(rng.integers(H))]
    d2 = _distances(XT, XT[:, chosen].T, out)[0].copy()
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            j = int(rng.integers(H))  # every point already sits on a centroid
        else:
            j = int(rng.choice(H, p=d2 / total))
        chosen.append(j)
        np.minimum(d2, _distances(XT, XT[:, [j]].T, out)[0], out=d2)
    return XT[:, chosen].T.copy()


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


def _lloyd_group(XT, tiled, centroids, final, out):
    """Lloyd iteration of g restarts in lockstep, one call per array
    operation for all running restarts.

    ``centroids`` (g, k, F) holds the seeds, ``tiled`` (F, >= g*H) the
    feature rows repeated g times and ``out`` a (2, >= g, k, H) scratch.
    Restart r leaves when its labels repeat, its centroids shift by less
    than ``TOL`` or after ``MAX_ITER`` steps, with its labels in ``final[r]``
    and centroids in ``centroids[r]``, as if it had run alone.
    """
    g, k, _ = centroids.shape
    H = XT.shape[1]
    offsets = np.arange(0, g * k, k)[:, None]
    ids = np.arange(g)
    labels = np.full((g, H), -1, dtype=np.int64)
    C = centroids
    for _ in range(MAX_ITER):
        a = len(ids)
        d2 = _distances(XT, C, out[:, :a])
        # Row j takes the points strictly closer than rows 0..j-1 (ties keep
        # the lowest id, as ``argmin``); all labels so far are below j.
        own_d2 = d2[:, 0].copy()
        new = np.zeros((a, H), dtype=np.int64)
        for j in range(1, k):
            closer = d2[:, j] < own_d2
            np.minimum(own_d2, d2[:, j], out=own_d2)
            np.maximum(new, closer * j, out=new)
        # Restart r's ids are offset by r*k, so one bincount serves the group
        # and each bin still adds its own restart's points in point order.
        bins = (new + offsets[:a]).ravel()
        counts = np.bincount(bins, minlength=a * k).reshape(a, k)
        if counts.min() == 0:
            for r in np.flatnonzero((counts == 0).any(axis=1)):
                _reseed_empty(new[r], counts[r], own_d2[r], k)
            bins = (new + offsets[:a]).ravel()
        sums = np.column_stack(
            [np.bincount(bins, weights=row[:a * H], minlength=a * k) for row in tiled]
        )
        updated = (sums / counts.reshape(a * k, 1)).reshape(a, k, -1)
        stop = np.abs(updated - C).max(axis=(1, 2)) < TOL
        stop |= (new == labels).all(axis=1)
        # A restart whose labels repeat gets back the centroids it has: they
        # were the member means of those labels, summed the same way.
        labels, C = new, updated
        if stop.any():
            final[ids[stop]], centroids[ids[stop]] = labels[stop], C[stop]
            ids, labels, C = ids[~stop], labels[~stop], C[~stop]
            if not len(ids):
                return
    final[ids] = labels
    centroids[ids] = C


def _order_by_first_occurrence(labels, centroids, k):
    uniq, first = np.unique(labels, return_index=True)
    order = uniq[np.argsort(first, kind="stable")]
    remap = np.empty(k, dtype=np.int64)
    remap[order] = np.arange(k)
    return remap[labels], centroids[order]


def check_kmeans_args(H: int, k: int | None, seed: int) -> None:
    """Refuse a ``kmeans`` k outside [1, H] (None is not checked) or a
    negative seed, as ``kmeans`` itself does."""
    if k is not None and not 1 <= k <= H:
        raise KExceedsHError(f"k={k} outside [1, {H}]")
    if seed < 0:
        raise ValueError(f"k-means seed must be >= 0, got {seed}")


def kmeans(features: FeatureMatrix, k: int, seed: int = 0) -> ClusterModel:
    """Best-of-restarts Lloyd iteration with k-means++ seeding.

    Deterministic given (seed, data): restart streams are spawned from one
    seed sequence and ties keep the earliest restart.  Empty clusters are
    re-seeded with the farthest point of a non-singleton cluster, so all k
    clusters stay populated.

    Consecutive restarts run in lockstep groups of g = max(1, min(RESTARTS,
    GROUP_ELEMENTS // (k*H))): each numpy call of a Lloyd step serves g of
    them (the default year runs at g = 1), and no value changes.
    """
    H = features.H
    check_kmeans_args(H, k, seed)
    XT = np.ascontiguousarray(features.values.T)
    g = max(1, min(RESTARTS, GROUP_ELEMENTS // (k * H)))
    tiled = XT if g == 1 else np.tile(XT, g)
    out = np.empty((2, g, k, H))
    final = np.empty((g, H), dtype=np.int64)
    streams = np.random.SeedSequence(seed).spawn(RESTARTS)
    best = None
    for start in range(0, RESTARTS, g):
        centroids = np.array([
            _kmeans_pp(XT, k, np.random.default_rng(stream), out[:, :1, 0])
            for stream in streams[start:start + g]
        ])
        _lloyd_group(XT, tiled, centroids, final, out)
        for r in range(len(centroids)):
            # Every exit leaves centroids as the exact member means of labels.
            d2 = _distances(XT, centroids[r], out[:, 0])
            inertia = float(d2[final[r], np.arange(H)].sum())
            if best is None or inertia < best[0]:
                best = (inertia, final[r].copy(), centroids[r])
    _, labels, centroids = best
    labels, _ = _order_by_first_occurrence(labels, centroids, k)
    return ClusterModel(
        features, k, labels, ClusterMethod.KMEANS, tuple(f"cluster {i}" for i in range(k))
    )


def input_mse(model: ClusterModel) -> float:
    """Mean squared deviation from assigned centroids over all H*F entries."""
    features = model.features
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
    if len(full.basis_ids) != features.H:
        raise ValueError("dispatch solution and features disagree on horizon")
    assignment, bases = full.basis_ids, full.distinct_bases
    k = len(bases)
    labels = tuple(regime_label(system, basis) for basis in bases)
    return ClusterModel(features, k, assignment, ClusterMethod.BASIS, labels, bases)


def to_representatives(model: ClusterModel) -> tuple[ClusterSummary, ...]:
    """Denormalise centroids into one summary per cluster, weighted by size.

    Capacity factors are clamped to [0, 1] to shed rounding dust from the
    normalisation round trip; weights are member counts, so they sum to H.
    """
    features = model.features
    phys = features.denormalize(model.centroids)
    bases = model.bases or (None,) * model.k
    reps = []
    for cid in range(model.k):
        cf = {
            features.columns[1 + j]: float(np.clip(phys[cid, 1 + j], 0.0, 1.0))
            for j in range(features.F - 1)
        }
        reps.append(ClusterSummary(float(phys[cid, 0]), cf, float(model.weights[cid]),
                                   model.labels[cid], bases[cid]))
    return tuple(reps)
