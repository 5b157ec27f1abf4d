"""Clustering tests: normalisation, k-means behaviour, basis grouping."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from systems import fleet_system, random_system, thermal_wind
from tsagg.data_io import default_spec, generate_synthetic
from tsagg.dispatch_model import SystemData, _template, hourly_rhs, solve_full
from tsagg.lp_core import LPStatus, StandardFormLP, solve_with_basis
from tsagg.tsa_clustering import (
    ClusterMethod,
    ClusterModel,
    FeatureMatrix,
    KExceedsHError,
    basis_cluster,
    input_mse,
    kmeans,
    normalize_features,
    to_representatives,
)
from systems import THERMAL


def feature_matrix(values):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    mins = values.min(axis=0)
    maxs = values.max(axis=0)
    span = np.where(maxs > mins, maxs - mins, 1.0)
    norm = (values - mins) / span
    cols = tuple(["demand"] + [f"cf{i}" for i in range(values.shape[1] - 1)])
    return FeatureMatrix(norm, cols, mins, maxs)


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------

def test_normalize_hits_unit_interval_endpoints():
    system = thermal_wind([20.0, 60.0, 100.0], [0.1, 0.5, 0.9])
    feats = normalize_features(system)
    assert feats.columns == ("demand", "wind")
    np.testing.assert_allclose(feats.values[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(feats.values[:, 1], [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(feats.mins == feats.maxs, [False, False])


def test_features_and_models_compare_by_identity():
    system = thermal_wind([20.0, 60.0, 100.0], [0.1, 0.5, 0.9])
    feats, twin = normalize_features(system), normalize_features(system)
    assert feats == feats
    assert (feats == twin) is False
    assert len({feats, twin}) == 2
    model, again = kmeans(feats, 2, seed=0), kmeans(feats, 2, seed=0)
    assert model == model
    assert (model == again) is False
    assert len({model, again}) == 2


def test_normalize_constant_column_pinned_and_flagged():
    system = thermal_wind([50.0, 50.0, 50.0], [0.2, 0.5, 0.8])
    feats = normalize_features(system)
    np.testing.assert_array_equal(feats.values[:, 0], [0.5, 0.5, 0.5])
    np.testing.assert_array_equal(feats.mins == feats.maxs, [True, False])
    # the affine inverse still restores the constant
    np.testing.assert_allclose(feats.denormalize(feats.values)[:, 0], 50.0)


def test_normalize_roundtrip_within_1e12():
    rng = np.random.default_rng(8)
    for _ in range(10):
        system = random_system(rng, hours=50)
        feats = normalize_features(system)
        raw = np.column_stack([system.demand, system.capacity_factors["wind"]])
        back = feats.denormalize(feats.values)
        np.testing.assert_allclose(back, raw, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def test_kmeans_k1_centroid_is_mean_and_mse_quarter():
    """Two periods at feature values 0 and 1: centroid 0.5, MSE 0.25."""
    system = SystemData((THERMAL,), [0.0, 1.0])
    feats = normalize_features(system)
    model = kmeans(feats, 1, seed=0)
    np.testing.assert_allclose(model.centroids, [[0.5]])
    assert input_mse(model) == pytest.approx(0.25)


def test_kmeans_k_equals_h_gives_zero_mse():
    feats = feature_matrix([1.0, 2.0, 4.0, 9.0])
    model = kmeans(feats, 4, seed=3)
    assert input_mse(model) == pytest.approx(0.0, abs=1e-15)
    assert sorted(model.weights.tolist()) == [1, 1, 1, 1]


def test_kmeans_k_bounds():
    feats = feature_matrix([1.0, 2.0])
    with pytest.raises(KExceedsHError):
        kmeans(feats, 3)
    with pytest.raises(KExceedsHError):
        kmeans(feats, 0)


@pytest.mark.parametrize("make,k", [
    (lambda: generate_synthetic(default_spec()), 3),
    (lambda: fleet_system(np.random.default_rng(0)), 10),
    (lambda: generate_synthetic(default_spec(hours=336)), 3),
], ids=["default_year", "fleet", "two_weeks"])
def test_kmeans_scratch_stays_within_the_year_budget(make, k):
    # the lockstep groups are sized so that no input's k-means allocates
    # more than the default year's (about 1.1 MiB)
    features = normalize_features(make())
    tracemalloc.start()
    try:
        kmeans(features, k, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 2**20


def blobs(seed=0, per=30):
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [
            rng.normal(0.1, 0.01, per),
            rng.normal(0.5, 0.01, per),
            rng.normal(0.9, 0.01, per),
        ]
    )
    order = rng.permutation(pts.size)
    return feature_matrix(pts[order]), order


def test_kmeans_recovers_separated_blobs():
    feats, order = blobs()
    truth = np.repeat([0, 1, 2], 30)[order]  # blob of each shuffled point
    model = kmeans(feats, 3, seed=1)
    # same partition up to label names
    seen = {}
    for ours, true in zip(model.assignment, truth):
        seen.setdefault(true, ours)
        assert seen[true] == ours
    assert sorted(model.weights.tolist()) == [30, 30, 30]


def test_kmeans_deterministic_for_fixed_seed():
    feats, _ = blobs(seed=5)
    a = kmeans(feats, 3, seed=9)
    b = kmeans(feats, 3, seed=9)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_centroids_are_member_means():
    feats, _ = blobs(seed=2)
    model = kmeans(feats, 3, seed=0)
    for cid in range(3):
        member_mean = feats.values[model.assignment == cid].mean(axis=0)
        np.testing.assert_allclose(model.centroids[cid], member_mean, atol=1e-9)


def test_kmeans_partition_props():
    feats, _ = blobs(seed=4)
    model = kmeans(feats, 3, seed=2)
    assert model.weights.sum() == feats.H
    assert model.assignment.min() >= 0 and model.assignment.max() < 3
    np.testing.assert_array_equal(
        np.bincount(model.assignment, minlength=3), model.weights
    )


def test_kmeans_cluster_ids_follow_first_occurrence():
    feats, _ = blobs(seed=6)
    model = kmeans(feats, 3, seed=11)
    first_seen = []
    for cid in model.assignment:
        if cid not in first_seen:
            first_seen.append(int(cid))
    assert first_seen == [0, 1, 2]


def test_kmeans_no_single_point_move_improves_blobs():
    feats, _ = blobs(seed=7)
    model = kmeans(feats, 3, seed=3)
    X = feats.values

    def inertia(labels):
        total = 0.0
        for cid in range(3):
            member = X[labels == cid]
            total += ((member - member.mean(axis=0)) ** 2).sum()
        return total

    base = inertia(model.assignment)
    for h in range(feats.H):
        for cid in range(3):
            if cid == model.assignment[h]:
                continue
            trial = model.assignment.copy()
            trial[h] = cid
            if np.bincount(trial, minlength=3).min() == 0:
                continue
            assert inertia(trial) >= base - 1e-12


def test_kmeans_duplicate_points_keep_all_clusters_populated():
    feats = feature_matrix([0.0, 0.0, 0.0, 1.0, 1.0])
    model = kmeans(feats, 3, seed=0)
    assert model.weights.min() >= 1
    assert model.weights.sum() == 5


# ---------------------------------------------------------------------------
# basis clustering
# ---------------------------------------------------------------------------

def test_basis_cluster_three_regimes():
    system = thermal_wind(
        [30.0, 125.0, 160.0, 20.0, 110.0, 155.0],
        [0.9, 0.6, 0.7, 0.8, 0.5, 0.6],
    )
    model = basis_cluster(system)
    assert model.method is ClusterMethod.BASIS
    assert model.k == 3
    assert set(model.labels) == {"wind marginal", "thermal marginal", "NSE"}
    # ids by first occurrence: wind-covered hour first, then thermal, then NSE
    assert model.labels[0] == "wind marginal"
    np.testing.assert_array_equal(model.assignment, [0, 1, 2, 0, 1, 2])
    np.testing.assert_array_equal(model.weights, [2, 2, 2])


def test_a_cluster_model_refuses_every_write():
    """D26: the partition was checked once, in the constructor, and its
    arrays and fields stayed writable, so weights summing to 29 on a 24 h
    system or an unknown cluster id reached the aggregated solve and the
    clusters file."""
    system = random_system(np.random.default_rng(0))
    features = normalize_features(system)
    model = kmeans(features, 3, seed=0)
    with pytest.raises(ValueError):
        model.weights[0] += 5
    with pytest.raises(ValueError):
        model.assignment[0] = 7
    with pytest.raises(ValueError):
        model.centroids[0, 0] = 0.5
    for name in ("features", "k", "centroids", "assignment", "weights", "labels", "bases"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, getattr(model, name))
    reps = to_representatives(model)
    assert sum(rep.weight for rep in reps) == system.horizon == 24
    np.testing.assert_array_equal(model.weights, np.bincount(model.assignment))


def test_cluster_weights_and_centroids_are_derived_from_the_assignment():
    """The constructor takes neither weights nor centroids; they are each
    id's member count and member mean, and a partition that leaves an id
    empty, names an unknown id or does not cover the hours is refused."""
    features = normalize_features(thermal_wind([30.0, 125.0, 160.0], [0.9, 0.6, 0.7]))
    model = ClusterModel(features, 2, [1, 0, 1], ClusterMethod.KMEANS, ("a", "b"))
    assert model.features is features
    assert model.weights.tolist() == [1, 2] and model.weights.dtype == np.int64
    values = features.values
    np.testing.assert_array_equal(model.centroids, [values[1], (values[0] + values[2]) / 2])
    for assignment, message in (([0, 0, 0], "empty cluster"), ([0, 2, 1], "unknown cluster ids"),
                                ([0, 1], "for 3 hours")):
        with pytest.raises(ValueError, match=message):
            ClusterModel(features, 2, assignment, ClusterMethod.KMEANS, ("a", "b"))


def test_a_kmeans_model_has_no_cluster_bases():
    """Bases are a basis clustering's; k-means clusters may mix bases, so a
    k-means model that names one per cluster is refused.  A basis model
    may leave them out."""
    system = thermal_wind([30.0, 125.0, 160.0], [0.9, 0.6, 0.7])
    model = basis_cluster(system)
    with pytest.raises(ValueError, match="a k-means model has no cluster bases"):
        dataclasses.replace(model, method=ClusterMethod.KMEANS)
    assert dataclasses.replace(model, bases=None).bases is None


@pytest.mark.parametrize("count", [1, 6])
def test_a_cluster_model_refuses_bases_that_are_not_one_per_cluster(count):
    """D34: one basis for k = 3 was accepted, and ``to_representatives`` then
    failed with a bare IndexError; six were accepted, the last three carried
    silently."""
    model = basis_cluster(thermal_wind([30.0, 125.0, 160.0], [0.9, 0.6, 0.7]))
    assert model.k == 3
    with pytest.raises(ValueError, match=f"{count} cluster bases for k = 3"):
        dataclasses.replace(model, bases=(model.bases * 2)[:count])


def test_basis_cluster_constant_series_single_cluster():
    system = thermal_wind([120.0] * 5, [0.8] * 5)
    model = basis_cluster(system)
    assert model.k == 1
    np.testing.assert_array_equal(model.weights, [5])
    assert model.labels == ("thermal marginal",)


def test_basis_cluster_purity_and_reuse_of_precomputed_solve():
    rng = np.random.default_rng(13)
    system = random_system(rng, hours=40)
    full = solve_full(system)
    model = basis_cluster(system, full=full)
    for h, j in enumerate(full.basis_ids):
        assert model.bases[int(model.assignment[h])] == full.distinct_bases[j]


def test_basis_centroid_stays_optimal_for_cluster_basis():
    """Average RHS of a basis cluster is solved optimally by that same basis."""
    rng = np.random.default_rng(29)
    for _ in range(8):
        system = random_system(rng, hours=30)
        full = solve_full(system)
        model = basis_cluster(system, full=full)
        reps = to_representatives(model)
        for cid, rep in enumerate(reps):
            members = np.nonzero(model.assignment == cid)[0]
            member_obj = np.mean(full.objective[members])
            agg_system = SystemData(
                system.generators,
                [rep.demand],
                {"wind": [rep.cf["wind"]]},
            )
            lp = StandardFormLP(*_template(agg_system), hourly_rhs(agg_system, 0))
            sol = solve_with_basis(lp, model.bases[cid])
            assert sol.status is LPStatus.OPTIMAL
            assert sol.objective == pytest.approx(member_obj, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# representatives
# ---------------------------------------------------------------------------

def test_to_representatives_denormalises_and_weights_sum_to_h():
    system = thermal_wind(
        [30.0, 125.0, 160.0, 20.0, 110.0, 155.0],
        [0.9, 0.6, 0.7, 0.8, 0.5, 0.6],
    )
    feats = normalize_features(system)
    model = basis_cluster(system, features=feats)
    reps = to_representatives(model)
    assert sum(rep.weight for rep in reps) == system.horizon
    assert [(rep.label, rep.basis) for rep in reps] == list(zip(model.labels, model.bases))
    demand = system.demand
    cf = system.capacity_factors["wind"]
    for cid, rep in enumerate(reps):
        members = model.assignment == cid
        assert rep.demand == pytest.approx(demand[members].mean(), rel=1e-12)
        assert rep.cf["wind"] == pytest.approx(cf[members].mean(), rel=1e-12)
        assert 0.0 <= rep.cf["wind"] <= 1.0


def test_to_representatives_clamps_cf_rounding_dust():
    values = np.array([[0.5, 1.0], [0.5, 1.0]])
    feats = FeatureMatrix(
        values,
        ("demand", "wind"),
        np.array([100.0, 0.0]),
        np.array([100.0, 1.0 + 5e-16]),
    )
    model = kmeans(feats, 1, seed=0)
    reps = to_representatives(model)
    assert reps[0].cf["wind"] == 1.0


CLAMP_SYSTEMS = {
    "default_year": lambda: generate_synthetic(default_spec()),
    **{f"fleet_{i}": lambda i=i: fleet_system(np.random.default_rng(i)) for i in range(5)},
    **{f"random_{seed}": lambda seed=seed: random_system(np.random.default_rng(seed))
       for seed in range(10)},
}


@pytest.mark.parametrize("name", CLAMP_SYSTEMS)
def test_to_representatives_clamp_removes_only_rounding_dust(name):
    """The [0, 1] clamp of a representative's capacity factors moves no
    value by more than 4 ulp of 1.0, for the basis model (k = K) and for
    k-means at k in {1, 3, K}."""
    system = CLAMP_SYSTEMS[name]()
    feats = normalize_features(system)
    basis = basis_cluster(system, features=feats)
    models = [basis] + [kmeans(feats, k, seed=0) for k in sorted({1, 3, basis.k})]
    dust = 4 * np.spacing(1.0)
    for model in models:
        phys = feats.denormalize(model.centroids)
        for cid, rep in enumerate(to_representatives(model)):
            for j, column in enumerate(feats.columns[1:], start=1):
                assert abs(rep.cf[column] - phys[cid, j]) <= dust, (model.method, model.k)
