"""k-means must equal the earlier (H, k) / ``np.add.at`` implementation bitwise.

``oracles.kmeans_reference`` keeps that implementation verbatim, its
k-means++ seeding included, and runs one restart at a time.  The
assignment, the centroids and ``input_mse`` are compared as raw bytes, so
values and signs of zero must agree, also when ``kmeans`` runs its restarts
in lockstep groups of any size.
"""

import numpy as np
import pytest

import oracles
from oracles import input_mse_reference, kmeans_reference
from systems import fleet_system
from tsagg import tsa_clustering
from tsagg.data_io import default_spec, generate_synthetic
from tsagg.tsa_clustering import FeatureMatrix, input_mse, kmeans, normalize_features


def _bits(v):
    return np.asarray(v).tobytes()


def _assert_same(features, k, seed):
    _assert_equal(features, kmeans(features, k, seed=seed),
                  kmeans_reference(features, k, seed=seed), k, seed)


def _assert_equal(features, model, ref, k, seed):
    assert _bits(model.assignment) == _bits(ref.assignment), (k, seed)
    assert _bits(model.centroids) == _bits(ref.centroids), (k, seed)
    assert _bits(model.weights) == _bits(ref.weights), (k, seed)
    mse = input_mse(model)
    assert _bits(np.float64(mse)) == _bits(np.float64(input_mse_reference(features, ref)))


def _features(values):
    F = values.shape[1]
    cols = ("demand",) + tuple(f"cf{i}" for i in range(F - 1))
    return FeatureMatrix(values, cols, np.zeros(F), np.ones(F))


def _random_case(rng):
    """(values, k) with H <= 40 and F in 1..3, in three kinds: uniform data,
    integer-grid data with exact distance ties, and a few distinct points
    repeated (k-means++ then runs out of positive distances when k exceeds
    them).  k is 1, H or anything between, and Lloyd often empties a
    cluster on the repeated kinds."""
    H = int(rng.integers(1, 41))
    F = int(rng.integers(1, 4))
    kind = rng.integers(3)
    if kind == 0:
        values = rng.uniform(0.0, 1.0, size=(H, F))
    elif kind == 1:
        values = rng.integers(0, 4, size=(H, F)) / 3.0
    else:
        points = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 5)), F))
        values = points[rng.integers(len(points), size=H)]
    pick = rng.integers(4)
    k = 1 if pick == 0 else H if pick == 1 else int(rng.integers(1, H + 1))
    return values, k


def test_kmeans_bitwise_equal_to_reference_on_random_cases(monkeypatch):
    reseeds = []
    original = tsa_clustering._reseed_empty

    def counting(*args):
        reseeds.append(1)
        return original(*args)

    monkeypatch.setattr(tsa_clustering, "_reseed_empty", counting)
    rng = np.random.default_rng(17)
    k_edges = set()
    widths = set()
    short_of_distinct = 0
    for _ in range(300):
        values, k = _random_case(rng)
        H, F = values.shape
        k_edges.add((k == 1, k == H))
        widths.add(F)
        short_of_distinct += k > len(np.unique(values, axis=0))
        _assert_same(_features(values), k, seed=int(rng.integers(1000)))
    assert len(reseeds) >= 100
    assert short_of_distinct >= 30
    assert {(True, False), (False, True), (False, False)} <= k_edges
    assert widths == {1, 2, 3}


@pytest.mark.parametrize("k", [3, 8])
def test_kmeans_bitwise_equal_to_reference_on_default_year(k):
    _assert_same(normalize_features(generate_synthetic(default_spec())), k, seed=0)


def test_kmeans_bitwise_equal_to_reference_on_fleet():
    features = normalize_features(fleet_system(np.random.default_rng(4)))
    assert features.F == 3
    for k in (2, 10):
        _assert_same(features, k, seed=5)


# --- lockstep groups ----------------------------------------------------------

GROUP_SIZES = [1, 2, 3, 7, tsa_clustering.RESTARTS]


def _grouped_kmeans(monkeypatch, features, k, seed, g):
    """``kmeans`` with its group budget set so that restarts run g at a time,
    the last group taking what is left; returns the model and the number of
    reseeds."""
    sizes, reseeds = [], []
    lloyd_group = tsa_clustering._lloyd_group
    reseed_empty = tsa_clustering._reseed_empty

    def sized(XT, tiled, centroids, *rest):
        sizes.append(len(centroids))
        return lloyd_group(XT, tiled, centroids, *rest)

    def counted(*args):
        reseeds.append(1)
        return reseed_empty(*args)

    monkeypatch.setattr(tsa_clustering, "GROUP_ELEMENTS", g * k * features.H)
    monkeypatch.setattr(tsa_clustering, "_lloyd_group", sized)
    monkeypatch.setattr(tsa_clustering, "_reseed_empty", counted)
    model = kmeans(features, k, seed=seed)
    restarts = tsa_clustering.RESTARTS
    assert sizes == [g] * (restarts // g) + [restarts % g] * (restarts % g > 0)
    return model, len(reseeds)


def _oracle_runs(monkeypatch, features, k, seed, max_iter=300):
    """The reference model and each restart's (steps, inertia, labels)."""
    runs, calls = [], []
    lloyd, distances = oracles._lloyd, oracles._point_distances

    def counted(*args):
        calls.append(1)
        return distances(*args)

    def recorded(*args):
        calls.clear()
        labels, centroids, inertia = lloyd(*args)
        runs.append((len(calls) - 1, inertia, labels))  # the last call prices it
        return labels, centroids, inertia

    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_lloyd", recorded)
        patch.setattr(oracles, "_point_distances", counted)
        ref = kmeans_reference(features, k, seed=seed, max_iter=max_iter)
    return ref, runs


def _spots_and_noise():
    """Twenty points on three spots and twenty uniform ones: with seed 7,
    the restarts of k = 3 stop after 2 to 9 Lloyd steps."""
    rng = np.random.default_rng(2)
    spots = rng.uniform(size=(3, 2))
    return _features(np.vstack([spots[rng.integers(3, size=20)], rng.uniform(size=(20, 2))]))


@pytest.mark.parametrize("g", GROUP_SIZES)
def test_group_restarts_stop_at_different_steps(monkeypatch, g):
    features = _spots_and_noise()
    ref, runs = _oracle_runs(monkeypatch, features, 3, seed=7)
    assert len({steps for steps, _, _ in runs}) >= 5
    model, _ = _grouped_kmeans(monkeypatch, features, 3, 7, g)
    _assert_equal(features, model, ref, 3, 7)


@pytest.mark.parametrize("g", GROUP_SIZES)
def test_group_restarts_hit_max_iter_while_others_converge(monkeypatch, g):
    features = _spots_and_noise()
    free, runs = _oracle_runs(monkeypatch, features, 3, seed=7)
    steps = [s for s, _, _ in runs]
    assert min(steps) < 3 < max(steps)
    ref, capped = _oracle_runs(monkeypatch, features, 3, seed=7, max_iter=3)
    assert [s for s, _, _ in capped] == [min(s, 3) for s in steps]
    assert _bits(ref.centroids) != _bits(free.centroids)  # the cap decides the result
    monkeypatch.setattr(tsa_clustering, "MAX_ITER", 3)
    model, _ = _grouped_kmeans(monkeypatch, features, 3, 7, g)
    _assert_equal(features, model, ref, 3, 7)


@pytest.mark.parametrize("g", GROUP_SIZES)
def test_group_reseeds_an_empty_cluster(monkeypatch, g):
    # six clusters on four distinct points: seeds coincide and Lloyd empties
    # clusters, which are re-seeded inside the group
    rng = np.random.default_rng(2)
    points = rng.uniform(size=(4, 2))
    features = _features(points[rng.integers(4, size=30)])
    model, reseeds = _grouped_kmeans(monkeypatch, features, 6, 5, g)
    assert reseeds >= tsa_clustering.RESTARTS
    _assert_equal(features, model, kmeans_reference(features, 6, seed=5), 6, 5)


@pytest.mark.parametrize("g", GROUP_SIZES)
def test_group_inertia_tie_keeps_the_earliest_restart(monkeypatch, g):
    # the unit square's corners split left/right or top/bottom at the same
    # inertia; restart 5 is the first to find either, 8 and 9 find the other
    features = _features(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
    ref, runs = _oracle_runs(monkeypatch, features, 2, seed=3)
    best = min(inertia for _, inertia, _ in runs)
    tied = [r for r, (_, inertia, _) in enumerate(runs) if inertia == best]
    assert tied == [5, 8, 9]
    assert not np.array_equal(runs[5][2], runs[8][2])
    assert not np.array_equal(runs[5][2], 1 - runs[8][2])
    model, _ = _grouped_kmeans(monkeypatch, features, 2, 3, g)
    _assert_equal(features, model, ref, 2, 3)
    assert model.assignment.tolist() == [0, 1, 0, 1]
