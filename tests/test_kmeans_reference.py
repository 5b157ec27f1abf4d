"""k-means must equal the earlier (H, k) / ``np.add.at`` implementation bitwise.

``oracles.kmeans_reference`` keeps that implementation verbatim.  The
assignment, the centroids and ``input_mse`` are compared as raw bytes, so
values and signs of zero must agree.
"""

import numpy as np
import pytest

from oracles import input_mse_reference, kmeans_reference
from systems import fleet_system
from tsagg import tsa_clustering
from tsagg.data_io import default_spec, generate_synthetic
from tsagg.tsa_clustering import FeatureMatrix, input_mse, kmeans, normalize_features


def _bits(v):
    return np.asarray(v).tobytes()


def _assert_same(features, k, seed):
    model = kmeans(features, k, seed=seed)
    ref = kmeans_reference(features, k, seed=seed)
    assert _bits(model.assignment) == _bits(ref.assignment), (k, seed)
    assert _bits(model.centroids) == _bits(ref.centroids), (k, seed)
    assert _bits(model.weights) == _bits(ref.weights), (k, seed)
    mse = input_mse(features, model)
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
