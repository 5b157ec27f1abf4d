"""Serialisation round-trips, parse errors, and synthetic generation."""

import json
import math
import warnings

import numpy as np
import pytest

from tsagg.data_io import (
    ClustersFile,
    ConfigError,
    DemandModel,
    NonContiguousHoursError,
    OutOfRangeCFError,
    ParseError,
    RegimeUnreachableError,
    SeriesBundle,
    SyntheticSpec,
    default_spec,
    dispatch_summary,
    generate_synthetic,
    load_config,
    load_series,
    load_spec,
    read_clusters,
    read_report,
    regime_fractions,
    spec_from_dict,
    spec_to_dict,
    write_clusters,
    write_config,
    write_report,
    write_series,
)
from tsagg.dispatch_model import regime_counts, solve_full
from tsagg.evaluation import ClusterSummary, EvaluationReport
from tsagg.lp_core import BasisSignature
from tsagg.tsa_clustering import basis_cluster, normalize_features

from systems import random_system, thermal_wind


# --- series CSV -------------------------------------------------------------

def test_series_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    bundle = SeriesBundle(rng.uniform(0, 200, 50), {"wind": rng.uniform(0, 1, 50)})
    path = tmp_path / "series.csv"
    write_series(bundle, path)
    back = load_series(path)
    # repr-formatted floats must survive the text round trip exactly
    assert np.array_equal(back.demand, bundle.demand)
    assert np.array_equal(back.capacity_factors["wind"], bundle.capacity_factors["wind"])


def _write(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_text(text)
    return path


def test_series_header_must_lead_with_hour_demand(tmp_path):
    with pytest.raises(ParseError) as err:
        load_series(_write(tmp_path, "time,demand\n0,1.0\n"))
    assert err.value.line == 1


def test_series_cf_columns_need_prefix(tmp_path):
    with pytest.raises(ParseError):
        load_series(_write(tmp_path, "hour,demand,wind\n0,1.0,0.5\n"))


def test_series_noncontiguous_hours_reports_line(tmp_path):
    text = "hour,demand\n0,1.0\n2,1.0\n"
    with pytest.raises(NonContiguousHoursError) as err:
        load_series(_write(tmp_path, text))
    assert err.value.line == 3


def test_series_cf_out_of_range_reports_value_and_line(tmp_path):
    text = "hour,demand,cf_wind\n0,1.0,0.5\n1,1.0,1.5\n"
    with pytest.raises(OutOfRangeCFError) as err:
        load_series(_write(tmp_path, text))
    assert err.value.value == 1.5
    assert err.value.line == 3


def test_series_bad_demand_and_field_count(tmp_path):
    with pytest.raises(ParseError) as err:
        load_series(_write(tmp_path, "hour,demand\n0,abc\n"))
    assert err.value.line == 2
    with pytest.raises(ParseError):
        load_series(_write(tmp_path, "hour,demand\n0,1.0,9\n"))
    with pytest.raises(ParseError):
        load_series(_write(tmp_path, "hour,demand\n0,-3.0\n"))


def test_series_empty_and_header_only(tmp_path):
    with pytest.raises(ParseError):
        load_series(_write(tmp_path, ""))
    with pytest.raises(ParseError):
        load_series(_write(tmp_path, "hour,demand\n"))


# --- config JSON ------------------------------------------------------------

def _write_config(tmp_path, doc, series_text="hour,demand,cf_wind\n0,50.0,0.8\n1,120.0,0.5\n"):
    (tmp_path / "series.csv").write_text(series_text)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


BASE_DOC = {
    "generators": [
        {"name": "wind", "cost": 0.0, "capacity": 50.0, "is_variable": True, "cf_series": "wind"},
        {"name": "thermal", "cost": 10.0, "capacity": 100.0},
    ],
    "series": "series.csv",
    "nse": {"enabled": True, "cost": 1000.0, "capacity_multiplier": 10.0},
}


def test_load_config_builds_system_with_nse(tmp_path):
    system = load_config(_write_config(tmp_path, BASE_DOC))
    assert [g.name for g in system.generators] == ["wind", "thermal", "NSE"]
    nse = system.nse_generator()
    assert nse.variable_cost == 1000.0
    assert nse.capacity == 1200.0  # 10 x peak demand of 120
    assert system.horizon == 2


def test_load_config_nse_disabled(tmp_path):
    doc = dict(BASE_DOC, nse={"enabled": False})
    system = load_config(_write_config(tmp_path, doc))
    assert system.nse_generator() is None


def test_load_config_horizon_mismatch(tmp_path):
    doc = dict(BASE_DOC, horizon=99)
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, doc))


def test_load_config_unknown_key_strict_vs_warn(tmp_path):
    doc = dict(BASE_DOC, extra=1)
    path = _write_config(tmp_path, doc)
    with pytest.raises(ConfigError):
        load_config(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        system = load_config(path, strict=False)
    assert any("extra" in str(w.message) for w in caught)
    assert system.horizon == 2


def test_load_config_missing_key(tmp_path):
    doc = {"generators": BASE_DOC["generators"]}
    with pytest.raises(ConfigError) as err:
        load_config(_write_config(tmp_path, doc))
    assert "series" in str(err.value)


def test_config_round_trip(tmp_path):
    system = thermal_wind([50.0, 120.0, 60.0], [0.8, 0.5, 0.2])
    write_series(system, tmp_path / "series.csv")
    write_config(system, tmp_path / "config.json", "series.csv")
    back = load_config(tmp_path / "config.json")
    assert [g.name for g in back.generators] == [g.name for g in system.generators]
    assert np.array_equal(back.demand, system.demand)
    assert back.nse_generator().capacity == system.nse_generator().capacity


# --- synthetic generation ---------------------------------------------------

def test_generate_is_deterministic_per_seed():
    a = generate_synthetic(default_spec(hours=200))
    b = generate_synthetic(default_spec(hours=200))
    assert np.array_equal(a.demand, b.demand)
    assert np.array_equal(a.capacity_factors["wind"], b.capacity_factors["wind"])
    c = generate_synthetic(default_spec(seed=2, hours=200))
    assert not np.array_equal(a.demand, c.demand)


def test_generate_demand_nonnegative_and_fleet_shape():
    system = generate_synthetic(default_spec(hours=500))
    assert system.demand.min() >= 0.0
    assert [g.name for g in system.generators] == ["wind", "thermal", "NSE"]
    assert system.nse_generator().capacity >= 10.0 * system.demand.max() - 1e-9


def test_generate_unreachable_regime_raises():
    # 1 MW of wind can never cover demand alone, so the wind-marginal
    # minimum in the default targets is unattainable
    spec = SyntheticSpec(hours=300, wind_capacity=1.0)
    with pytest.raises(RegimeUnreachableError):
        generate_synthetic(spec)


def test_default_instance_hits_all_three_regimes():
    fractions = regime_fractions(generate_synthetic(default_spec()))
    assert set(fractions) == {"wind marginal", "thermal marginal", "NSE"}
    assert fractions["thermal marginal"] > 0.5


def test_closed_form_fractions_match_lp_labels():
    rng = np.random.default_rng(11)
    for _ in range(4):
        system = random_system(rng, hours=48)
        full = solve_full(system)
        lp_counts = regime_counts(system, full)
        fractions = regime_fractions(system)
        arithmetic = {lab: round(f * 48) for lab, f in fractions.items()}
        assert arithmetic == lp_counts


# --- spec JSON --------------------------------------------------------------

def test_spec_dict_round_trip(tmp_path):
    spec = SyntheticSpec(hours=100, seed=7, demand=DemandModel(base=70.0))
    doc = spec_to_dict(spec)
    assert spec_from_dict(doc) == spec
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert load_spec(path) == spec


def test_spec_unknown_key_rejected():
    with pytest.raises(ConfigError):
        spec_from_dict({"hours": 10, "bogus": 1})
    with pytest.raises(ConfigError):
        spec_from_dict({"demand": {"base": 1.0, "wat": 2}})


# --- reports ----------------------------------------------------------------

def _sample_report():
    return EvaluationReport(
        method="basis",
        k=2,
        input_mse=0.0123456789012345,
        full_cost=7589427.74281234,
        aggregated_cost=7589427.74281239,
        output_error_pct=1.23e-13,
        per_cluster=[
            ClusterSummary(10.0, 55.5, {"wind": 0.25}, "thermal marginal",
                           BasisSignature((0, 1, 2, 5))),
            ClusterSummary(14.0, 80.0, {"wind": 0.75}, "wind marginal", None),
        ],
    )


def _assert_close(a, b, rel=1e-10):
    assert math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def test_report_json_round_trip(tmp_path):
    report = _sample_report()
    path = tmp_path / "report.json"
    write_report(report, path)
    back = read_report(path)
    assert back.method == report.method and back.k == report.k
    _assert_close(back.input_mse, report.input_mse)
    _assert_close(back.full_cost, report.full_cost)
    _assert_close(back.aggregated_cost, report.aggregated_cost)
    _assert_close(back.output_error_pct, report.output_error_pct)
    assert [c.label for c in back.per_cluster] == [c.label for c in report.per_cluster]
    assert back.per_cluster[0].basis == BasisSignature((0, 1, 2, 5))
    assert back.per_cluster[1].basis is None


def test_report_writes_are_byte_identical(tmp_path):
    report = _sample_report()
    write_report(report, tmp_path / "a.json")
    write_report(report, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_report_json_has_no_timings(tmp_path):
    report = _sample_report()
    write_report(report, tmp_path / "report.json")
    doc = json.loads((tmp_path / "report.json").read_text())
    assert "timings" not in json.dumps(doc)


def test_report_csv_summary(tmp_path):
    report = _sample_report()
    path = tmp_path / "report.csv"
    write_report(report, path, fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "method"
    row = lines[1].split(",")
    assert row[0] == "basis" and int(row[1]) == 2
    _assert_close(float(row[3]), report.full_cost, rel=1e-11)
    with pytest.raises(ValueError):
        write_report(report, path, fmt="yaml")


def test_rounding_is_twelve_significant_digits(tmp_path):
    report = _sample_report()
    write_report(report, tmp_path / "r.json")
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["input_mse"] == float("0.0123456789012")
    assert doc["full_cost"] == float("7589427.74281")


# --- clusters ---------------------------------------------------------------

def test_clusters_round_trip(tmp_path):
    system = thermal_wind(
        [30.0, 120.0, 200.0, 35.0, 110.0, 190.0],
        [0.9, 0.4, 0.1, 0.8, 0.5, 0.05],
    )
    features = normalize_features(system)
    model = basis_cluster(system, features)
    path = tmp_path / "clusters.json"
    write_clusters(model, features, path)
    back = read_clusters(path)
    assert isinstance(back, ClustersFile)
    assert back.method == "basis" and back.k == model.k
    assert back.columns == ("demand", "wind")
    assert np.array_equal(back.assignment, model.assignment)
    assert np.array_equal(back.weights, model.weights)
    assert back.labels == model.labels
    assert all(b is not None for b in back.bases)
    # denormalised centroid = mean of member hours in physical units
    members = system.demand[model.assignment == 0]
    _assert_close(back.centroids[0]["demand"], members.mean(), rel=1e-9)


def test_dispatch_summary_fields():
    system = thermal_wind([50.0, 120.0], [0.8, 0.5])
    full = solve_full(system)
    doc = dispatch_summary(system, full)
    assert doc["hours"] == 2
    assert doc["status"] == "optimal"
    _assert_close(doc["total_cost"], full.total_cost, rel=1e-12)
    assert sum(doc["regime_hours"].values()) == 2
