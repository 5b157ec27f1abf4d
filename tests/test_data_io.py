"""Serialisation round-trips, parse errors, and synthetic generation."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from tsagg.cli import main
from tsagg.data_io import (
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
    write_clusters,
    write_config,
    write_report,
    write_series,
)
from tsagg.dispatch_model import (
    Generator,
    SystemData,
    add_nse_generator,
    regime_counts,
    solve_full,
)
from tsagg.evaluation import EvaluationReport, compare_methods_detailed
from tsagg.lp_core import BasisSignature
from tsagg.tsa_clustering import ClusterMethod, ClusterSummary, basis_cluster, normalize_features

from oracles import load_series_reference, regime_fractions_reference, write_series_reference
from systems import degenerate_system, fleet_system, random_system, thermal_wind
from tsbench.instances import build_fleet


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


@pytest.mark.parametrize("make", [
    lambda: generate_synthetic(default_spec()),
    lambda: fleet_system(np.random.default_rng(0)),
    # a cf id that needs CSV quoting; signed zero, the smallest subnormal, 1.0
    lambda: SeriesBundle(
        np.array([-0.0, 5e-324, 1.0]),
        {"a,b": np.array([1.0, -0.0, 5e-324]), "wind": np.array([5e-324, 1.0, -0.0])},
    ),
], ids=["default_year", "fleet", "quoting_and_edge_values"])
def test_write_series_matches_the_per_row_writer(tmp_path, make):
    bundle = make()
    write_series(bundle, tmp_path / "columns.csv")
    write_series_reference(bundle, tmp_path / "rows.csv")
    written = (tmp_path / "columns.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written.endswith(b"\r\n")


def test_series_bundles_compare_by_identity(tmp_path):
    path = tmp_path / "series.csv"
    write_series(SeriesBundle(np.array([1.0, 2.0]), {"wind": np.array([0.1, 0.2])}), path)
    first, second = load_series(path), load_series(path)
    assert first == first
    assert (first == second) is False
    assert len({first, second}) == 2


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


@pytest.mark.parametrize("make", [
    lambda: generate_synthetic(default_spec()),
    lambda: build_fleet(0),
    lambda: SeriesBundle(
        np.array([-0.0, 5e-324, 1.0, 1e300]),
        {"a,b": np.array([1.0, -0.0, 5e-324, 0.5]), "wind": np.array([5e-324, 1.0, -0.0, 0.0])},
    ),
], ids=["default_year", "build_fleet", "edge_values"])
def test_column_parse_gives_the_row_loop_s_arrays_bitwise(tmp_path, make):
    path = tmp_path / "series.csv"
    write_series(make(), path)
    got = load_series(path)
    demand, cfs = load_series_reference(path)
    assert got.demand.dtype == demand.dtype and got.demand.tobytes() == demand.tobytes()
    assert list(got.capacity_factors) == list(cfs)
    for key, series in cfs.items():
        assert got.capacity_factors[key].tobytes() == series.tobytes()


# Cells that the column parse takes as the row loop does: quoted, padded
# with spaces, signed or with digit separators.
@pytest.mark.parametrize("text", [
    'hour,demand,cf_wind\n"0","1.5",0.5\n1,2.0," 0.25 "\n',
    "hour,demand,cf_wind\n 0 ,+1.5 ,0.5\n1, 2.0\t,1e-1\n",
    "hour,demand,cf_wind\n0,1_000.5,0.5\n0_1,2.0,0.5\n",
    "hour , demand\n0,-0.0\n",
], ids=["quoted", "spaces", "separators", "padded_header"])
def test_odd_but_valid_cells_parse_as_in_the_row_loop(tmp_path, text):
    path = _write(tmp_path, text)
    demand, cfs = load_series_reference(path)
    got = load_series(path)
    assert got.demand.tobytes() == demand.tobytes()
    assert {k: v.tobytes() for k, v in got.capacity_factors.items()} == {
        k: v.tobytes() for k, v in cfs.items()
    }


GOOD = "hour,demand,cf_wind\n0,1.0,0.5\n1,2.0,0.25\n"

# (text, error type, message, line): the earlier errors, then bad last rows
# and bad quoted or spaced cells, which only the row loop can place.
SERIES_ERRORS = [
    ("", ParseError, "empty series file", 1),
    ("time,demand\n0,1.0\n", ParseError,
     "header must start with hour,demand; got ['time', 'demand']", 1),
    ("hour,demand,wind\n0,1.0,0.5\n", ParseError,
     "capacity factor column 'wind' must be cf_<id>", 1),
    ("hour,demand,cf_a,cf_a\n0,1.0,0.5,0.5\n", ParseError,
     "duplicate capacity factor columns in ['hour', 'demand', 'cf_a', 'cf_a']", 1),
    ("hour,demand\n", ParseError, "series file has a header but no rows", 2),
    ("hour,demand\n0,1.0\n2,1.0\n", NonContiguousHoursError,
     "hour 2 out of order (expected 1)", 3),
    ("hour,demand,cf_wind\n0,1.0,0.5\n1,1.0,1.5\n", OutOfRangeCFError,
     "capacity factor 1.5 outside [0, 1]", 3),
    ("hour,demand\n0,abc\n", ParseError, "bad demand 'abc'", 2),
    ("hour,demand\n0,1.0,9\n", ParseError, "expected 2 fields, got 3", 2),
    ("hour,demand\n0,-3.0\n", ParseError, "demand -3.0 must be finite and >= 0", 2),
    ("hour,demand\nx,1.0\n", ParseError, "bad hour 'x'", 2),
    ("hour,demand,cf_wind\n0,1.0,y\n", ParseError, "bad capacity factor 'y'", 2),
    (GOOD + "2,1.0,nan\n", OutOfRangeCFError, "capacity factor nan outside [0, 1]", 4),
    (GOOD + "2,inf,0.5\n", ParseError, "demand inf must be finite and >= 0", 4),
    (GOOD + "2,1.0\n", ParseError, "expected 3 fields, got 2", 4),
    (GOOD + "3,1.0,0.5\n", NonContiguousHoursError, "hour 3 out of order (expected 2)", 4),
    (GOOD + "2,1.0,-1e-300\n", OutOfRangeCFError, "capacity factor -1e-300 outside [0, 1]", 4),
    (GOOD + "2,nan,0.5\n", ParseError, "demand nan must be finite and >= 0", 4),
    (GOOD + '2,"1,5",0.5\n', ParseError, "bad demand '1,5'", 4),
    (GOOD + '"2 ",1.0,"0. 5"\n', ParseError, "bad capacity factor '0. 5'", 4),
    (GOOD + "2,1 0,0.5\n", ParseError, "bad demand '1 0'", 4),
    (GOOD + "\n2,1.0,0.5\n", ParseError, "expected 3 fields, got 0", 4),
]


@pytest.mark.parametrize("text,kind,message,line", SERIES_ERRORS)
def test_series_errors_keep_their_message_and_line(tmp_path, text, kind, message, line):
    path = _write(tmp_path, text)
    with pytest.raises(ParseError) as err:
        load_series(path)
    assert (type(err.value), str(err.value)) == (kind, f"{message} (line {line})")
    assert err.value.line == line
    with pytest.raises(ParseError) as ref:
        load_series_reference(path)
    assert (type(ref.value), str(ref.value), ref.value.line) == (kind, str(err.value), line)


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


def test_load_config_empty_nse_block_adds_the_default_unit(tmp_path):
    system = load_config(_write_config(tmp_path, dict(BASE_DOC, nse={})))
    assert [g.name for g in system.generators] == ["wind", "thermal", "NSE"]
    assert system.nse_generator().variable_cost == 1000.0
    assert system.nse_generator().capacity == 1200.0  # 10 x peak demand of 120


def test_all_zero_demand_config_round_trips_and_solves(tmp_path):
    # write_config records a multiplier of 10 for a zero peak; reading it
    # back used to give NSE capacity 10 * 0 and refuse the config
    system = thermal_wind([0.0] * 4, [0.0, 0.5, 1.0, 0.2])
    write_series(system, tmp_path / "series.csv")
    write_config(system, tmp_path / "config.json", "series.csv")
    back = load_config(tmp_path / "config.json")
    assert back.nse_generator().capacity == system.nse_generator().capacity == 10.0
    assert solve_full(back).total_cost == 0.0


def test_load_config_horizon_mismatch(tmp_path):
    doc = dict(BASE_DOC, horizon=99)
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, doc))


def test_load_config_unknown_key_rejected(tmp_path):
    doc = dict(BASE_DOC, extra=1)
    with pytest.raises(ConfigError, match="extra"):
        load_config(_write_config(tmp_path, doc))


def test_load_config_missing_key(tmp_path):
    doc = {"generators": BASE_DOC["generators"]}
    with pytest.raises(ConfigError) as err:
        load_config(_write_config(tmp_path, doc))
    assert "series" in str(err.value)


@pytest.mark.parametrize("horizon", [2.7, 2.0, True, "2", None])
def test_load_config_refuses_non_integer_horizon(tmp_path, horizon):
    # int() used to truncate 2.7 to 2 and read true as 1
    with pytest.raises(ConfigError, match="horizon must be an integer"):
        load_config(_write_config(tmp_path, dict(BASE_DOC, horizon=horizon)))
    assert load_config(_write_config(tmp_path, dict(BASE_DOC, horizon=2))).horizon == 2


@pytest.mark.parametrize("flag", ["no", "false", 1, 0, None])
def test_load_config_refuses_non_boolean_is_variable(tmp_path, flag):
    # bool("no") is True
    gens = [dict(BASE_DOC["generators"][0], is_variable=flag), BASE_DOC["generators"][1]]
    with pytest.raises(ConfigError, match=r"generators\[0\]\.is_variable"):
        load_config(_write_config(tmp_path, dict(BASE_DOC, generators=gens)))


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


def test_closed_form_fractions_run_above_must_run_floors():
    # The LP runs wind 30 and t0 at its floor of 30: wind is marginal.
    # Counting t0's whole 40 MW from zero used to label the hour t0 marginal.
    system = add_nse_generator(SystemData(
        (Generator("wind", 0.0, 50.0, is_variable=True, cf_series_id="wind"),
         Generator("t0", 10.0, 40.0, p_min=30.0)),
        [60.0], {"wind": [1.0]},
    ))
    full = solve_full(system)
    assert full.production[0].tolist() == [30.0, 30.0, 0.0]
    assert regime_counts(system, full) == {"wind marginal": 1}
    assert regime_fractions(system) == {"wind marginal": 1.0}
    # floors above demand cannot be met at all
    low = SystemData(system.generators, [20.0], {"wind": [1.0]})
    assert regime_fractions(low) == {"infeasible": 1.0}


def _floors_above_demand():
    # the floors (30 + 5) exceed the demand of hours 0 and 1
    return add_nse_generator(SystemData(
        (Generator("wind", 0.0, 50.0, is_variable=True, cf_series_id="wind"),
         Generator("t0", 10.0, 40.0, p_min=30.0),
         Generator("t1", 20.0, 60.0, p_min=5.0)),
        [10.0, 34.0, 35.0, 60.0, 120.0, 400.0], {"wind": [0.5, 1.0, 0.0, 0.2, 1.0, 0.3]},
    ))


REGIME_SYSTEMS = {
    "default_year": lambda: generate_synthetic(default_spec()),
    **{f"fleet_{i}": lambda i=i: fleet_system(np.random.default_rng(i)) for i in range(5)},
    "degenerate": degenerate_system,
    **{f"random_{seed}": lambda seed=seed: random_system(np.random.default_rng(seed))
       for seed in range(5)},
    **{f"random_{seed}_no_nse": lambda seed=seed: random_system(np.random.default_rng(seed), nse=False)
       for seed in range(5)},
    "floors_above_demand": _floors_above_demand,
    # without NSE, hours 2 and 3 ask for more than the 100 MW + wind there is
    "short_of_capacity": lambda: thermal_wind(
        [50.0, 120.0, 160.0, 300.0], [0.0, 0.4, 1.0, 1.0], nse=False
    ),
}


@pytest.mark.parametrize("name", REGIME_SYSTEMS)
def test_regime_fractions_match_the_per_hour_loop(name):
    system = REGIME_SYSTEMS[name]()
    expected = list(regime_fractions_reference(system).items())
    assert list(regime_fractions(system).items()) == expected


def test_the_regime_fixtures_reach_infeasible_hours():
    for name, share in (("floors_above_demand", 2 / 6), ("short_of_capacity", 2 / 4)):
        assert regime_fractions(REGIME_SYSTEMS[name]())["infeasible"] == share


# --- spec JSON --------------------------------------------------------------

def test_spec_dict_round_trip(tmp_path):
    spec = SyntheticSpec(hours=100, seed=7, demand=DemandModel(base=70.0))
    doc = dataclasses.asdict(spec)
    assert spec_from_dict(doc) == spec
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert load_spec(path) == spec


def test_a_spec_keeps_a_read_only_copy_of_its_regime_targets():
    """D27: the spec kept the caller's dict, so a later write skipped the
    constructor's number check and generation failed with a bare
    TypeError from a comparison; ``hash(spec)`` raised too."""
    targets = {"thermal marginal": 0.1}
    spec = SyntheticSpec(hours=240, regime_targets=targets)
    targets["NSE"] = "x"
    with pytest.raises(TypeError):
        spec.regime_targets["NSE"] = "x"
    assert spec.regime_targets == {"thermal marginal": 0.1}
    assert hash(spec) == hash(SyntheticSpec(hours=240, regime_targets={"thermal marginal": 0.1}))
    assert generate_synthetic(spec).horizon == 240
    assert hash(default_spec()) == hash(dataclasses.replace(default_spec(), seed=1))


def test_spec_unknown_key_rejected():
    with pytest.raises(ConfigError):
        spec_from_dict({"hours": 10, "bogus": 1})
    with pytest.raises(ConfigError):
        spec_from_dict({"demand": {"base": 1.0, "wat": 2}})


@pytest.mark.parametrize("key,value", [
    ("hours", 48.5), ("hours", 48.0), ("hours", True), ("hours", "48"),
    ("seed", 1.5), ("seed", False), ("seed", None),
    # each used to crash generation with a TypeError or AttributeError
    ("demand", {"base": "90"}), ("wind_capacity", "120"), ("regime_targets", [1]),
])
def test_spec_refuses_non_integer_hours_and_seed(key, value):
    with pytest.raises(ConfigError, match=rf"{key}\S* must be "):
        spec_from_dict({"hours": 48, key: value})
    with pytest.raises(ConfigError):
        SyntheticSpec(**{key: DemandModel(**value) if key == "demand" else value})
    assert SyntheticSpec(hours=np.int64(48), seed=np.int64(3)).hours == 48


def test_spec_refuses_negative_seed():
    # numpy's bare "expected non-negative integer" named nothing
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SyntheticSpec(hours=48, seed=-1)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        spec_from_dict({"hours": 48, "seed": -3})
    assert SyntheticSpec(hours=48, seed=0).seed == 0


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
            ClusterSummary(weight=10.0, demand=55.5, cf={"wind": 0.25}, label="thermal marginal",
                           basis=BasisSignature((0, 1, 2, 5))),
            ClusterSummary(weight=14.0, demand=80.0, cf={"wind": 0.75}, label="wind marginal",
                           basis=None),
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


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc.update(k=2.5), "k in report .* must be an integer"),
    (lambda doc: doc.update(k="2"), "k in report .* must be an integer"),
    (lambda doc: doc.update(k=True), "k in report .* must be an integer"),
    (lambda doc: doc["per_cluster"][0].update(demand="abc"), "malformed report"),
    (lambda doc: doc.update(full_cost=True), "malformed report .* full_cost must be a number"),
    (lambda doc: doc.update(input_mse="0.5"), "malformed report .* input_mse must be a number"),
    (lambda doc: doc["per_cluster"][0].update(label=7), "malformed report .* label must be a string"),
    (lambda doc: doc["per_cluster"][0].update(cf=[0.5]), "malformed report"),
    (lambda doc: doc.update(k=7), "malformed report .* k = 7 for 2 clusters"),
    (lambda doc: doc.update(k=0), "malformed report .* k = 0 for 2 clusters"),
    (lambda doc: doc.update(k=0, per_cluster=[]), "malformed report .* k = 0 for 0 clusters"),
    (lambda doc: doc.update(method="banana"), "malformed report .* 'banana' is not a valid"),
    (lambda doc: doc["per_cluster"][0].update(weight=0.0), "malformed report .* weight must be"),
    (lambda doc: doc["per_cluster"][1].update(weight=math.nan), "malformed report .* weight must"),
    (lambda doc: doc["per_cluster"][0].update(demand=-1.0), "malformed report .* demand must be"),
    (lambda doc: doc["per_cluster"][1].update(cf={"wind": 1.5}), "malformed report .* outside"),
    (lambda doc: doc.update(timings={}), "malformed report .* 'timings' is not what write_report"),
    (lambda doc: doc["per_cluster"][0].update(id=0),
     "malformed report .* 'per_cluster' is not what write_report"),
    (lambda doc: doc["per_cluster"][0].update(basis=[5, 0, 1, 2]),
     "malformed report .* 'per_cluster' is not what write_report"),
], ids=["fractional_k", "string_k", "boolean_k", "string_demand", "boolean_cost",
        "string_number", "numeric_label", "list_cf", "k_above_entries", "k_zero",
        "k_zero_no_entries", "unknown_method", "zero_weight", "nan_weight", "negative_demand",
        "cf_above_one", "unknown_key", "unknown_entry_key", "unsorted_basis"])
def test_read_report_refuses_malformed_values(tmp_path, edit, message):
    # int() truncated k, float("abc") escaped as a bare ValueError, the
    # casts read true as 1.0, "0.5" as 0.5 and a label 7 as "7", and a list
    # of cf values escaped as a bare AttributeError; a k that is not the
    # entry count, an unknown method, an entry no Representative would
    # take, an unknown key and an unsorted basis were read back as given
    path = tmp_path / "report.json"
    write_report(_sample_report(), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=message):
        read_report(path)


REPORT_SYSTEMS = {
    "default_year": lambda: generate_synthetic(default_spec()),
    "fleet_0": lambda: fleet_system(np.random.default_rng(0)),
    **{f"random_{seed}": lambda seed=seed: random_system(np.random.default_rng(seed))
       for seed in range(3)},
}


@functools.lru_cache(maxsize=None)
def _compared(name):
    return compare_methods_detailed(REPORT_SYSTEMS[name]())


@pytest.mark.parametrize("name", REPORT_SYSTEMS)
def test_every_compared_report_reads_back(tmp_path, name):
    """Both reports ``compare_methods_detailed`` writes read back with the
    same labels and bases and values within 1e-10: ``read_report``'s checks
    refuse nothing that ``write_report`` writes."""
    for report in _compared(name).reports:
        write_report(report, tmp_path / "report.json")
        back = read_report(tmp_path / "report.json")
        assert (back.method, back.k) == (report.method, report.k)
        for field in ("input_mse", "full_cost", "aggregated_cost", "output_error_pct"):
            _assert_close(getattr(back, field), getattr(report, field))
        assert len(back.per_cluster) == len(report.per_cluster) == report.k
        for c, original in zip(back.per_cluster, report.per_cluster):
            assert (c.label, c.basis) == (original.label, original.basis)
            _assert_close(c.weight, original.weight)
            _assert_close(c.demand, original.demand)
            assert c.cf.keys() == original.cf.keys()
            for key, value in c.cf.items():
                _assert_close(value, original.cf[key])


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
    write_clusters(model, path)
    doc = json.loads(path.read_text())
    back = read_clusters(path, features)
    assert back.method is ClusterMethod.BASIS and back.k == model.k
    assert doc["columns"] == ["demand", "wind"]
    assert np.array_equal(back.assignment, model.assignment)
    assert np.array_equal(back.weights, model.weights)
    assert back.labels == model.labels
    assert back.bases == model.bases
    assert np.array_equal(back.centroids, model.centroids)
    # denormalised centroid = mean of member hours in physical units
    members = system.demand[model.assignment == 0]
    _assert_close(doc["clusters"][0]["demand"], members.mean(), rel=1e-9)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(weights=doc["weights"][::-1]), "cardinalities"),
    # A file that both empties a cluster and lists other weights is refused
    # for its weights.
    (lambda doc: doc.update(assignment=[0] * 4), "cardinalities"),
    (lambda doc: doc.update(assignment=[0] * 4, weights=[4] + [0] * (doc["k"] - 1)),
     "empty cluster"),
], ids=["reversed", "emptied_cluster_and_weights", "emptied_cluster"])
def test_read_clusters_refuses_weights_that_disagree_with_the_assignment(tmp_path, edit, message):
    """A model derives its weights, so the file's own list is checked
    against them: it is outside input."""
    system = thermal_wind([30.0, 120.0, 200.0, 35.0], [0.9, 0.4, 0.1, 0.8])
    features = normalize_features(system)
    path = tmp_path / "clusters.json"
    write_clusters(basis_cluster(system, features), path)
    doc = json.loads(path.read_text())
    edit(doc)
    assert doc != json.loads(path.read_text())
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=message):
        read_clusters(path, features)


@pytest.mark.parametrize("name", REPORT_SYSTEMS)
def test_every_compared_clusters_file_reads_back(tmp_path, name):
    """Both clusters files ``compare`` writes read back into their models,
    bit for bit: ``read_clusters`` refuses nothing that ``write_clusters``
    writes."""
    path = tmp_path / "clusters.json"
    result = _compared(name)
    for model in (result.kmeans_model, result.basis_model):
        write_clusters(model, path)
        back = read_clusters(path, model.features)
        for field in ("assignment", "centroids", "weights"):
            a, b = getattr(back, field), getattr(model, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
        assert (back.labels, back.bases) == (model.labels, model.bases)
        assert (back.method, back.k) == (model.method, model.k)
    # A label is the file's to name: one edited by hand reads back as given.
    doc = json.loads(path.read_text())
    doc["clusters"][-1]["label"] = "edited by hand"
    path.write_text(json.dumps(doc))
    assert read_clusters(path, model.features).labels[-1] == "edited by hand"


@pytest.fixture(scope="module")
def compared_instance(tmp_path_factory):
    """A 240-hour generated instance and its ``compare`` output."""
    root = tmp_path_factory.mktemp("compared")
    assert main(["generate", "--out", str(root), "--hours", "240"]) == 0
    assert main(["compare", "--config", str(root / "config.json"), "--out", str(root)]) == 0
    return root


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["clusters"].reverse(), "'clusters' is not what write_clusters"),
    (lambda doc: [c.update(id=99) for c in doc["clusters"]],
     "'clusters' is not what write_clusters"),
    (lambda doc: doc["clusters"][0].update(weight=1e9), "'clusters' is not what write_clusters"),
    (lambda doc: doc["clusters"][0].update(weight=-5.0), "weight must be positive"),
    (lambda doc: doc["clusters"][0].update(demand=-1.0), "demand must be finite and >= 0"),
    (lambda doc: doc["clusters"][0]["cf"].update(wind=1.5), "cf 'wind'=1.5 outside"),
    (lambda doc: doc["clusters"][1].update(basis=None), "'clusters' is not what write_clusters"),
    (lambda doc: doc.update(note="by hand"), "'note' is not what write_clusters"),
    (lambda doc: doc["clusters"][0]["cf"].clear(), "'clusters' is not what write_clusters"),
    (lambda doc: doc["clusters"][0]["cf"].update(solar=0.5),
     "'clusters' is not what write_clusters"),
    (lambda doc: doc["clusters"][0].pop("weight"), "'weight'"),
    (lambda doc: doc.update(method="kmeans"), "a k-means model has no cluster bases"),
], ids=["reversed_entries", "every_id_99", "huge_weight", "negative_weight",
        "negative_demand", "cf_above_one", "one_null_basis", "unknown_key", "cf_missing_key",
        "cf_extra_key", "entry_without_weight", "basis_file_as_kmeans"])
def test_read_clusters_refuses_what_write_clusters_cannot_write(
        compared_instance, tmp_path, edit, message):
    """Each of these edits was read back, some of them into a legend that
    named the 224-hour thermal cluster "NSE"; each is refused, and so
    ``plot`` exits 2."""
    config = compared_instance / "config.json"
    doc = json.loads((compared_instance / "clusters_basis.json").read_text())
    assert [c["label"] for c in doc["clusters"]] == ["thermal marginal", "wind marginal", "NSE"]
    edit(doc)
    path = tmp_path / "clusters.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"malformed clusters file .*{message}"):
        read_clusters(path, normalize_features(load_config(config)))
    out = tmp_path / "plot.svg"
    assert main(["plot", "--config", str(config), "--clusters", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_dispatch_summary_fields():
    system = thermal_wind([50.0, 120.0], [0.8, 0.5])
    full = solve_full(system)
    doc = dispatch_summary(system, full)
    assert doc["hours"] == 2
    assert doc["status"] == "optimal"
    _assert_close(doc["total_cost"], full.total_cost, rel=1e-12)
    assert sum(doc["regime_hours"].values()) == 2
