"""End-to-end CLI behaviour: files written, exit codes, determinism."""

import json
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest

from tsagg import cli, evaluation
from tsagg.cli import main
from tsagg.data_io import (
    IoError,
    OutOfRangeCFError,
    ParseError,
    dump_json,
    load_config,
    read_clusters,
    write_config,
    write_series,
)
from tsagg.plotting import _escape
from tsagg.tsa_clustering import normalize_features

from systems import thermal_wind


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """A small generated instance shared by the read-only tests."""
    root = tmp_path_factory.mktemp("instance")
    assert main(["generate", "--out", str(root), "--hours", "200", "--seed", "1"]) == 0
    return root


def _read_model(instance, path):
    """The clustering saved at ``path`` for the shared instance."""
    return read_clusters(path, normalize_features(load_config(instance / "config.json")))


# --- generate ---------------------------------------------------------------

def test_generate_writes_instance_files(instance):
    assert (instance / "series.csv").exists()
    assert (instance / "config.json").exists()
    regimes = json.loads((instance / "regimes.json").read_text())
    assert regimes["hours"] == 200 and regimes["seed"] == 1
    assert abs(sum(regimes["fractions"].values()) - 1.0) < 1e-9


def test_generate_seed_changes_series(tmp_path, instance):
    assert main(["generate", "--out", str(tmp_path), "--hours", "200", "--seed", "9"]) == 0
    assert (tmp_path / "series.csv").read_bytes() != (instance / "series.csv").read_bytes()


def test_generate_accepts_spec_file(tmp_path):
    spec = {"hours": 150, "seed": 3, "demand": {"base": 95.0}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "inst"
    assert main(["generate", "--out", str(out), "--spec", str(tmp_path / "spec.json")]) == 0
    assert json.loads((out / "regimes.json").read_text())["hours"] == 150


def test_generate_bad_spec_exits_2(tmp_path, capsys):
    (tmp_path / "spec.json").write_text('{"bogus": 1}')
    code = main(["generate", "--out", str(tmp_path / "x"), "--spec", str(tmp_path / "spec.json")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_generate_fractional_hours_exits_2(tmp_path, capsys):
    # used to crash inside numpy with a TypeError traceback, exit 1
    (tmp_path / "spec.json").write_text('{"hours": 48.5}')
    code = main(["generate", "--out", str(tmp_path / "x"), "--spec", str(tmp_path / "spec.json")])
    assert code == 2
    assert "hours must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv,spec", [
    (["--seed", "-1"], None),
    ([], {"seed": -3}),
], ids=["flag", "spec_file"])
def test_generate_negative_seed_exits_2(tmp_path, capsys, argv, spec):
    # numpy's bare "expected non-negative integer" named nothing
    if spec is not None:
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = argv + ["--spec", str(tmp_path / "spec.json")]
    assert main(["generate", "--out", str(tmp_path / "x"), "--hours", "24"] + argv) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("spec,message", [
    ({"demand": {"base": "90"}}, "demand.base must be a number"),
    ({"wind_capacity": "120"}, "wind_capacity must be a number"),
    ({"regime_targets": [1]}, "regime_targets must be an object"),
], ids=["string_demand_base", "string_wind_capacity", "list_regime_targets"])
def test_generate_wrong_type_spec_exits_2(tmp_path, capsys, spec, message):
    # each used to crash with a TypeError or AttributeError traceback, exit 1
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code = main(["generate", "--out", str(tmp_path / "x"), "--spec", str(tmp_path / "spec.json")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# --- solve-full -------------------------------------------------------------

def test_solve_full_prints_cost_and_writes_summary(instance, tmp_path, capsys):
    out = tmp_path / "solution.json"
    code = main(["solve-full", "--config", str(instance / "config.json"), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "total cost" in stdout
    doc = json.loads(out.read_text())
    assert doc["hours"] == 200
    assert sum(doc["regime_hours"].values()) == 200


@pytest.mark.parametrize("out", ["nodir/x.json", "file/x.json", "dir"],
                         ids=["missing_parent", "parent_is_a_file", "out_is_a_directory"])
def test_solve_full_checks_out_before_the_full_solve(instance, tmp_path, capsys, monkeypatch, out):
    def no_solve(system):
        raise AssertionError("solve_full ran before --out was checked")

    monkeypatch.setattr(cli, "solve_by_cones", no_solve)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / out)
    with pytest.raises(IoError) as failed_write:
        dump_json({}, out)
    code = main(["solve-full", "--config", str(instance / "config.json"), "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {failed_write.value}\n"
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("out", ["file", "file/sub", "file/a/b"],
                         ids=["out_is_a_file", "parent_is_a_file", "ancestor_is_a_file"])
@pytest.mark.parametrize("command", [
    ["generate"],
    ["aggregate", "--method", "kmeans", "--k", "3"],
    ["aggregate", "--method", "basis"],
    ["compare"],
], ids=["generate", "aggregate_kmeans", "aggregate_basis", "compare"])
def test_output_directory_is_checked_before_any_work(
    instance, tmp_path, capsys, monkeypatch, command, out
):
    """The message and exit code that creating the directory after all
    the work would give, with nothing loaded, generated or solved."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")

    for module, name in [(cli, "load_config"), (cli, "generate_synthetic"), (cli, "kmeans"),
                         (cli, "basis_cluster"), (evaluation, "solve_by_cones"),
                         (evaluation, "kmeans")]:
        monkeypatch.setattr(module, name, forbidden)
    (tmp_path / "file").write_text("")
    out = str(tmp_path / out)
    with pytest.raises(OSError) as failed_mkdir:
        Path(out).mkdir(parents=True, exist_ok=True)
    if command != ["generate"]:
        command = command + ["--config", str(instance / "config.json")]
    code = main(command + ["--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {failed_mkdir.value}\n"


def _write_infeasible_instance(tmp_path):
    (tmp_path / "series.csv").write_text(
        "hour,demand,cf_wind\n0,5.0,0.5\n1,100.0,0.1\n"
    )
    config = {
        "generators": [
            {"name": "wind", "cost": 0.0, "capacity": 10.0,
             "is_variable": True, "cf_series": "wind"},
            {"name": "thermal", "cost": 10.0, "capacity": 10.0},
        ],
        "series": "series.csv",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path / "config.json"


def test_solve_full_infeasible_hour_exits_1(tmp_path, capsys):
    config = _write_infeasible_instance(tmp_path)
    assert main(["solve-full", "--config", str(config)]) == 1
    assert "hour 1" in capsys.readouterr().err


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc.update(horizon=doc["horizon"] + 0.7), "horizon must be an integer"),
    (lambda doc: doc["generators"][0].update(is_variable="no"), "is_variable"),
    (lambda doc: doc.update(generators=[5]), "generators[0] must be an object"),
    (lambda doc: doc.update(nse=True), "nse must be an object"),
    (lambda doc: doc["nse"].update(enabled="no"), "nse.enabled must be true or false"),
    (lambda doc: doc["generators"][1].update(cost="10"), "generators[1].cost must be a number"),
    (lambda doc: doc["generators"][0].update(capacity=True), "capacity must be a number"),
    (lambda doc: doc["generators"][1].update(p_min=False), "p_min must be a number"),
    (lambda doc: doc["generators"][0].update(name=7), "generators[0].name must be a string"),
], ids=["fractional_horizon", "string_is_variable", "number_generator", "boolean_nse",
        "string_nse_enabled", "string_cost", "boolean_capacity", "boolean_p_min",
        "number_name"])
def test_solve_full_malformed_config_exits_2(instance, tmp_path, capsys, edit, message):
    # fractional_horizon, string_is_variable, string_nse_enabled and the
    # mistyped numbers and name all solved with exit 0 (200.7 truncated to
    # 200, "no" read as true, "10" as 10); number_generator and boolean_nse
    # crashed with a TypeError traceback, exit 1
    doc = json.loads((instance / "config.json").read_text())
    doc["series"] = str(instance / "series.csv")
    edit(doc)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert main(["solve-full", "--config", str(tmp_path / "config.json")]) == 2
    assert message in capsys.readouterr().err


def test_missing_config_exits_2(capsys):
    assert main(["solve-full", "--config", "/nonexistent/config.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_full_series_field_over_the_csv_limit_exits_2(instance, tmp_path, capsys):
    # csv refuses a field over 131072 characters with _csv.Error, which
    # escaped load_series as a traceback, exit 1
    (tmp_path / "series.csv").write_text("hour,demand,cf_wind\n0," + "1" * 200_000 + ",0.5\n")
    doc = json.loads((instance / "config.json").read_text())
    doc["series"] = "series.csv"
    del doc["horizon"]
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert main(["solve-full", "--config", str(tmp_path / "config.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "field larger than field limit" in err and "(line 2)" in err


@pytest.mark.parametrize("row, kind, message", [
    ("0,abc,0.5", ParseError, "bad demand 'abc'"),
    ("0,1.0,1.5", OutOfRangeCFError, "capacity factor 1.5 outside [0, 1]"),
])
def test_solve_full_series_parse_error_names_the_series_file(
        instance, tmp_path, capsys, row, kind, message):
    (tmp_path / "series.csv").write_text(f"hour,demand,cf_wind\n{row}\n")
    doc = json.loads((instance / "config.json").read_text())
    doc["series"] = "series.csv"
    del doc["horizon"]
    (tmp_path / "config.json").write_text(json.dumps(doc))
    series = tmp_path / "series.csv"
    with pytest.raises(ParseError) as err:
        load_config(tmp_path / "config.json")
    assert (type(err.value), err.value.line) == (kind, 2)
    assert str(err.value) == f"{series}: {message} (line 2)"
    assert main(["solve-full", "--config", str(tmp_path / "config.json")]) == 2
    assert capsys.readouterr().err == f"error: {series}: {message} (line 2)\n"


# --- aggregate --------------------------------------------------------------

def test_aggregate_kmeans_requires_k(instance, tmp_path, capsys):
    code = main(["aggregate", "--config", str(instance / "config.json"),
                 "--method", "kmeans", "--out", str(tmp_path)])
    assert code == 2
    assert "--k is required" in capsys.readouterr().err


def test_aggregate_basis_warns_on_k(instance, tmp_path, capsys):
    code = main(["aggregate", "--config", str(instance / "config.json"),
                 "--method", "basis", "--k", "7", "--out", str(tmp_path)])
    assert code == 0
    assert "ignored" in capsys.readouterr().err
    model = _read_model(instance, tmp_path / "clusters_basis.json")
    assert model.k != 7  # k comes from the bases, not the flag
    assert set(model.labels) == {"wind marginal", "thermal marginal", "NSE"}


def test_aggregate_kmeans_writes_clusters(instance, tmp_path):
    code = main(["aggregate", "--config", str(instance / "config.json"),
                 "--method", "kmeans", "--k", "4", "--out", str(tmp_path)])
    assert code == 0
    model = _read_model(instance, tmp_path / "clusters_kmeans.json")
    assert model.k == 4
    assert model.assignment.size == 200
    assert model.bases is None
    assert all(c["basis"] is None for c in
               json.loads((tmp_path / "clusters_kmeans.json").read_text())["clusters"])


def test_aggregate_k_too_large_exits_2(instance, tmp_path, capsys):
    code = main(["aggregate", "--config", str(instance / "config.json"),
                 "--method", "kmeans", "--k", "999", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("command", [
    ["aggregate", "--method", "kmeans", "--k", "3"],
    ["compare"],
], ids=["aggregate", "compare"])
def test_kmeans_negative_seed_exits_2(instance, tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main(command + ["--config", str(instance / "config.json"),
                           "--seed", "-1", "--out", str(out)])
    assert code == 2
    assert "k-means seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["--seed", "-1"], "k-means seed must be >= 0, got -1"),
    (["--k", "0"], "k=0 outside [1, 200]"),
    (["--k", "9000"], "k=9000 outside [1, 200]"),
], ids=["negative_seed", "zero_k", "large_k"])
def test_compare_checks_kmeans_args_before_the_full_solve(
    instance, tmp_path, capsys, monkeypatch, args, message
):
    def no_solve(system):
        raise AssertionError("solve_full ran before the k-means arguments were checked")

    monkeypatch.setattr(evaluation, "solve_by_cones", no_solve)
    out = tmp_path / "out"
    code = main(["compare", "--config", str(instance / "config.json"),
                 "--out", str(out)] + args)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# --- compare ----------------------------------------------------------------

def test_compare_writes_scorecard(instance, tmp_path, capsys):
    code = main(["compare", "--config", str(instance / "config.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    for name in ("kmeans_report.json", "basis_report.json",
                 "clusters_kmeans.json", "clusters_basis.json", "summary.txt"):
        assert (tmp_path / name).exists(), name
    km = json.loads((tmp_path / "kmeans_report.json").read_text())
    bm = json.loads((tmp_path / "basis_report.json").read_text())
    assert km["k"] == bm["k"]
    assert km["full_cost"] == bm["full_cost"]
    assert bm["output_error_pct"] <= 1e-6
    assert km["output_error_pct"] > bm["output_error_pct"]
    summary = (tmp_path / "summary.txt").read_text()
    assert "kmeans" in summary and "basis" in summary
    assert "kmeans" in capsys.readouterr().out


def test_compare_outputs_are_byte_identical(instance, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["compare", "--config", str(instance / "config.json"),
                     "--seed", "1", "--out", str(out)]) == 0
    for name in ("kmeans_report.json", "basis_report.json",
                 "clusters_kmeans.json", "clusters_basis.json", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("demand,cf", [
    ([10.0, 20.0, 5.0], [0.5, 1.0, 0.2]),  # wind covers every hour
    ([0.0] * 4, [0.0, 0.5, 1.0, 0.2]),
], ids=["wind_covers_demand", "zero_demand"])
def test_compare_zero_full_cost_exits_2(tmp_path, capsys, demand, cf):
    # the relative output error divides by the full cost; this used to end
    # in a ZeroBaselineError traceback, exit 1
    system = thermal_wind(demand, cf)
    write_series(system, tmp_path / "series.csv")
    write_config(system, tmp_path / "config.json", "series.csv")
    assert main(["solve-full", "--config", str(tmp_path / "config.json")]) == 0
    out = tmp_path / "out"
    assert main(["compare", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "relative output error is undefined" in err
    assert not out.exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


# --- plot -------------------------------------------------------------------

def _render(instance, tmp_path, clusters_name):
    out = tmp_path / "plot.svg"
    code = main(["plot", "--config", str(instance / "config.json"),
                 "--clusters", str(tmp_path / clusters_name), "--out", str(out)])
    assert code == 0
    return ET.parse(out).getroot()


SVG = "{http://www.w3.org/2000/svg}"


def test_plot_svg_structure(instance, tmp_path):
    assert main(["compare", "--config", str(instance / "config.json"),
                 "--out", str(tmp_path)]) == 0
    root = _render(instance, tmp_path, "clusters_basis.json")
    circles = root.findall(f"{SVG}circle")
    assert len(circles) == 200  # one marker per hour, no more, no less
    crosses = [p for p in root.findall(f"{SVG}path") if p.get("class") == "centroid"]
    swatches = [r for r in root.findall(f"{SVG}rect") if r.get("class") == "swatch"]
    model = _read_model(instance, tmp_path / "clusters_basis.json")
    assert len(crosses) == model.k
    assert len(swatches) == model.k
    texts = " ".join(t.text or "" for t in root.findall(f"{SVG}text"))
    for label in model.labels:
        assert label in texts
    fills = {c.get("fill") for c in circles}
    assert len(fills) == model.k  # palette entry per cluster


def test_svg_escape_matches_saxutils():
    for text in ("", "plain", "a & b", "<g>", "x > y < z", "&amp;&lt;&gt;",
                 "say \"hi\" & 'bye'", "<&>>&<"):
        assert _escape(text) == escape(text), text


def test_plot_is_deterministic(instance, tmp_path):
    assert main(["compare", "--config", str(instance / "config.json"),
                 "--out", str(tmp_path)]) == 0
    outs = []
    for name in ("p1.svg", "p2.svg"):
        assert main(["plot", "--config", str(instance / "config.json"),
                     "--clusters", str(tmp_path / "clusters_kmeans.json"),
                     "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_plot_horizon_mismatch_exits_2(instance, tmp_path, capsys):
    assert main(["compare", "--config", str(instance / "config.json"),
                 "--out", str(tmp_path)]) == 0
    other = tmp_path / "other"
    assert main(["generate", "--out", str(other), "--hours", "100", "--seed", "2"]) == 0
    code = main(["plot", "--config", str(other / "config.json"),
                 "--clusters", str(tmp_path / "clusters_basis.json"),
                 "--out", str(tmp_path / "bad.svg")])
    assert code == 2
    assert "hours" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["nodir/x.svg", "file/x.svg", "dir"],
                         ids=["missing_parent", "parent_is_a_file", "out_is_a_directory"])
def test_plot_checks_out_before_any_work(instance, tmp_path, capsys, monkeypatch, out):
    def no_work(*args, **kwargs):
        raise AssertionError("plot did work before --out was checked")

    monkeypatch.setattr(cli, "load_config", no_work)
    monkeypatch.setattr(cli, "read_clusters", no_work)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / out)
    with pytest.raises(IoError) as failed_write:
        dump_json({}, out)
    code = main(["plot", "--config", str(instance / "config.json"),
                 "--clusters", str(tmp_path / "clusters.json"), "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {failed_write.value}\n"
    assert failed_write.value.args[0].startswith(f"cannot write {out}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert list((tmp_path / "dir").iterdir()) == []


def _assign_unknown_id(doc):
    doc["assignment"][5] = doc["k"]


def _declare_empty_id(doc):
    doc["k"] += 1
    doc["weights"].append(0)


def _drop_last_cluster(doc):
    doc["clusters"].pop()


def _raise_ids_by_half(doc):
    doc["assignment"] = [a + 0.5 for a in doc["assignment"]]


def _cut_columns(doc):
    doc["columns"] = doc["columns"][:1]


def _fractional_k(doc):
    doc["k"] += 0.5  # int() used to truncate it back to k


def _string_k(doc):
    doc["k"] = str(doc["k"])


def _unparsable_centroid(doc):
    doc["clusters"][0]["demand"] = "abc"


def _unknown_method(doc):
    doc["method"] = "foo"


def _scalar_assignment(doc):
    doc["assignment"] = 5  # used to crash with a TypeError, exit 1


def _numeric_label(doc):
    doc["clusters"][0]["label"] = 7  # str() used to read it as "7"


def test_plot_bad_cluster_id_exits_2(instance, tmp_path, capsys):
    assert main(["aggregate", "--config", str(instance / "config.json"),
                 "--method", "kmeans", "--k", "2", "--out", str(tmp_path)]) == 0
    good = json.loads((tmp_path / "clusters_kmeans.json").read_text())
    assert good["columns"] == ["demand", "wind"]
    for edit in (_assign_unknown_id, _declare_empty_id, _drop_last_cluster,
                 _raise_ids_by_half, _cut_columns, _fractional_k, _string_k,
                 _unparsable_centroid, _unknown_method, _scalar_assignment,
                 _numeric_label):
        doc = json.loads(json.dumps(good))
        edit(doc)
        path = tmp_path / f"{edit.__name__}.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["plot", "--config", str(instance / "config.json"),
                         "--clusters", str(path), "--out", str(tmp_path / "bad.svg")])
        assert code == 2, edit.__name__
        err = capsys.readouterr().err
        assert "cluster" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "bad.svg").exists()
