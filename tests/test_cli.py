"""End-to-end CLI behaviour: files written, exit codes, determinism."""

import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tsagg.cli import main
from tsagg.data_io import read_clusters, read_report

from systems import thermal_wind


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """A small generated instance shared by the read-only tests."""
    root = tmp_path_factory.mktemp("instance")
    assert main(["generate", "--out", str(root), "--hours", "200", "--seed", "1"]) == 0
    return root


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


def test_missing_config_exits_2(capsys):
    assert main(["solve-full", "--config", "/nonexistent/config.json"]) == 2
    assert "error" in capsys.readouterr().err


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
    clusters = read_clusters(tmp_path / "clusters_basis.json")
    assert clusters.k != 7  # k comes from the bases, not the flag
    assert set(clusters.labels) == {"wind marginal", "thermal marginal", "NSE"}


def test_aggregate_kmeans_writes_clusters(instance, tmp_path):
    code = main(["aggregate", "--config", str(instance / "config.json"),
                 "--method", "kmeans", "--k", "4", "--out", str(tmp_path)])
    assert code == 0
    clusters = read_clusters(tmp_path / "clusters_kmeans.json")
    assert clusters.k == 4
    assert clusters.assignment.size == 200
    assert all(b is None for b in clusters.bases)


def test_aggregate_k_too_large_exits_2(instance, tmp_path, capsys):
    code = main(["aggregate", "--config", str(instance / "config.json"),
                 "--method", "kmeans", "--k", "999", "--out", str(tmp_path)])
    assert code == 2


# --- compare ----------------------------------------------------------------

def test_compare_writes_scorecard(instance, tmp_path, capsys):
    code = main(["compare", "--config", str(instance / "config.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    for name in ("kmeans_report.json", "basis_report.json",
                 "clusters_kmeans.json", "clusters_basis.json", "summary.txt"):
        assert (tmp_path / name).exists(), name
    km = read_report(tmp_path / "kmeans_report.json")
    bm = read_report(tmp_path / "basis_report.json")
    assert km.k == bm.k
    assert km.full_cost == bm.full_cost
    assert bm.output_error_pct <= 1e-6
    assert km.output_error_pct > bm.output_error_pct
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
    clusters = read_clusters(tmp_path / "clusters_basis.json")
    assert len(crosses) == clusters.k
    assert len(swatches) == clusters.k
    texts = " ".join(t.text or "" for t in root.findall(f"{SVG}text"))
    for label in clusters.labels:
        assert label in texts
    fills = {c.get("fill") for c in circles}
    assert len(fills) == clusters.k  # palette entry per cluster


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


def _assign_unknown_id(doc):
    doc["assignment"][5] = doc["k"]


def _declare_empty_id(doc):
    doc["k"] += 1
    doc["weights"].append(0)


def test_plot_bad_cluster_id_exits_2(instance, tmp_path, capsys):
    assert main(["aggregate", "--config", str(instance / "config.json"),
                 "--method", "kmeans", "--k", "2", "--out", str(tmp_path)]) == 0
    good = json.loads((tmp_path / "clusters_kmeans.json").read_text())
    for edit in (_assign_unknown_id, _declare_empty_id):
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
