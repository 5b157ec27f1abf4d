"""File formats and synthetic instances.

Series CSV schema: header ``hour,demand,cf_<id>...`` with hours contiguous
from zero; parse failures carry the one-based line number.  Configs and
specs are strict JSON (unknown keys are rejected unless told to warn), and
reports/clusters are serialised with 12 significant digits so a re-read
agrees to well below 1e-10.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dispatch_model import (
    NSE_NAME,
    DispatchSolution,
    Generator,
    SystemData,
    add_nse_generator,
    regime_counts,
)
from .evaluation import ClusterSummary, EvaluationReport
from .lp_core import BasisSignature
from .tsa_clustering import ClusterModel, FeatureMatrix, to_representatives


class DataError(Exception):
    """Base class for data layer failures."""


class IoError(DataError):
    """Underlying file could not be read or written."""


class ParseError(DataError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class NonContiguousHoursError(ParseError):
    """Hour column must run 0, 1, 2, ... without gaps."""


class OutOfRangeCFError(ParseError):
    def __init__(self, value: float, line: int):
        self.value = value
        super().__init__(f"capacity factor {value} outside [0, 1]", line)


class ConfigError(DataError):
    """Malformed configuration or spec document."""


class RegimeUnreachableError(DataError):
    """Synthetic targets cannot be met with the specified capacities."""


@dataclass(frozen=True)
class SeriesBundle:
    """Demand plus named capacity-factor series, all of one horizon."""

    demand: np.ndarray
    capacity_factors: dict[str, np.ndarray]

    @property
    def horizon(self) -> int:
        return int(self.demand.size)


# ---------------------------------------------------------------------------
# series CSV
# ---------------------------------------------------------------------------

def load_series(path) -> SeriesBundle:
    """Parse a series CSV; errors carry the offending line number."""
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError("empty series file", 1)
    header = [cell.strip() for cell in rows[0]]
    if header[:2] != ["hour", "demand"]:
        raise ParseError(f"header must start with hour,demand; got {header}", 1)
    cf_names = []
    for cell in header[2:]:
        if not cell.startswith("cf_") or len(cell) <= 3:
            raise ParseError(f"capacity factor column {cell!r} must be cf_<id>", 1)
        cf_names.append(cell[3:])
    if len(set(cf_names)) != len(cf_names):
        raise ParseError(f"duplicate capacity factor columns in {header}", 1)

    demand = []
    cfs: list[list[float]] = [[] for _ in cf_names]
    for i, row in enumerate(rows[1:]):
        line = i + 2
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", line
            )
        try:
            hour = int(row[0])
        except ValueError as exc:
            raise ParseError(f"bad hour {row[0]!r}", line) from exc
        if hour != i:
            raise NonContiguousHoursError(
                f"hour {hour} out of order (expected {i})", line
            )
        try:
            d = float(row[1])
        except ValueError as exc:
            raise ParseError(f"bad demand {row[1]!r}", line) from exc
        if not math.isfinite(d) or d < 0.0:
            raise ParseError(f"demand {d} must be finite and >= 0", line)
        demand.append(d)
        for j, cell in enumerate(row[2:]):
            try:
                v = float(cell)
            except ValueError as exc:
                raise ParseError(f"bad capacity factor {cell!r}", line) from exc
            if not math.isfinite(v) or v < 0.0 or v > 1.0:
                raise OutOfRangeCFError(v, line)
            cfs[j].append(v)
    if not demand:
        raise ParseError("series file has a header but no rows", 2)
    return SeriesBundle(
        np.array(demand), {name: np.array(col) for name, col in zip(cf_names, cfs)}
    )


def write_series(bundle: SeriesBundle | SystemData, path) -> None:
    """Write a series CSV; floats use repr so a re-read is bit-identical."""
    demand = bundle.demand
    cfs = bundle.capacity_factors
    names = sorted(cfs)
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["hour", "demand"] + [f"cf_{n}" for n in names])
            for h in range(len(demand)):
                writer.writerow(
                    [h, repr(float(demand[h]))]
                    + [repr(float(cfs[n][h])) for n in names]
                )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# config JSON
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, allowed: set[str], where: str, strict: bool) -> None:
    unknown = sorted(set(obj) - allowed)
    if not unknown:
        return
    message = f"unknown key(s) {unknown} in {where}"
    if strict:
        raise ConfigError(message)
    warnings.warn(message)


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing key {key!r} in {where}")
    return obj[key]


def _load_json(path) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_config(path, strict: bool = True) -> SystemData:
    """Build a SystemData from a config JSON plus the series CSV it names.

    Relative series paths resolve against the config file's directory.  The
    optional ``nse`` block appends the high-cost unit; the optional
    ``horizon`` cross-checks the series length.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _check_keys(doc, {"generators", "series", "nse", "horizon"}, "config", strict)
    gens_doc = _require(doc, "generators", "config")
    series_rel = _require(doc, "series", "config")
    bundle = load_series(Path(path).parent / series_rel)
    if "horizon" in doc and int(doc["horizon"]) != bundle.horizon:
        raise ConfigError(
            f"configured horizon {doc['horizon']} != series length {bundle.horizon}"
        )
    generators = []
    for i, g in enumerate(gens_doc):
        where = f"generators[{i}]"
        _check_keys(
            g, {"name", "cost", "capacity", "p_min", "is_variable", "cf_series"},
            where, strict,
        )
        generators.append(
            Generator(
                name=str(_require(g, "name", where)),
                variable_cost=float(_require(g, "cost", where)),
                capacity=float(_require(g, "capacity", where)),
                p_min=float(g.get("p_min", 0.0)),
                is_variable=bool(g.get("is_variable", False)),
                cf_series_id=g.get("cf_series"),
            )
        )
    try:
        system = SystemData(tuple(generators), bundle.demand, bundle.capacity_factors)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    nse = doc.get("nse")
    if nse:
        _check_keys(nse, {"enabled", "cost", "capacity_multiplier"}, "nse", strict)
        if nse.get("enabled", True):
            cost = float(nse.get("cost", 1000.0))
            mult = nse.get("capacity_multiplier")
            sentinel = (
                float(mult) * float(system.demand.max()) if mult is not None else None
            )
            system = add_nse_generator(system, cost=cost, sentinel_capacity=sentinel)
    return system


def write_config(system: SystemData, path, series_filename: str) -> None:
    """Emit a config JSON referencing an already-written series CSV."""
    gens = []
    for g in system.generators:
        if g.name == NSE_NAME:
            continue
        entry = {"name": g.name, "cost": g.variable_cost, "capacity": g.capacity}
        if g.p_min:
            entry["p_min"] = g.p_min
        if g.is_variable:
            entry["is_variable"] = True
            entry["cf_series"] = g.cf_series_id
        gens.append(entry)
    doc: dict = {"generators": gens, "series": series_filename}
    nse = system.nse_generator()
    if nse is not None:
        peak = float(system.demand.max())
        doc["nse"] = {
            "enabled": True,
            "cost": nse.variable_cost,
            "capacity_multiplier": nse.capacity / peak if peak > 0 else 10.0,
        }
    doc["horizon"] = system.horizon
    dump_json(doc, path)


# ---------------------------------------------------------------------------
# synthetic instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DemandModel:
    base: float = 90.0
    daily_amplitude: float = 25.0
    seasonal_amplitude: float = 15.0
    noise_std: float = 6.0


@dataclass(frozen=True)
class WindModel:
    shape_a: float = 2.0
    shape_b: float = 4.0


def _default_targets() -> dict[str, float]:
    return {"wind marginal": 0.005, "thermal marginal": 0.25, "NSE": 0.001}


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible wind/thermal/NSE test-year."""

    hours: int = 8760
    seed: int = 1
    demand: DemandModel = DemandModel()
    wind: WindModel = WindModel()
    wind_capacity: float = 120.0
    wind_cost: float = 0.0
    thermal_capacity: float = 100.0
    thermal_cost: float = 10.0
    nse_cost: float = 1000.0
    regime_targets: dict[str, float] = field(default_factory=_default_targets)

    def __post_init__(self):
        if self.hours < 1:
            raise ValueError("hours must be >= 1")


def default_spec(seed: int = 1, hours: int = 8760) -> SyntheticSpec:
    return SyntheticSpec(hours=hours, seed=seed)


def generate_synthetic(spec: SyntheticSpec) -> SystemData:
    """Deterministic synthetic system: sinusoidal demand, beta-drawn wind.

    Demand is base + daily sinusoid + seasonal sinusoid + Gaussian noise
    (clipped at four sigma), floored at zero.  After generation the
    closed-form regime fractions are checked against ``regime_targets``;
    an unmet minimum raises RegimeUnreachableError so silent single-regime
    fixtures cannot escape.
    """
    rng = np.random.default_rng(spec.seed)
    h = np.arange(spec.hours)
    dm = spec.demand
    noise = rng.normal(0.0, dm.noise_std, spec.hours) if dm.noise_std > 0 else np.zeros(spec.hours)
    clip = 4.0 * dm.noise_std
    demand = np.maximum(
        dm.base
        + dm.daily_amplitude * np.sin(2.0 * np.pi * h / 24.0)
        + dm.seasonal_amplitude * np.sin(2.0 * np.pi * h / 8760.0)
        + np.clip(noise, -clip, clip),
        0.0,
    )
    cf = np.clip(rng.beta(spec.wind.shape_a, spec.wind.shape_b, spec.hours), 0.0, 1.0)
    system = SystemData(
        (
            Generator("wind", spec.wind_cost, spec.wind_capacity, is_variable=True, cf_series_id="wind"),
            Generator("thermal", spec.thermal_cost, spec.thermal_capacity),
        ),
        demand,
        {"wind": cf},
    )
    system = add_nse_generator(system, cost=spec.nse_cost)
    fractions = regime_fractions(system)
    for label, minimum in spec.regime_targets.items():
        if fractions.get(label, 0.0) < minimum:
            raise RegimeUnreachableError(
                f"target {label!r} >= {minimum} unmet; achieved {fractions}"
            )
    return system


def regime_fractions(system: SystemData) -> dict[str, float]:
    """Closed-form regime shares from merit-order availability arithmetic.

    The marginal unit of an hour is the cheapest generator whose cumulative
    availability covers demand; no LP is involved, so this doubles as an
    independent cross-check of the basis-derived labels.
    """
    H = system.horizon
    order = sorted(
        range(system.size), key=lambda g: (system.generators[g].variable_cost, g)
    )
    counts: dict[str, int] = {}
    avail = np.empty((system.size, H))
    for g, gen in enumerate(system.generators):
        if gen.is_variable:
            avail[g] = gen.capacity * system.capacity_factors[gen.cf_series_id]
        else:
            avail[g] = gen.capacity
    for hidx in range(H):
        cum = 0.0
        label = "infeasible"
        for g in order:
            cum += avail[g, hidx]
            if cum >= system.demand[hidx]:
                gen = system.generators[g]
                label = NSE_NAME if gen.name == NSE_NAME else f"{gen.name} marginal"
                break
        counts[label] = counts.get(label, 0) + 1
    return {label: n / H for label, n in counts.items()}


# spec JSON -----------------------------------------------------------------

def load_spec(path, strict: bool = True) -> SyntheticSpec:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError("spec root must be an object")
    return spec_from_dict(doc, strict=strict)


def spec_from_dict(doc: dict, strict: bool = True) -> SyntheticSpec:
    allowed = {
        "hours", "seed", "demand", "wind", "wind_capacity", "wind_cost",
        "thermal_capacity", "thermal_cost", "nse_cost", "regime_targets",
    }
    _check_keys(doc, allowed, "spec", strict)
    kwargs: dict = {k: doc[k] for k in allowed & set(doc)}
    if "demand" in kwargs:
        _check_keys(
            kwargs["demand"],
            {"base", "daily_amplitude", "seasonal_amplitude", "noise_std"},
            "spec.demand", strict,
        )
        kwargs["demand"] = DemandModel(**kwargs["demand"])
    if "wind" in kwargs:
        _check_keys(kwargs["wind"], {"shape_a", "shape_b"}, "spec.wind", strict)
        kwargs["wind"] = WindModel(**kwargs["wind"])
    try:
        return SyntheticSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad spec: {exc}") from exc


def spec_to_dict(spec: SyntheticSpec) -> dict:
    return {
        "hours": spec.hours,
        "seed": spec.seed,
        "demand": {
            "base": spec.demand.base,
            "daily_amplitude": spec.demand.daily_amplitude,
            "seasonal_amplitude": spec.demand.seasonal_amplitude,
            "noise_std": spec.demand.noise_std,
        },
        "wind": {"shape_a": spec.wind.shape_a, "shape_b": spec.wind.shape_b},
        "wind_capacity": spec.wind_capacity,
        "wind_cost": spec.wind_cost,
        "thermal_capacity": spec.thermal_capacity,
        "thermal_cost": spec.thermal_cost,
        "nse_cost": spec.nse_cost,
        "regime_targets": dict(spec.regime_targets),
    }


# ---------------------------------------------------------------------------
# reports and clusters
# ---------------------------------------------------------------------------

def _round12(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def dump_json(doc, path) -> None:
    try:
        with open(path, "w") as handle:
            json.dump(_round12(doc), handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def report_to_dict(report: EvaluationReport) -> dict:
    # Field order is fixed so repeated runs serialise byte-identically.
    return {
        "method": report.method,
        "k": report.k,
        "input_mse": report.input_mse,
        "full_cost": report.full_cost,
        "aggregated_cost": report.aggregated_cost,
        "output_error_pct": report.output_error_pct,
        "per_cluster": [
            {
                "weight": c.weight,
                "demand": c.demand,
                "cf": dict(sorted(c.cf.items())),
                "label": c.label,
                "basis": list(c.basis.indices) if c.basis is not None else None,
            }
            for c in report.per_cluster
        ],
    }


def write_report(report: EvaluationReport, path, fmt: str = "json") -> None:
    """Serialise a report as JSON (full fidelity) or a one-row summary CSV."""
    if fmt == "json":
        dump_json(report_to_dict(report), path)
    elif fmt == "csv":
        fields = [
            "method", "k", "input_mse", "full_cost", "aggregated_cost",
            "output_error_pct",
        ]
        doc = report_to_dict(report)
        try:
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(fields)
                writer.writerow([doc[f] for f in fields])
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def read_report(path) -> EvaluationReport:
    doc = _load_json(path)
    try:
        clusters = [
            ClusterSummary(
                weight=float(c["weight"]),
                demand=float(c["demand"]),
                cf={k: float(v) for k, v in c["cf"].items()},
                label=str(c["label"]),
                basis=(
                    BasisSignature(tuple(c["basis"])) if c["basis"] is not None else None
                ),
            )
            for c in doc["per_cluster"]
        ]
        return EvaluationReport(
            method=str(doc["method"]),
            k=int(doc["k"]),
            input_mse=float(doc["input_mse"]),
            full_cost=float(doc["full_cost"]),
            aggregated_cost=float(doc["aggregated_cost"]),
            output_error_pct=float(doc["output_error_pct"]),
            per_cluster=clusters,
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed report {path}: {exc}") from exc


@dataclass
class ClustersFile:
    """On-disk form of a ClusterModel plus denormalised centroids."""

    method: str
    k: int
    columns: tuple[str, ...]
    assignment: np.ndarray
    weights: np.ndarray
    labels: tuple[str, ...]
    centroids: list[dict]  # {"demand": float, "cf": {id: float}}
    bases: list[BasisSignature | None]


def write_clusters(model: ClusterModel, features: FeatureMatrix, path) -> None:
    reps = to_representatives(model, features)
    doc = {
        "method": model.method.value,
        "k": model.k,
        "columns": list(features.columns),
        "assignment": [int(a) for a in model.assignment],
        "weights": [int(w) for w in model.weights],
        "clusters": [
            {
                "id": cid,
                "label": model.labels[cid] if model.labels else f"cluster {cid}",
                "weight": float(model.weights[cid]),
                "demand": rep.demand,
                "cf": dict(sorted(rep.cf.items())),
                "basis": (
                    list(model.basis_map[cid].indices) if model.basis_map else None
                ),
            }
            for cid, rep in enumerate(reps.reps)
        ],
    }
    dump_json(doc, path)


def read_clusters(path) -> ClustersFile:
    doc = _load_json(path)
    try:
        clusters = doc["clusters"]
        return ClustersFile(
            method=str(doc["method"]),
            k=int(doc["k"]),
            columns=tuple(doc["columns"]),
            assignment=np.array(doc["assignment"], dtype=np.int64),
            weights=np.array(doc["weights"], dtype=np.int64),
            labels=tuple(str(c["label"]) for c in clusters),
            centroids=[
                {"demand": float(c["demand"]), "cf": dict(c["cf"])} for c in clusters
            ],
            bases=[
                BasisSignature(tuple(c["basis"])) if c["basis"] is not None else None
                for c in clusters
            ],
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed clusters file {path}: {exc}") from exc


def dispatch_summary(system: SystemData, dispatch: DispatchSolution) -> dict:
    """Small JSON-ready summary of a full solve for the CLI."""
    return {
        "status": "optimal",
        "hours": len(dispatch.periods),
        "total_cost": dispatch.total_cost,
        "regime_hours": dict(sorted(regime_counts(system, dispatch).items())),
    }
