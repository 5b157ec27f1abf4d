"""File formats and synthetic instances.

Series CSV schema: header ``hour,demand,cf_<id>...`` with hours contiguous
from zero; parse failures carry the one-based line number.  Configs and
specs are strict JSON (unknown keys and values of the wrong type are
rejected).  Reports and clusters files carry 12 significant digits, and
each is read back only if its writer writes that same document again.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NoReturn

import numpy as np

from .dispatch_model import (
    NSE_NAME,
    DispatchSolution,
    Generator,
    SystemData,
    add_nse_generator,
    marginal_label,
    regime_counts,
)
from .evaluation import EvaluationReport
from .lp_core import BasisSignature, FrozenDict, readonly
from .tsa_clustering import (
    ClusterMethod,
    ClusterModel,
    ClusterSummary,
    FeatureMatrix,
    to_representatives,
)


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


@dataclass(frozen=True, eq=False)
class SeriesBundle:
    """Demand plus named capacity-factor series, all of one horizon."""

    demand: np.ndarray
    capacity_factors: dict[str, np.ndarray]

    def __post_init__(self):
        cfs = FrozenDict({key: readonly(cf) for key, cf in self.capacity_factors.items()})
        vars(self).update(demand=readonly(self.demand), capacity_factors=cfs)  # frozen

    @property
    def horizon(self) -> int:
        return int(self.demand.size)


# ---------------------------------------------------------------------------
# series CSV
# ---------------------------------------------------------------------------

def load_series(path) -> SeriesBundle:
    """Parse a series CSV; errors carry the offending line number.

    The body is parsed column by column; a file that this parse does not
    pass is read again row by row (``_raise_first_bad_row``), which reports
    its first bad line.
    """
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
    columns = _parse_columns(rows[1:], len(header))
    if columns is None:
        _raise_first_bad_row(rows[1:], len(header))
    demand, *cfs = columns
    return SeriesBundle(demand, dict(zip(cf_names, cfs)))


def _parse_columns(body: list[list[str]], width: int) -> list[np.ndarray] | None:
    """The demand and cf columns of ``body`` as float64 arrays, or None
    unless every row passes ``_raise_first_bad_row``'s checks.

    Each cell goes through the same ``int`` or ``float`` as there, so the
    arrays are bitwise what a row-by-row parse gives.
    """
    if not body or set(map(len, body)) != {width}:
        return None
    hours, *cells = zip(*body)
    try:
        if list(map(int, hours)) != list(range(len(body))):
            return None
        demand, *cfs = [np.array(list(map(float, column))) for column in cells]
    except ValueError:
        return None
    # NaN fails every comparison, so these also refuse it.
    if not (demand.min() >= 0.0 and demand.max() < math.inf):
        return None
    if not all(cf.min() >= 0.0 and cf.max() <= 1.0 for cf in cfs):
        return None
    return [demand, *cfs]


def _raise_first_bad_row(body: list[list[str]], width: int) -> NoReturn:
    """Raise the ParseError of the first bad row of a series body."""
    for i, row in enumerate(body):
        line = i + 2
        if len(row) != width:
            raise ParseError(f"expected {width} fields, got {len(row)}", line)
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
        for cell in row[2:]:
            try:
                v = float(cell)
            except ValueError as exc:
                raise ParseError(f"bad capacity factor {cell!r}", line) from exc
            if not math.isfinite(v) or v < 0.0 or v > 1.0:
                raise OutOfRangeCFError(v, line)
    # Every row passed, so there is none: ``_parse_columns`` takes any
    # non-empty body whose rows all pass.
    raise ParseError("series file has a header but no rows", 2)


def write_series(bundle: SeriesBundle | SystemData, path) -> None:
    """Write a series CSV; floats use repr so a re-read is bit-identical."""
    names = sorted(bundle.capacity_factors)
    columns = [bundle.demand.tolist()] + [bundle.capacity_factors[n].tolist() for n in names]
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["hour", "demand"] + [f"cf_{n}" for n in names])
            writer.writerows(zip(range(bundle.horizon), *(map(repr, c) for c in columns)))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# config JSON
# ---------------------------------------------------------------------------

def _check_keys(obj, allowed: set[str], where: str) -> None:
    """Refuse ``obj`` unless it is a JSON object with only ``allowed`` keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing key {key!r} in {where}")
    return obj[key]


def _integer(value, what: str):
    """``value`` if it is an integer.  Bools and floats are refused: a cast
    would read ``true`` as 1 and truncate 48.7 to 48 silently."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float if it is a number.  Bools and strings are
    refused: a cast would read ``true`` as 1 and ``"10"`` as 10 silently."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _boolean(value, what: str):
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _string(value, what: str):
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _load_json(path) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_config(path) -> SystemData:
    """Build a SystemData from a config JSON plus the series CSV it names.

    Relative series paths resolve against the config file's directory.  The
    optional ``nse`` block appends the high-cost unit; the optional
    ``horizon`` cross-checks the series length.
    """
    doc = _load_json(path)
    _check_keys(doc, {"generators", "series", "nse", "horizon"}, "config")
    gens_doc = _require(doc, "generators", "config")
    if not isinstance(gens_doc, list):
        raise ConfigError(f"generators must be a list, got {gens_doc!r}")
    series_rel = _string(_require(doc, "series", "config"), "series")
    bundle = load_series(Path(path).parent / series_rel)
    if "horizon" in doc and _integer(doc["horizon"], "horizon") != bundle.horizon:
        raise ConfigError(
            f"configured horizon {doc['horizon']} != series length {bundle.horizon}"
        )
    generators = []
    for i, g in enumerate(gens_doc):
        where = f"generators[{i}]"
        _check_keys(
            g, {"name", "cost", "capacity", "p_min", "is_variable", "cf_series"}, where
        )
        cf_series = g.get("cf_series")
        generators.append(
            Generator(
                name=_string(_require(g, "name", where), f"{where}.name"),
                variable_cost=_number(_require(g, "cost", where), f"{where}.cost"),
                capacity=_number(_require(g, "capacity", where), f"{where}.capacity"),
                p_min=_number(g.get("p_min", 0.0), f"{where}.p_min"),
                is_variable=_boolean(g.get("is_variable", False), f"{where}.is_variable"),
                cf_series_id=(
                    None if cf_series is None else _string(cf_series, f"{where}.cf_series")
                ),
            )
        )
    try:
        system = SystemData(tuple(generators), bundle.demand, bundle.capacity_factors)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    nse = doc.get("nse")
    if nse is not None:
        _check_keys(nse, {"enabled", "cost", "capacity_multiplier"}, "nse")
        enabled = _boolean(nse.get("enabled", True), "nse.enabled")
        cost = _number(nse.get("cost", 1000.0), "nse.cost")
        mult = nse.get("capacity_multiplier")
        if mult is not None:
            mult = _number(mult, "nse.capacity_multiplier")
        if enabled:
            # A zero peak gives no scale for the multiplier: default sentinel.
            peak = float(system.demand.max())
            sentinel = mult * peak if mult is not None and peak > 0 else None
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

def _check_numbers(obj, prefix: str = "") -> None:
    """Refuse each field of dataclass ``obj`` annotated ``float`` (a string
    here, as annotations are not evaluated) whose value is not a number."""
    for f in fields(obj):
        if f.type == "float":
            _number(getattr(obj, f.name), prefix + f.name)


@dataclass(frozen=True)
class DemandModel:
    base: float = 90.0
    daily_amplitude: float = 25.0
    seasonal_amplitude: float = 15.0
    noise_std: float = 6.0

    def __post_init__(self):
        _check_numbers(self, "demand.")


@dataclass(frozen=True)
class WindModel:
    shape_a: float = 2.0
    shape_b: float = 4.0

    def __post_init__(self):
        _check_numbers(self, "wind.")


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
        _integer(self.hours, "hours")
        _integer(self.seed, "seed")
        if self.hours < 1:
            raise ValueError("hours must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _check_numbers(self)
        targets = self.regime_targets
        if not isinstance(targets, dict):
            raise ConfigError(f"regime_targets must be an object, got {targets!r}")
        for label, share in targets.items():
            _number(share, f"regime_targets[{label!r}]")
        vars(self)["regime_targets"] = FrozenDict(targets)  # frozen: set through the dict


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

    Every unit first runs at its must-run floor; the marginal unit of an
    hour is then the cheapest generator whose cumulative headroom above the
    floors (availability minus ``p_min``) covers demand.  An hour whose
    floors alone exceed demand is "infeasible".  No LP is involved, so this
    doubles as an independent cross-check of the basis-derived labels.
    """
    H = system.horizon
    gens = system.generators
    merit = [gens[g] for g in sorted(range(len(gens)), key=lambda g: (gens[g].variable_cost, g))]
    floors = float(sum(g.p_min for g in gens))
    # covered[i, h]: the floors plus the headroom of merit[:i + 1] meet hour
    # h's demand.  Each hour's sum runs in merit order, as a per-hour loop's.
    covered = np.empty((len(merit), H), dtype=bool)
    cum = np.full(H, floors)
    for i, gen in enumerate(merit):
        if gen.is_variable:
            cum = cum + (gen.capacity * system.capacity_factors[gen.cf_series_id] - gen.p_min)
        else:
            cum = cum + (gen.capacity - gen.p_min)
        covered[i] = cum >= system.demand
    covered &= floors <= system.demand
    labels = [*map(marginal_label, merit), "infeasible"]
    marginal = np.where(covered.any(axis=0), covered.argmax(axis=0), len(merit))
    codes, first, counts = np.unique(marginal, return_index=True, return_counts=True)
    return {labels[codes[i]]: int(counts[i]) / H for i in np.argsort(first)}


# spec JSON -----------------------------------------------------------------

def load_spec(path) -> SyntheticSpec:
    return spec_from_dict(_load_json(path))


def spec_from_dict(doc: dict) -> SyntheticSpec:
    _check_keys(doc, {f.name for f in fields(SyntheticSpec)}, "spec")
    kwargs = dict(doc)
    for key, model in (("demand", DemandModel), ("wind", WindModel)):
        if key in kwargs:
            _check_keys(kwargs[key], {f.name for f in fields(model)}, f"spec.{key}")
            kwargs[key] = model(**kwargs[key])
    try:
        return SyntheticSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad spec: {exc}") from exc


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


def check_writable(path) -> None:
    """Refuse an output file before any work is done for it.

    Raises the ``IoError`` that writing ``path`` would: when it is a
    directory, or when its parent is not one.
    """
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    else:
        return
    raise IoError(f"cannot write {path}: {OSError(code, os.strerror(code), str(path))}")


def check_directory(path) -> None:
    """Refuse an output directory before any work is done for it.

    Raises the ``OSError`` that ``Path(path).mkdir(parents=True,
    exist_ok=True)`` would, where that is known without making anything:
    when ``path`` exists and is not a directory, or its nearest existing
    ancestor is not one.
    """
    target = Path(path)
    if target.exists():
        if target.is_dir():
            return
        code = errno.EEXIST
    else:
        parent = target.parent
        while not parent.exists() and parent != parent.parent:
            parent = parent.parent
        if parent.is_dir():
            return
        code = errno.ENOTDIR
    raise OSError(code, os.strerror(code), str(target))


def dump_json(doc, path) -> None:
    text = json.dumps(_round12(doc), indent=2) + "\n"
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _cluster_entry(c: ClusterSummary) -> dict:
    return {
        "weight": c.weight,
        "demand": c.demand,
        "cf": dict(sorted(c.cf.items())),
        "label": c.label,
        "basis": list(c.basis.indices) if c.basis is not None else None,
    }


def report_to_dict(report: EvaluationReport) -> dict:
    # Field order is fixed so repeated runs serialise byte-identically.
    return {
        "method": report.method,
        "k": report.k,
        "input_mse": report.input_mse,
        "full_cost": report.full_cost,
        "aggregated_cost": report.aggregated_cost,
        "output_error_pct": report.output_error_pct,
        "per_cluster": [_cluster_entry(c) for c in report.per_cluster],
    }


def write_report(report: EvaluationReport, path) -> None:
    """Serialise a report as JSON."""
    dump_json(report_to_dict(report), path)


def _read_entries(entries, where: str) -> tuple[ClusterSummary, ...]:
    """The entries ``_cluster_entry`` writes, read back: the one parser of
    them.  Each must pass ``Representative``'s checks."""
    return tuple(
        ClusterSummary(
            weight=_number(c["weight"], f"{where} weight"),
            demand=_number(c["demand"], f"{where} demand"),
            cf={k: _number(v, f"{where} cf {k!r}") for k, v in dict(c["cf"]).items()},
            label=_string(c["label"], f"{where} label"),
            basis=None if c["basis"] is None else BasisSignature(tuple(c["basis"])),
        )
        for c in entries
    )


def _check_written(doc: dict, written: dict, where: str, writer: str) -> None:
    """Refuse ``doc`` unless it is ``written``, what ``writer`` writes for
    the value read from it; the message names the first key that differs."""
    for key in {**written, **doc}:
        if key not in doc or key not in written or doc[key] != written[key]:
            raise ConfigError(f"{where} {key!r} is not what {writer} writes")


def read_report(path) -> EvaluationReport:
    """Read a report back; refuse what ``write_report`` cannot write.

    Each entry must pass ``Representative``'s checks, ``method`` must be a
    ``ClusterMethod`` value and ``k`` the number of entries, at least 1;
    then ``write_report`` must give this file back for the report read.
    """
    doc = _load_json(path)
    where = f"malformed report {path}:"
    try:
        clusters = _read_entries(doc["per_cluster"], where)
        report = EvaluationReport(
            method=_string(doc["method"], f"{where} method"),
            k=_integer(doc["k"], f"k in report {path}"),
            per_cluster=clusters,
            **{key: _number(doc[key], f"{where} {key}") for key in (
                "input_mse", "full_cost", "aggregated_cost", "output_error_pct")},
        )
        ClusterMethod(report.method)
        if not 1 <= report.k == len(clusters):
            raise ValueError(f"k = {report.k} for {len(clusters)} clusters")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where} {exc}") from exc
    _check_written(doc, _round12(report_to_dict(report)), where, "write_report")
    return report


def _clusters_doc(model: ClusterModel) -> dict:
    return {
        "method": model.method.value,
        "k": model.k,
        "columns": list(model.features.columns),
        "assignment": model.assignment.tolist(),
        "weights": model.weights.tolist(),
        # "label" is set first and keeps its place when the entry resets it.
        "clusters": [
            {"id": cid, "label": c.label, **_cluster_entry(c)}
            for cid, c in enumerate(to_representatives(model))
        ],
    }


def write_clusters(model: ClusterModel, path) -> None:
    dump_json(_clusters_doc(model), path)


def _integers(values, name: str, path) -> np.ndarray:
    """A clusters-file list of integers as int64; any other entry is refused,
    where a cast would truncate a fractional id silently."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ConfigError(f"malformed clusters file {path}: {name} must be integers")
    return arr.astype(np.int64)


def read_clusters(path, features: FeatureMatrix) -> ClusterModel:
    """Read a clusters file back into the model written for ``features``.

    The model is built from ``k``, ``method``, ``assignment`` and the
    entries' labels and bases; after the hours and member-count checks,
    ``write_clusters`` must give this file back for it.
    """
    doc = _load_json(path)
    where = f"malformed clusters file {path}:"
    try:
        k = _integer(doc["k"], f"k in clusters file {path}")
        method = ClusterMethod(doc["method"])
        assignment = _integers(doc["assignment"], "assignment", path)
        weights = _integers(doc["weights"], "weights", path).tolist()
        entries = _read_entries(doc["clusters"], where)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where} {exc}") from exc
    if len(assignment) != features.H:
        raise DataError(f"clusters file covers {len(assignment)} hours but the "
                        f"config series has {features.H}")
    bases = [c.basis for c in entries]
    try:
        # The file's weights list must be the member counts: checked once the
        # ids are in [0, k) and before empty clusters, so a file breaking both
        # is refused for its weights.
        if 0 <= assignment.min() and assignment.max() < k:
            if np.bincount(assignment, minlength=k).tolist() != weights:
                raise ValueError("weights must be the cluster cardinalities")
        model = ClusterModel(features, k, assignment, method, [c.label for c in entries],
                             None if None in bases else bases)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from exc
    _check_written(doc, _round12(_clusters_doc(model)), where, "write_clusters")
    return model


def dispatch_summary(system: SystemData, dispatch: DispatchSolution) -> dict:
    """Small JSON-ready summary of a full solve for the CLI."""
    return {
        "status": "optimal",
        "hours": len(dispatch.weights),
        "total_cost": dispatch.total_cost,
        "regime_hours": dict(sorted(regime_counts(system, dispatch).items())),
    }
