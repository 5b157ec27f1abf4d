"""Module boundaries inside the package: no module reaches into another's
private (``_``-prefixed) names.  Importing a private module, as in
``from . import _kernels``, is allowed.  Every value the package returns
is a frozen dataclass whose arrays and mappings refuse writes.  Importing
the command line loads no XML, network or e-mail module: every run pays
for what it imports."""

import ast
import dataclasses
import os
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

from systems import random_system
from tsagg.data_io import load_series, write_series
from tsagg.evaluation import compare_methods_detailed

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tsagg"


def _private_imports(path):
    """(line, module, name) of each private tsagg name ``path`` imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "tsagg":
            continue
        for alias in node.names:
            if not alias.name.startswith("_"):
                continue
            if module in ("", "tsagg") and (PACKAGE / f"{alias.name}.py").is_file():
                continue  # a private module, not a private name
            found.append((node.lineno, "." * node.level + module, alias.name))
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {p.name: _private_imports(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_check_sees_private_names(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from . import _kernels\n"
        "from .lp_core import solve, _check_basis\n"
        "from tsagg.tsa_clustering import _member_means\n"
        "from numpy import _private\n"
    )
    assert _private_imports(path) == [
        (2, ".lp_core", "_check_basis"),
        (3, "tsagg.tsa_clustering", "_member_means"),
    ]


# Only ``_kernels`` reads or writes the entries of an LP family.
FAMILY_READS = ("get", "setdefault", "items", "keys", "values")


def _family_entry_access(path):
    """(line, expression) of each subscript of an expression ending in
    ``._cache`` in ``path``, and each call of one of ``FAMILY_READS`` on
    one.  Passing the family on, as ``f(lp._cache)``, is allowed."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        target = None
        if isinstance(node, ast.Subscript):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in FAMILY_READS:
                target = node.func.value
        if isinstance(target, ast.Attribute) and target.attr == "_cache":
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_only_the_kernels_touch_a_family_s_entries():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "_kernels.py")
    assert len(modules) > 5
    offenders = {p.name: _family_entry_access(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_check_sees_family_entry_access(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "lp._cache[key] = entry\n"
        "entry = self.lp._cache.get(key)\n"
        "lp._cache.setdefault(key, entry)\n"
        "n = len(list(lp._cache.values()))\n"
        "simplex(c, A, b, lp._cache)\n"
        "cache.get(key)\n"
        "lp._caches[key]\n"
        "lp._cache.cone\n"
    )
    assert _family_entry_access(path) == [
        (1, "lp._cache[key]"),
        (2, "self.lp._cache.get(key)"),
        (3, "lp._cache.setdefault(key, entry)"),
        (4, "lp._cache.values()"),
    ]


def _dataclasses(path):
    """(class node, decorator keywords such as "eq=False") of each
    ``@dataclass`` class in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            if ast.unparse(call.func if call else deco) in ("dataclass", "dataclasses.dataclass"):
                found.append((node, {ast.unparse(kw) for kw in call.keywords} if call else set()))
    return found


def _array_dataclasses_with_value_eq(path):
    """Names of the ``@dataclass`` classes in ``path`` that have a field
    annotated with ``np.ndarray`` but no ``eq=False``.  Their generated
    ``==`` compares the arrays and raises ValueError, and ``hash`` of a
    frozen one raises TypeError."""
    return [
        node.name for node, keywords in _dataclasses(path)
        if "eq=False" not in keywords and any(
            isinstance(stmt, ast.AnnAssign) and "np.ndarray" in ast.unparse(stmt.annotation)
            for stmt in node.body
        )
    ]


def test_dataclasses_holding_arrays_compare_by_identity():
    modules = sorted(PACKAGE.glob("*.py"))
    offenders = {p.name: _array_dataclasses_with_value_eq(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_check_sees_array_fields_without_eq_false(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import dataclasses\n"
        "@dataclass\nclass A:\n    x: np.ndarray\n"
        "@dataclass(frozen=True)\nclass B:\n    x: np.ndarray | None = None\n"
        "@dataclasses.dataclass(eq=True)\nclass C:\n    x: dict[str, np.ndarray]\n"
        "@dataclass(eq=False)\nclass D:\n    x: np.ndarray\n"
        "@dataclass\nclass E:\n    x: tuple[int, ...]\n"
        "class F:\n    x: np.ndarray\n"
    )
    assert _array_dataclasses_with_value_eq(path) == ["A", "B", "C"]


# Every value tsagg returns is frozen, with read-only arrays and mappings,
# except ``LPSolution``: one is built per solved LP, and a frozen slots
# dataclass costs about four times as much to construct (about 1 us against
# 0.25 us, some 6 % of a full-year ``solve_full``).  Its arrays are copies
# that no other solve shares.
MUTABLE_DATACLASSES = {"LPSolution"}


def _unfrozen_dataclasses(path):
    """Names of the ``@dataclass`` classes in ``path`` without ``frozen=True``."""
    return [node.name for node, keywords in _dataclasses(path) if "frozen=True" not in keywords]


def test_every_dataclass_but_lp_solution_is_frozen():
    modules = sorted(PACKAGE.glob("*.py"))
    found = {name for p in modules for name in _unfrozen_dataclasses(p)}
    assert found == MUTABLE_DATACLASSES


def test_the_check_sees_dataclasses_that_are_not_frozen(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(eq=False)\nclass B:\n    x: int\n"
        "@dataclasses.dataclass(frozen=False)\nclass C:\n    x: int\n"
        "@dataclass(frozen=True, eq=False)\nclass D:\n    x: int\n"
        "@dataclasses.dataclass(frozen=True)\nclass E:\n    x: int\n"
        "class F:\n    x: int\n"
    )
    assert _unfrozen_dataclasses(path) == ["A", "B", "C"]


def _reachable(root):
    """Every object reachable from ``root`` through dataclass fields and
    the entries of tuples, lists and mappings."""
    stack, seen, found = [root], set(), []
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        found.append(value)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            stack.extend(getattr(value, f.name) for f in dataclasses.fields(value))
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
        elif isinstance(value, Mapping):
            stack.extend(value.values())
    return found


def test_every_value_a_comparison_or_a_series_file_returns_is_read_only(tmp_path):
    system = random_system(np.random.default_rng(0))
    write_series(system, tmp_path / "series.csv")
    values = _reachable((compare_methods_detailed(system), load_series(tmp_path / "series.csv")))
    arrays = [v for v in values if isinstance(v, np.ndarray)]
    mappings = [v for v in values if isinstance(v, Mapping)]
    instances = [v for v in values if dataclasses.is_dataclass(v)]
    assert len(arrays) > 15 and len(mappings) > 5 and len(instances) > 10
    assert [a.shape for a in arrays if a.flags.writeable] == []
    for mapping in mappings:
        with pytest.raises(TypeError):
            mapping["key"] = 0.0
    assert [type(v).__name__ for v in values if isinstance(v, list)] == []
    assert {type(v).__name__ for v in instances if not type(v).__dataclass_params__.frozen} == set()
    for value in instances:
        if type(value).__dataclass_params__.eq:
            hash(value)  # a held dict or list would raise TypeError


# Packages no tsagg run needs.  ``xml.sax.saxutils`` alone pulls in most of
# them (through ``urllib.request``), tens of milliseconds on every run.
# scipy is a test-only dependency (``tests/test_highs.py``): importing
# ``scipy.linalg`` takes longer than all of ``import tsagg.cli``, numpy
# included (about 0.1 s against 0.06 s on a 2-vCPU AMD EPYC).
UNNEEDED_PACKAGES = ("xml", "urllib.request", "http", "ssl", "socket", "email", "scipy")


def _loaded_beyond_numpy(statement):
    """Modules that ``statement`` loads in a fresh interpreter after numpy."""
    probe = (
        "import sys, numpy; before = set(sys.modules); "
        f"{statement}; print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.split()


def _unneeded(modules):
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in UNNEEDED_PACKAGES)
    )


def test_cli_import_loads_no_xml_network_or_email_module():
    loaded = _loaded_beyond_numpy("import tsagg.cli")
    assert "tsagg.cli" in loaded
    assert _unneeded(loaded) == []


def test_the_check_sees_unneeded_modules():
    assert "xml.sax.saxutils" in _unneeded(_loaded_beyond_numpy("import xml.sax.saxutils"))
    assert _unneeded(["xml", "xmlrpc", "urllib", "urllib.parse", "urllib.request",
                      "http.client", "httpx", "email.utils", "socketserver"]) == [
        "email.utils", "http.client", "urllib.request", "xml"
    ]
