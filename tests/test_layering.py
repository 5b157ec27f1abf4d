"""Module boundaries inside the package: no module reaches into another's
private (``_``-prefixed) names.  Importing a private module, as in
``from . import _kernels``, is allowed.  Importing the command line loads
no XML, network or e-mail module: every run pays for what it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def _array_dataclasses_with_value_eq(path):
    """Names of the ``@dataclass`` classes in ``path`` that have a field
    annotated with ``np.ndarray`` but no ``eq=False``.  Their generated
    ``==`` compares the arrays and raises ValueError, and ``hash`` of a
    frozen one raises TypeError."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        arrays = any(
            isinstance(stmt, ast.AnnAssign) and "np.ndarray" in ast.unparse(stmt.annotation)
            for stmt in node.body
        )
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            name = ast.unparse(call.func if call else deco)
            if arrays and name in ("dataclass", "dataclasses.dataclass") and not (
                call and any(ast.unparse(kw) == "eq=False" for kw in call.keywords)
            ):
                found.append(node.name)
    return found


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


# Packages no tsagg run needs.  ``xml.sax.saxutils`` alone pulls in all of
# them (through ``urllib.request``), tens of milliseconds on every run.
UNNEEDED_PACKAGES = ("xml", "urllib.request", "http", "ssl", "socket", "email")


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
