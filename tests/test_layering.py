"""Module boundaries inside the package: no module reaches into another's
private (``_``-prefixed) names.  Importing a private module, as in
``from . import _kernels``, is allowed."""

import ast
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
