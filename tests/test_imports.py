"""The imports of the package (numpy and the standard library only) and
of the scripts (those, and the package)."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "polmon"
SCRIPTS = ROOT / "scripts"


def _absolute_import_roots(path: Path) -> set[str]:
    """The top-level package of each absolute import in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def _outside(roots: dict[str, set[str]], allowed: set[str]
             ) -> dict[str, list[str]]:
    """Per module, the roots it imports that are neither allowed nor in
    the standard library; modules that import none are left out."""
    outside = {name: sorted(r for r in found if r not in allowed
                            and r not in sys.stdlib_module_names)
               for name, found in roots.items()}
    return {name: found for name, found in outside.items() if found}


def test_package_imports_numpy_and_the_standard_library_only():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    roots = {path.name: _absolute_import_roots(path) for path in modules}
    assert _outside(roots, {"numpy"}) == {}
    assert any("numpy" in found for found in roots.values())


def test_scripts_import_numpy_polmon_and_the_standard_library_only():
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert scripts
    roots = {path.name: _absolute_import_roots(path) for path in scripts}
    assert _outside(roots, {"numpy", "polmon"}) == {}
