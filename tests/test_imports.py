"""The package's imports: numpy and the standard library only."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "polmon"


def _absolute_import_roots(path: Path) -> set[str]:
    """The top-level package of each absolute import in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_numpy_and_the_standard_library_only():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    roots = {path.name: _absolute_import_roots(path) for path in modules}
    outside = {name: sorted(r for r in found if r != "numpy"
                            and r not in sys.stdlib_module_names)
               for name, found in roots.items()}
    assert {name: r for name, r in outside.items() if r} == {}
    assert any("numpy" in found for found in roots.values())
