"""The runtime stays numpy-only: every import in the package names a
standard-library module, numpy, or the package itself by a relative
import."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riskcluster"


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.partition(".")[0])
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module.partition(".")[0]))
    assert imported
    assert {(name, top) for name, top in imported if top not in allowed} \
        == set()
