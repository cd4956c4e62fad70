"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pinchflow

PACKAGE = Path(pinchflow.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, json as j\nfrom a import b, c\nc()\n"
    assert unused_imports(source) == ["os", "j", "b"]


def test_package_modules_use_every_import():
    # __init__.py imports only to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
