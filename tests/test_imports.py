"""Every name that a module of the package imports is used in that module or
listed in its __all__, so that an import a deletion leaves behind fails here."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bisetforge"


def unused_imports(source):
    """The names that source imports and neither uses nor lists in __all__,
    sorted; __future__ imports are directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_sees_imports_aliases_and_the_export_list():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import math as m\n"
        "from .linalg import a, b as c, d\n"
        "__all__ = ['d']\n"
        "print(m.pi, a)\n"
    )
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_of_the_package_is_used_or_exported(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
