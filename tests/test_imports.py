"""Every name that a module of the package imports is used in that module or
listed in its __all__, and every name its __all__ lists is defined there, so
that an import or an export a deletion leaves behind fails here.  Every
fixture file is package data, so that an installed package ships it."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bisetforge"
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def exported_names(tree):
    """The names listed in the module's __all__, empty when it has none."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names += ast.literal_eval(node.value)
    return names


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
    return sorted(imported - used - set(exported_names(tree)))


def undefined_exports(source):
    """The names that source lists in __all__ but does not bind at module
    level, by a def, a class, an assignment or an import, in listing order."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    return [name for name in exported_names(tree) if name not in defined]


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


def test_undefined_exports_sees_defs_classes_assignments_and_imports():
    source = (
        "from .linalg import a, b as c\n"
        "import os.path\n"
        "X, (Y, Z) = 1, (2, 3)\n"
        "def f(): pass\n"
        "class K: pass\n"
        "__all__ = ['a', 'b', 'c', 'os', 'X', 'Z', 'f', 'K', 'gone']\n"
    )
    assert undefined_exports(source) == ["b", "gone"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_export_of_the_package_is_defined(path):
    assert undefined_exports(path.read_text(encoding="utf-8")) == []


def imports_fractions(source):
    """Does source import the fractions module, in any form and anywhere?"""
    return any(
        isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "fractions"
        for node in ast.walk(ast.parse(source))
    )


def test_imports_fractions_sees_every_form_of_the_import():
    for source in (
        "import fractions\n",
        "import math, fractions as fr\n",
        "from fractions import Fraction\n",
        "def f():\n    from fractions import Fraction as F\n",
    ):
        assert imports_fractions(source), source
    assert not imports_fractions("import math\nfrom .rings import Fraction\nfractions = 1\n")


# rings reads and prints rationals; the others keep one read-only Fraction view:
# bisets' coeffs, blocks' to_vector and quivers' change_of_basis_det
FRACTION_MODULES = {"rings.py", "bisets.py", "blocks.py", "quivers.py"}


def test_only_the_rational_edges_import_fractions():
    paths = PACKAGE.glob("*.py")
    importers = {p.name for p in paths if imports_fractions(p.read_text(encoding="utf-8"))}
    assert sorted(importers - FRACTION_MODULES) == []


def package_data_globs(text):
    """The bisetforge globs of [tool.setuptools.package-data] in the
    pyproject text, read by regex, since Python 3.10 has no tomllib."""
    section = re.search(r"^\[tool\.setuptools\.package-data\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    body = section.group(1) if section else ""
    entry = re.search(r"^bisetforge\s*=\s*\[(.*?)\]", body, re.M | re.S)
    return re.findall(r'"([^"]*)"', entry.group(1)) if entry else []


def test_package_data_globs_reads_only_the_package_entry_of_its_section():
    text = (
        '[tool.setuptools.packages.find]\nbisetforge = ["no.json"]\n\n'
        '[tool.setuptools.package-data]\nother = ["x.txt"]\n'
        'bisetforge = [\n    "fixtures/*.json",\n    "fixtures/p/*.json",\n]\n\n'
        '[tool.pytest.ini_options]\nbisetforge = ["no.txt"]\n'
    )
    assert package_data_globs(text) == ["fixtures/*.json", "fixtures/p/*.json"]
    assert package_data_globs("[project]\nname = 'x'\n") == []


def test_every_fixture_file_is_package_data():
    # the tests import the package from src/, where a missing glob goes unseen
    globs = package_data_globs(PYPROJECT.read_text(encoding="utf-8"))
    shipped = {path for glob in globs for path in PACKAGE.glob(glob)}
    files = [path for path in sorted((PACKAGE / "fixtures").rglob("*")) if path.is_file()]
    assert len(files) >= 6
    assert [str(path.relative_to(PACKAGE)) for path in files if path not in shipped] == []
