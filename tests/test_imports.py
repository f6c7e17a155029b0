"""No unused imports in the package or the tests, and the package's
dependencies declared exactly.

No linter is a dependency of this project, so the checks are plain
``ast`` passes. Unused: a name an import binds must appear as a name
somewhere in the same module; ``from __future__`` imports and the
relative re-exports of ``__init__.py`` files are exempt. Undeclared: every
top-level module the package imports, at any depth of the module, is the
standard library's, the package's own, or a distribution listed in
``pyproject.toml``'s ``[project].dependencies`` under the same name.
Unneeded: every distribution listed there is imported by the package.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str, is_init: bool = False) -> list[tuple[int, str]]:
    """(line, name) of each import binding that no name in ``source`` uses."""
    tree = ast.parse(source)
    bound: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (is_init and node.level > 0):
                continue
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in used)


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy.linalg\n"
        "from .x import y\n"
        "from a import b as c, d\n"
        "def f():\n"
        "    import json\n"
        "    return d, numpy.linalg.norm\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (5, "y"), (6, "c"), (8, "json")]
    assert unused_imports(source, is_init=True) == [(2, "os"), (3, "osp"), (6, "c"), (8, "json")]


def test_no_unused_imports_in_src_and_tests():
    paths = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))
    assert Path(__file__).resolve() in paths
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in unused_imports(path.read_text(), path.name == "__init__.py")
    ]
    assert found == []


def third_party_imports(source: str, package: str) -> set[str]:
    """Top-level modules that ``source`` imports from outside the standard
    library and ``package``, function-level imports included."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {package}


def declared_dependencies(pyproject: str) -> set[str]:
    """Normalised distribution names of ``[project].dependencies``."""
    tomllib = pytest.importorskip("tomllib")
    requirements = tomllib.loads(pyproject)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9._-]+", r)[0].lower().replace("-", "_") for r in requirements}


def test_dependency_checker_flags_undeclared_modules():
    source = (
        "from __future__ import annotations\n"
        "import json, numpy.linalg\n"
        "from . import pose\n"
        "from signscribe.gloss import render\n"
        "def f():\n"
        "    import requests\n"
        "    from jsonschema import validators\n"
    )
    assert third_party_imports(source, "signscribe") == {"numpy", "requests", "jsonschema"}
    pyproject = '[project]\ndependencies = ["numpy>=1.24", "Py-Json ; python_version<\'4\'"]\n'
    assert declared_dependencies(pyproject) == {"numpy", "py_json"}


def test_every_package_import_is_declared():
    """Both directions: no undeclared import, and no declared dependency the
    package never imports."""
    imported = set()
    for path in (ROOT / "src" / "signscribe").rglob("*.py"):
        imported |= third_party_imports(path.read_text(), "signscribe")
    declared = declared_dependencies((ROOT / "pyproject.toml").read_text())
    assert {"numpy", "scipy", "orjson"} <= imported
    assert "jsonschema" not in imported  # the test oracle of the document check, not a dependency
    assert sorted(imported - declared) == []
    assert sorted(declared - imported) == []
