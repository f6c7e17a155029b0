"""No unused imports in the package or the tests.

No linter is a dependency of this project, so the check is a plain
``ast`` pass: a name an import binds must appear as a name somewhere in
the same module. ``from __future__`` imports and the relative re-exports
of ``__init__.py`` files are exempt.
"""

import ast
from pathlib import Path

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
