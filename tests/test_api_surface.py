"""Every public top-level name in the package has a caller outside the tests.

No linter is a dependency of this project, so the check is a plain ``ast``
pass. A public name is a top-level function, class or constant of a module
under ``src/signscribe`` whose name does not start with an underscore. It
counts as used when ``src/``, ``demos/`` or ``perfbench/`` refers to it: as
a loaded name, an attribute, an imported name, or a string attribute name
passed to ``tracer.wrap``. A reference inside the statement that defines
the name does not count, and neither do the relative re-exports of
``__init__.py`` files or any reference from the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/signscribe"
USERS = ("src", "demos", "perfbench")

# The public names that only tests call, each kept for a stated reason.
ALLOWED = {
    "receptive_field": "acceptance criterion 3 checks the TCN receptive fields with it",
    "zero_grads": "tests/test_acceptance.py calls it between gradient checks",
    "sum_all": "the scalar root of the gradient tests",
    "score_manual_annotation": "acceptance criterion 7 scores manual annotations with it",
}


def _defines(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _references(statement: ast.stmt, is_init: bool) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not (is_init and node.level > 0):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "wrap":
            names.update(a.value for a in node.args if isinstance(getattr(a, "value", None), str))
    return names - set(_defines(statement))


def unused_public_names(sources: dict[str, str]) -> list[str]:
    """``path:line: name`` of each public package name with no non-test reference.

    ``sources`` maps a path relative to the repository root to its text.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()}
    used = {
        name
        for path, tree in trees.items()
        if path.startswith(USERS)
        for statement in tree.body
        for name in _references(statement, path.endswith("__init__.py"))
    }
    return [
        f"{path}:{statement.lineno}: {name}"
        for path, tree in sorted(trees.items())
        if path.startswith(PACKAGE + "/")
        for statement in tree.body
        for name in _defines(statement)
        if not name.startswith("_") and name not in used
    ]


def test_checker_pins_what_it_flags():
    module = (
        "import os\n"
        "LIMIT = 3\n"
        "_PRIVATE = 4\n"
        "table: dict = {}\n"
        "def used():\n"
        "    return LIMIT\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "class Node:\n"
        "    def copy(self) -> 'Node':\n"
        "        return Node()\n"
        "def wrapped():\n"
        "    pass\n"
        "def reexported():\n"
        "    pass\n"
        "def tested():\n"
        "    pass\n"
    )
    sources = {
        "src/signscribe/mod.py": module,
        "src/signscribe/__init__.py": "from .mod import reexported\n",
        "demos/demo.py": (
            "from signscribe.mod import used\n"
            "from signscribe import mod\n"
            "mod.table[1] = 2\n"
            "tracer.wrap(mod, 'wrapped', 'layer.wrapped')\n"
            "def local():\n"
            "    recursive = 1\n"
            "    return 'tested'\n"
        ),
        "tests/test_mod.py": "from signscribe.mod import Node, recursive, tested\ntested()\n",
    }
    assert unused_public_names(sources) == [
        "src/signscribe/mod.py:7: recursive",
        "src/signscribe/mod.py:9: Node",
        "src/signscribe/mod.py:14: reexported",
        "src/signscribe/mod.py:16: tested",
    ]


def test_every_public_name_has_a_non_test_caller():
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for top in USERS
        for path in (ROOT / top).rglob("*.py")
    }
    unused = unused_public_names(sources)
    assert [line for line in unused if line.split(": ")[1] not in ALLOWED] == []
    # each allow-list entry is still needed: the name exists and has no other caller
    assert sorted(line.split(": ")[1] for line in unused) == sorted(ALLOWED)
