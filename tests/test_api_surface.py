"""Every public name and every defaulted parameter in the package has a caller
outside the tests.

No linter is a dependency of this project, so both checks are plain ``ast``
passes over ``src/``, ``demos/`` and ``perfbench/``; references from the
tests never count.

Names: a public name is a top-level function, class or constant of a module
under ``src/signscribe`` whose name does not start with an underscore. It
counts as used when a user file refers to it: as a loaded name, an
attribute, an imported name, or a string attribute name passed to
``tracer.wrap``. A reference inside the statement that defines the name
does not count, and neither do the relative re-exports of ``__init__.py``
files.

Parameters: every defaulted parameter of a public function, or of a public
method or ``__init__`` of a public class, must be passed by some call, by
keyword or by position. Calls are matched by name alone: ``f(...)`` and
``x.f(...)`` both call every ``f``, and ``C(...)`` calls ``C.__init__``, as
does ``cls(...)`` inside a classmethod of ``C``. A ``**name`` argument passes
the constant keys of the dict display or ``dict(...)`` call bound to
``name`` in the calling function (else at module level), plus the
constant-key subscript stores to ``name`` there; any other ``**name``, and
any ``*args``, counts as passing every parameter. Dataclass fields are not
checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/signscribe"
USERS = ("src", "demos", "perfbench")

# The public names that only tests call, each kept for a stated reason.
ALLOWED_NAMES: dict[str, str] = {}

# The defaulted parameters that no call outside the tests passes, each kept for a stated reason.
ALLOWED_PARAMETERS = {
    "complete(max_tokens)": "the client protocol that outside clients implement",
    "HttpClient(endpoint, api_key, model_id)": "deployment settings, read from the environment",
    "HttpClient(sleep)": "lets tests substitute a fake",
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


def _user_sources() -> dict[str, str]:
    return {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for top in USERS
        for path in (ROOT / top).rglob("*.py")
    }


def test_every_public_name_has_a_non_test_caller():
    unused = unused_public_names(_user_sources())
    assert [line for line in unused if line.split(": ")[1] not in ALLOWED_NAMES] == []
    # each allow-list entry is still needed: the name exists and has no other caller
    assert sorted(line.split(": ")[1] for line in unused) == sorted(ALLOWED_NAMES)


# --- parameters -------------------------------------------------------------

EVERY = object()  # all parameters: what a call passes when its arguments cannot be read


def _has_decorator(function: ast.FunctionDef, name: str) -> bool:
    return any(getattr(d, "id", None) == name for d in function.decorator_list)


def _public_functions(tree: ast.Module):
    """(name a call uses, definition, takes self or cls) of each public function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    yield node.name, item, True
                elif not item.name.startswith("_"):
                    yield item.name, item, not _has_decorator(item, "staticmethod")


def _dict_keys(statements: list[ast.AST], name: str):
    """Constant keys that the assignments among ``statements`` give the dict ``name``.

    None when none of them binds ``name``; EVERY when one binds it to anything
    but a dict display or ``dict(...)`` call with constant keys.
    """
    keys: set[str] = set()
    bound = False
    for node in statements:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == name:
                if isinstance(value, ast.Dict) and all(isinstance(k, ast.Constant) for k in value.keys):
                    keys.update(k.value for k in value.keys)
                elif (
                    isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict"
                    and not value.args and all(kw.arg for kw in value.keywords)
                ):
                    keys.update(kw.arg for kw in value.keywords)
                else:
                    return EVERY
                bound = True
            elif (
                isinstance(target, ast.Subscript) and getattr(target.value, "id", None) == name
                and isinstance(target.slice, ast.Constant)
            ):
                keys.add(target.slice.value)
    return keys if bound else None


def _keywords(call: ast.Call, function: ast.FunctionDef | None, module: ast.Module):
    """Keyword names ``call`` passes, or EVERY; ``function`` is the one it sits in."""
    names: set[str] = set()
    for kw in call.keywords:
        if kw.arg is not None:
            names.add(kw.arg)
            continue
        keys = None
        if isinstance(kw.value, ast.Name):
            if function:
                keys = _dict_keys(list(ast.walk(function)), kw.value.id)
            if keys is None:
                keys = _dict_keys(module.body, kw.value.id)
        if keys is None or keys is EVERY:
            return EVERY
        names |= keys
    return names


def _calls(module: ast.Module):
    """(called name, positional argument count or EVERY, keyword names or EVERY) of each call."""

    def visit(node, function, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "cls" and cls:
                    name = cls
                starred = any(isinstance(a, ast.Starred) for a in child.args)
                yield name, EVERY if starred else len(child.args), _keywords(child, function, module)
            if isinstance(child, ast.ClassDef):
                yield from visit(child, function, child.name)
            elif isinstance(child, ast.FunctionDef):
                yield from visit(child, child, cls if _has_decorator(child, "classmethod") else None)
            else:
                yield from visit(child, function, cls)

    return visit(module, None, None)


def unset_parameters(sources: dict[str, str]) -> list[str]:
    """``path:line: name(parameter)`` of each defaulted package parameter no non-test call passes.

    ``sources`` maps a path relative to the repository root to its text.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()}
    calls: dict[str, list] = {}
    for path, tree in trees.items():
        if path.startswith(USERS):
            for name, positional, keywords in _calls(tree):
                calls.setdefault(name, []).append((positional, keywords))
    found = []
    for path, tree in sorted(trees.items()):
        if not path.startswith(PACKAGE + "/"):
            continue
        for name, function, bound in _public_functions(tree):
            args = function.args
            positional = [a.arg for a in args.posonlyargs + args.args][bound:]
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param in defaulted:
                if not any(
                    count is EVERY or keywords is EVERY or param in keywords
                    or param in positional[:count]
                    for count, keywords in calls.get(name, [])
                ):
                    found.append(f"{path}:{function.lineno}: {name}({param})")
    return found


def test_parameter_checker_pins_what_it_flags():
    module = (
        "def f(a, b=1, *, c=2, d=3):\n"
        "    pass\n"
        "def g(x=1, y=2):\n"
        "    return j(*[x, y])\n"
        "def h(p=1, q=2, r=3):\n"
        "    pass\n"
        "def _private(z=1):\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self, size=1, label=''):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def make(cls, n):\n"
        "        return cls(n)\n"
        "    def scale(self, k=2, m=3):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def build(u=1, v=2):\n"
        "        pass\n"
        "@dataclass\n"
        "class Point:\n"
        "    x: int = 0\n"
        "def j(s=1, t=2):\n"
        "    pass\n"
    )
    sources = {
        "src/signscribe/mod.py": module,
        "demos/demo.py": (
            "from signscribe import mod\n"
            "SETTINGS = {'p': 1}\n"
            "def run(opaque):\n"
            "    kw = dict()\n"
            "    kw['q'] = 2\n"
            "    mod.f(0, 5, c=1)\n"
            "    mod.g(**opaque)\n"
            "    mod.h(**SETTINGS)\n"
            "    mod.h(**kw)\n"
            "    mod.Box.make(1).scale(3)\n"
            "    mod.Box.build(1)\n"
        ),
        "tests/test_mod.py": "mod.f(d=1)\nmod.h(r=1)\nmod.Box(label='x').scale(m=1)\n",
    }
    assert unset_parameters(sources) == [
        "src/signscribe/mod.py:1: f(d)",
        "src/signscribe/mod.py:5: h(r)",
        "src/signscribe/mod.py:10: Box(label)",
        "src/signscribe/mod.py:15: scale(m)",
        "src/signscribe/mod.py:18: build(v)",
    ]


def test_every_defaulted_parameter_has_a_non_test_caller():
    allowed = {
        f"{entry.split('(')[0]}({param.strip()})"
        for entry in ALLOWED_PARAMETERS
        for param in entry.split("(")[1].rstrip(")").split(",")
    }
    unset = {line.split(": ")[1] for line in unset_parameters(_user_sources())}
    assert sorted(unset - allowed) == []
    # each allow-list entry is still needed: no call outside the tests passes it
    assert sorted(allowed - unset) == []
