"""Nothing in src/ is there for tests alone: every public function and class has a
caller or is exported, and every import is used or re-exported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "posepriors"
MODULES = {path.stem: path.read_text(encoding="utf-8")
           for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
INIT = (PACKAGE / "__init__.py").read_text(encoding="utf-8")

# "module.name": reason, for a public name kept with no caller and no export.
ALLOWED: dict[str, str] = {}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def exports(init_source: str) -> set[tuple[str, str]]:
    """(module, name) of each `from .module import name` in a package's `__init__`."""
    return {(node.module, alias.name) for node in ast.walk(ast.parse(init_source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def named(tree: ast.Module) -> set[tuple[str | None, str]]:
    """(enclosing module-level definition or None, name) of each name and attribute."""
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(top, _DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                found.add((owner, node.attr))
    return found


def uncalled_public(modules: dict[str, str], init_source: str) -> list[str]:
    """`module.name` of each public module-level function or class that `__init__` does
    not import and that no module names outside the definition itself."""
    exported = {name for _, name in exports(init_source)}
    trees = {module: ast.parse(source) for module, source in modules.items()}
    users = {}  # name -> {(module, enclosing definition)}
    for module, tree in trees.items():
        for owner, name in named(tree):
            users.setdefault(name, set()).add((module, owner))
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, _DEFS) and not node.name.startswith("_")
            and node.name not in exported
            and not users.get(node.name, set()) - {(module, node.name)}]


def unused_imports(module: str, source: str, init_source: str) -> list[str]:
    """Each name imported into `module` that it never reads and `__init__` does not
    import from it."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    reexported = exports(init_source)
    return [name for name in bound if name not in read and (module, name) not in reexported]


def test_checker_flags_uncalled_public():
    modules = {
        "a": ("import b\n"
              "def used(): return b.helper()\n"
              "def exported(): pass\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def _private(): pass\n"
              "class Unused:\n"
              "    def method(self): pass\n"
              "class Typed: pass\n"
              "def annotated(x: Typed): pass\n"),
        "b": "def helper(): return used\n",
    }
    init = "from .a import exported, annotated\n"
    assert uncalled_public(modules, init) == ["a.recursive", "a.Unused"]


def test_checker_flags_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from . import rotations\n"
        "from .rotations import polar, exp, project\n"
        "def f(x):\n"
        "    return np.sum(rotations.exp(polar(x)))\n"
    )
    init = "from .a import project\n"
    assert unused_imports("a", source, init) == ["os", "exp"]


def test_every_public_name_has_a_caller_or_an_export():
    uncalled = uncalled_public(MODULES, INIT)
    assert sorted(uncalled) == sorted(ALLOWED), f"no caller in src/ and no export: {uncalled}"


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used_or_reexported(module):
    assert unused_imports(module, MODULES[module], INIT) == []
