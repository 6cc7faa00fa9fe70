"""Every function, class and method the library defines is used by it.

A definition that only tests reach belongs in ``tests/helpers.py``.  The
check reads ``src/unitals`` with ``ast`` and keys each definition made by
``def`` or ``class``, dunder methods aside, by its qualified name:
``module.function``, ``module.Class.method`` or ``module.outer.inner``.  A
module-level definition is used when its module names it or another
module imports it; a method when some attribute access names it; a
definition inside a function when that function names it.  So a method
is not saved by a module function that shares its name.  Strings,
``__all__`` among them, are no use.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "unitals"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def _definitions(node, qual: str, owner):
    """(qualified name, bare name, owner, line) for each definition below
    ``node``; the owner is None at module level, else the nearest
    enclosing class or function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS):
            name = f"{qual}.{child.name}"
            yield name, child.name, owner, child.lineno
            yield from _definitions(child, name, child)
        else:
            yield from _definitions(child, qual, owner)


def _loaded_names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """The qualified names, with their lines, of the definitions in
    ``sources`` (module name -> source text) that the package never uses."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    attributes: set[str] = set()
    imported: set[tuple[str, str]] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level == 1 or node.module.startswith("unitals."):
                    source = node.module.rpartition(".")[2]
                    imported.update((source, alias.name) for alias in node.names)
    unused = []
    for mod, tree in trees.items():
        module_names = _loaded_names(tree)
        for qual, name, owner, line in _definitions(tree, mod, None):
            if name.startswith("__") and name.endswith("__"):
                continue
            if owner is None:
                used = name in module_names or (mod, name) in imported
            elif isinstance(owner, ast.ClassDef):
                used = name in attributes
            else:
                used = name in _loaded_names(owner)
            if not used:
                unused.append(f"{qual} ({mod}.py:{line})")
    return sorted(unused)


def test_every_library_definition_is_used_by_the_library():
    assert unused_definitions(package_sources()) == []


PLANTED_PERM = """
def orbit(gens, x):
    return {x}


class Group:
    def orbit(self, x):
        return orbit(self.gens, x)

    def order(self):
        def count():
            return 1
        return 2
"""


@pytest.mark.parametrize("cli,unused", [
    # Group.orbit is only shadowed by the module function it calls
    ("from .perm import Group, orbit\n\nGroup().order()\norbit([], 0)\n",
     ["perm.Group.orbit (perm.py:7)", "perm.Group.order.count (perm.py:11)"]),
    ("from .perm import Group\n\nGroup().orbit(0)\nGroup().order()\n",
     ["perm.Group.order.count (perm.py:11)"]),
    # an attribute access reaches methods, not module functions
    ("from . import perm\n\nperm.Group().orbit(0)\nperm.orbit([], 0)\nx.order\n",
     ["perm.Group (perm.py:6)", "perm.Group.order.count (perm.py:11)"]),
], ids=["method-named-like-a-function", "method-reached", "attribute-reaches-no-function"])
def test_guard_resolves_names_by_scope(cli, unused):
    assert unused_definitions({"perm": PLANTED_PERM, "cli": cli}) == unused
