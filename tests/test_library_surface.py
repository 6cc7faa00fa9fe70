"""Every function, class and method the library defines is used by it.

A definition that only tests reach belongs in ``tests/helpers.py``.  The
check reads ``src/unitals`` with ``ast``: each name defined by ``def`` or
``class``, dunder methods aside, must occur as a name or an attribute
somewhere in the package.  Strings, ``__all__`` among them, are no use.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "unitals"


def unused_definitions() -> list[str]:
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno} {node.name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(where for name, where in defined.items() if name not in used)


def test_every_library_definition_is_used_by_the_library():
    assert unused_definitions() == []
