"""The benchmark's traced run wraps library functions by name.

``perfbench/replay.py`` lists them in ``TRACED`` as (module, name) pairs and
looks each one up on the module when ``--trace 1`` installs its spans, so a
renamed or deleted function breaks the traced benchmark only when it runs.
The list is read here with ``ast``, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"


def traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(REPLAY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            pairs = []
            for entry in node.value.elts:
                module, name = entry.elts[:2]
                assert isinstance(module, ast.Attribute) and module.value.id == "unitals"
                pairs.append((module.attr, name.value))
            return pairs
    raise AssertionError("no TRACED list in perfbench/replay.py")


def test_traced_names_resolve():
    pairs = traced_names()
    assert len(pairs) == 21
    for module, name in pairs:
        assert callable(getattr(importlib.import_module(f"unitals.{module}"), name, None)), (
            f"unitals.{module}.{name}")
