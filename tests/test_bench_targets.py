"""Every function the bench tracer patches by name is still defined.

`perfbench/tracer.py` wraps each `(module, name)` of its `TARGETS` with
`getattr`, so a traced bench run dies if a change deletes or renames one.
The tuple is read from the file's syntax tree, without importing it."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> list:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["TARGETS"]:
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"{TRACER} assigns no TARGETS")


def test_every_traced_function_is_defined():
    targets = _targets()
    assert targets
    for module, name in targets:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
