"""The bench still runs on the library: every function its tracer patches
by name is defined, and one item of each workload runs end to end.

`perfbench/tracer.py` wraps each `(module, name)` of its `TARGETS` with
`getattr`, so a traced bench run dies if a change deletes or renames one.
The tuple is read from the file's syntax tree, without importing it.  The
workloads call the library by name and keyword too (`rational_gcd`,
`spectrum(..., method="fd", mesh=...)`, `meta["error_estimates"]`)."""

from __future__ import annotations

import ast
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


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


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_item_of_each_workload_runs_end_to_end(name, monkeypatch):
    # as the bench does: prepare the tiny pool, run and digest one op, then
    # check it against its reference
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    wl = importlib.import_module("workloads").get(name)
    item = wl.prepare(7, tiny=True)[0]
    digest = wl.digest(wl.op(item))
    assert wl.check(item, digest, wl.reference(item, [digest])) is None
