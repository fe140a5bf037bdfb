"""The names the benchmark's tracer looks up in the package still exist.

``perfbench/tracer.py`` replaces each ``(module, name)`` of its ``TARGETS``
with a timing wrapper through ``getattr`` with no default, and counts
search rounds from ``SolveReport.iterations``; a refactor that drops one
of them makes a traced benchmark run raise. The tracer is read as text,
not imported, so this test never installs it.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from vslcert.search import SolveReport

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    """The literal value of ``TARGETS`` in the tracer's source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    missing = [(module, name) for module, name in targets
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_solve_report_keeps_iterations():
    assert "iterations" in {f.name for f in dataclasses.fields(SolveReport)}
