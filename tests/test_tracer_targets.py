"""The names the benchmark's tracer looks up in the package still exist.

``perfbench/tracer.py`` replaces each ``(module, name)`` of its ``TARGETS``
with a timing wrapper through ``getattr`` with no default, and counts
search rounds from ``SolveReport.iterations``; a refactor that drops one
of them makes a traced benchmark run raise. The tracer is read as text,
not imported, so this test never installs it. Likewise every name that
the benchmark's oracle, runner and instance builder import from the
package still resolves, so that an API cut cannot break the oracle.

Those names in ``vslcert.search`` are the only imports in the package's
modules that nothing reads: every other imported name is used, so that a
deletion does not leave its imports behind.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from vslcert.search import SolveReport

ROOT = Path(__file__).parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def benchmark_imports():
    """(module, name) for every name the benchmark's oracle, runner and
    instance builder import from the package, at any depth; name is None
    for a plain ``import vslcert...``."""
    found = []
    for script in ("oracle.py", "run.py", "make_desk.py"):
        for node in ast.walk(ast.parse((ROOT / "perfbench" / script).read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vslcert"):
                found += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(alias.name, None) for alias in node.names
                          if alias.name.startswith("vslcert")]
    return found


def test_every_benchmark_import_resolves():
    imports = benchmark_imports()
    assert ("vslcert.sampling", "propagate") in imports
    missing = [(module, name) for module, name in imports
               if not hasattr(importlib.import_module(module), name or "__name__")]
    assert not missing


def test_solve_report_keeps_iterations():
    assert "iterations" in {f.name for f in dataclasses.fields(SolveReport)}


def unused_imports(path):
    """Names the module at ``path`` imports, at any depth, and never reads."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    # An attribute chain such as np.inf starts with a Name, so it reads np.
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_import_in_the_package_is_used():
    kept = {name for module, name in tracer_targets() if module == "vslcert.search"}
    unused = {}
    for path in sorted((ROOT / "src" / "vslcert").glob("*.py")):
        names = unused_imports(path) - (kept if path.stem == "search" else set())
        if names and path.name != "__init__.py":
            unused[path.name] = sorted(names)
    assert not unused


def test_every_shim_in_search_is_a_tracer_target():
    # search.py keeps its stand-ins for removed code, and the solve_lp and
    # solve_milp names, only for the tracer: once the tracer no longer looks
    # a name up, this test names the shim to delete.
    tree = ast.parse((ROOT / "src" / "vslcert" / "search.py").read_text())
    shims = {target.id for node in tree.body if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Name) and node.value.id == "_removed"
             for target in node.targets}
    assert "build_lower" in shims
    kept = {name for module, name in tracer_targets() if module == "vslcert.search"}
    assert shims | {"solve_lp", "solve_milp"} <= kept
