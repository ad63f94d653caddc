"""Every public name in src/gtforge has a caller outside the tests.

The package holds only what a subcommand runs; a helper that only tests
call lives in tests/helpers.py instead. The check walks the AST of each
module in src/gtforge: every public top-level function and class, and
every public method, must be referenced by name in src/gtforge or in
perfbench/*.py outside its own definition (for a method, outside its own
class). A reference is a name, an attribute, an imported name or a dotted
target in perfbench/tracing.py's PROBES table.

A second check keeps errors.py to the exception classes code tells apart:
each class it defines must be named by some except clause in src/gtforge,
directly or through a module-level tuple that the clause unpacks.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gtforge"
PERFBENCH = ROOT / "perfbench"

EXEMPT = {
    # Spline diagnostics with no caller yet: the planned run report
    # (ROADMAP.md item 4) prints both per vehicle.
    "resample.TrajectoryInterpolant.velocity_consistency_rms",
    "resample.TrajectoryInterpolant.yaw_rate_consistency_rms",
}


def _probe_targets(tree: ast.Module) -> list[str]:
    """The attribute paths of the PROBES table's entries."""
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "PROBES":
            return [entry.elts[2].value for entry in node.value.elts]
    return []


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for every name, attribute and imported name in tree."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            refs += [(alias.name.rsplit(".", 1)[-1], node.lineno) for alias in node.names]
    for target in _probe_targets(tree):
        refs += [(part, 0) for part in target.split(".")]
    return refs


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each public
    top-level function or class, and of each public method with its
    class's lines, so that use inside the class does not count."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           node.lineno, node.end_lineno)


def test_every_public_name_has_a_non_test_caller():
    sources = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    uses = defaultdict(list)
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses[name].append((path, line))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, name, first, last in _definitions(path.stem, trees[path]):
            used = any(
                other != path or not first <= line <= last for other, line in uses[name]
            )
            if not used and qualname not in EXEMPT:
                unreferenced.append(qualname)
    assert unreferenced == [], (
        "public names no subcommand or benchmark probe reaches; move them to "
        f"tests/helpers.py or make them private: {unreferenced}"
    )


def _caught_names(tree: ast.Module) -> set[str]:
    """Names of the exception types the module's except clauses name,
    a module-level tuple of types (bare or unpacked) counting as its items."""
    tuples = {
        target.id: node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def names(node: ast.expr) -> set[str]:
        if isinstance(node, ast.Tuple):
            return set().union(*map(names, node.elts))
        if isinstance(node, ast.Starred):
            return names(node.value)
        if isinstance(node, ast.Name) and node.id in tuples:
            return set().union(*map(names, tuples[node.id]))
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        return set()

    return set().union(*(
        names(node.type) for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
    ))


def test_every_error_class_is_caught_somewhere():
    caught = set().union(*(
        _caught_names(ast.parse(path.read_text(), str(path)))
        for path in PACKAGE.glob("*.py")
    ))
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    defined = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    uncaught = [name for name in defined if name not in caught]
    assert uncaught == [], (
        "error classes no except clause in src/gtforge names; raise the nearest "
        f"class that one does instead: {uncaught}"
    )
