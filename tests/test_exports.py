"""Every name the package exports has a caller outside its own definition.

A reference is a Name, an Attribute or an imported alias in another
statement of src/afcmem (the imports of __init__.py, which are the exports
themselves, do not count), or a name, attribute, alias or dotted string
constant anywhere in benchmarks/*.py: the benchmark's tracer names the
functions it wraps by string.  A test-only helper belongs in
tests/oracles.py, so this test names every export that nothing else calls.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "afcmem"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _defined(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _referenced(node: ast.AST, strings: bool = False):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif (strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and _DOTTED.fullmatch(sub.value)):
            yield from sub.value.split(".")


def unreferenced_exports() -> list[str]:
    """Exports that nothing outside their own definition refers to, sorted."""
    seen: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if path.name == "__init__.py" and isinstance(stmt, ast.ImportFrom):
                continue
            seen.update(set(_referenced(stmt)) - _defined(stmt))
    for path in (ROOT / "benchmarks").glob("*.py"):
        seen.update(_referenced(ast.parse(path.read_text()), strings=True))
    return sorted(_exports() - seen)


def test_every_package_export_has_a_caller():
    unused = unreferenced_exports()
    assert not unused, (f"exported but called by no package module and no benchmark: "
                        f"{', '.join(unused)}; move test-only helpers to tests/oracles.py")
