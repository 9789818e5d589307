"""Code-line, dataclass and field counts of the afcmem package.

A code line is a non-blank line that holds something besides comments and
docstrings (a docstring is a string statement opening a module, class or
function body).  A field is an annotated name that a dataclass body
declares, so an override of an inherited field counts again: it is a
settable value of its own.  Prints one row per module of src/afcmem, the
total, the number of dataclasses and the number of their fields.

    python tests/loc.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "afcmem"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _is_dataclass(node: ast.AST) -> bool:
    def name(d):
        d = d.func if isinstance(d, ast.Call) else d
        return d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)

    return isinstance(node, ast.ClassDef) and any(name(d) == "dataclass"
                                                  for d in node.decorator_list)


def _fields(node: ast.ClassDef) -> int:
    return sum(isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
               for stmt in node.body)


def count(path: Path) -> tuple[int, int, int]:
    """(code lines, dataclasses, dataclass fields) of one source file."""
    source = path.read_text()
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    dataclasses = [node for node in ast.walk(tree) if _is_dataclass(node)]
    return len(code), len(dataclasses), sum(map(_fields, dataclasses))


def main() -> None:
    total_lines = total_classes = total_fields = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines, classes, fields = count(path)
        total_lines += lines
        total_classes += classes
        total_fields += fields
        print(f"{path.relative_to(PACKAGE)!s:24} {lines:5}")
    print(f"{'total':24} {total_lines:5}")
    print(f"{'dataclasses':24} {total_classes:5}")
    print(f"{'fields':24} {total_fields:5}")


if __name__ == "__main__":
    main()
