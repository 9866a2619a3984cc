"""Print the total and code lines of each source file of src/kacpal.

A code line is any line that is not blank, not a ``#`` comment and not part
of a docstring (the first statement of a module, class or function, when it
is a string).  Run from any directory:

    python tools/count_lines.py
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "kacpal"


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one Python file."""
    text = path.read_text()
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main() -> None:
    total = code = 0
    for path in sorted(ROOT.glob("*.py")):
        t, c = count(path)
        total += t
        code += c
        print(f"{path.name:20} {t:6} {c:6}")
    print(f"{'total':20} {total:6} {code:6}")


if __name__ == "__main__":
    main()
