import ast
from pathlib import Path

import kacpal

SOURCE = Path(kacpal.__file__).resolve().parent


def test_no_correctness_check_is_an_assert():
    """python -O strips assert statements, so no module of kacpal may check
    anything with one."""
    found = [
        f"{path.relative_to(SOURCE.parent)}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
