import ast
from pathlib import Path

import sumsetlab

PACKAGE_DIR = Path(sumsetlab.__file__).parent


def test_package_has_no_bare_assert():
    # runtime invariants must raise: `python -O` strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
