"""Rules that the package's source code keeps."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stiso"


def test_package_has_no_assert_statements():
    """A soundness check raises an error instead of using ``assert``, which
    ``python -O`` strips."""
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_never_sets_the_recursion_limit():
    """The limit is the interpreter's, not the package's: no search recurses
    once per vertex, and on Python 3.10 a raised limit lets a deep recursion
    overflow the C stack instead of raising."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "setrecursionlimit"
    ]
    assert found == []
