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


def test_no_function_calls_itself():
    """Every search keeps its state on an explicit stack: deep recursion
    crashed the undirected search on Python 3.10 and the brute-force oracle on
    a 600-vertex path.  A function or method that calls itself by name, or as
    ``self.name``, is flagged."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")
                ):
                    found.append(f"{path.name}:{node.lineno} {fn.name}")
    assert found == []
