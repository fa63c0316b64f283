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


ORACLE_TREECODE_NAMES = {
    "NotArborescenceError", "TargetTree", "arborescence_root", "rooted_code", "tree_centers",
}


def test_oracle_stays_off_the_canonical_layer():
    """The oracle judges the solvers, so it shares none of their canonical
    layer: from ``treecode`` it imports only the names above (printed codes
    and centres, never ``_ahu`` ids or ``unrooted_code``), and it calls no
    ``build`` or ``match``."""
    path = SRC / "oracle.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "treecode":
            found += [alias.name for alias in node.names if alias.name not in ORACLE_TREECODE_NAMES]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.endswith("treecode")]
        elif isinstance(node, ast.Attribute) and node.attr in ("build", "match"):
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []


def test_kernel_is_imported_only_where_it_is_asked_for():
    """The kernel analyses an input; no solver or generator builds one, and
    the chain lemma lives beside the chain format it reads.  In the package
    only the CLI (``stiso kernel``), the public API and the oracle import
    from ``kernel``: the oracle enumerates one edge per kernel chain, and
    since no solver reads the kernel, it still shares no search with them."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "kernel":
                if path.name not in ("cli.py", "__init__.py", "oracle.py"):
                    names = sorted(alias.name for alias in node.names)
                    found.append(f"{path.name}:{node.lineno} {names}")
            elif isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name.endswith("kernel")]
    assert found == []


def test_undirected_solver_has_no_rooting_policy():
    """The undirected solver searches from the root it is given and roots a
    plain target at a vertex of maximum degree, so no centre finder returns to
    it: ``undirected.py`` neither imports nor names ``tree_centers``, the one
    centre finder."""
    path = SRC / "undirected.py"
    centre_finders = {"tree_centers"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"{node.lineno} {a.name}" for a in node.names if a.name in centre_finders]
        elif isinstance(node, ast.Name) and node.id in centre_finders:
            found.append(f"{node.lineno} {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in centre_finders:
            found.append(f"{node.lineno} .{node.attr}")
    assert found == []


ROOT = SRC.parent.parent
READERS = [
    *(p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _public_names() -> list[tuple[str, str]]:
    """Every public module-level function and class of the package, and every
    public method and annotated field of its classes, as ``(shown, name)``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.append((node.name, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    found.append((f"{node.name}.{name}", name))
    return found


def _names_read() -> tuple[set[str], set[str]]:
    """Every name the readers load, as a variable or an attribute, import, or
    spell out as a string constant (perfbench reads stats fields by name);
    and the names they load as an attribute or spell out alone."""
    names: set[str] = set()
    members: set[str] = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                members.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                members.add(node.value)
    return names | members, members


def test_every_public_name_has_a_reader():
    """The public surface is what a caller needs: every public function,
    class, method and record field of the package is read by the package
    itself (its ``__init__`` exports do not count), by the benchmark, or by
    the acceptance suite.  A name only other tests read is not a caller's.
    A method or field counts as read only when a reader loads it as an
    attribute or names it in a string: a local or an import of the same
    name is not a read of the member."""
    read, members = _names_read()
    unread = [
        shown for shown, name in _public_names() if name not in (members if "." in shown else read)
    ]
    assert unread == []
