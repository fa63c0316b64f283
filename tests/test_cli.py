import csv
import subprocess
import sys
from pathlib import Path

import pytest

from util import LEAFY_GRAPH_ARCS, LEAFY_TARGET_ARCS

HERE = Path(__file__).parent

C4 = "4 4 U\n0 1\n1 2\n2 3\n3 0\n"
P4 = "4 3 U\n0 1\n1 2\n2 3\n"
K13 = "4 3 U\n0 1\n0 2\n0 3\n"
THETA = "5 6 U\n0 2\n2 1\n0 3\n3 1\n0 4\n4 1\n"
DC4 = "4 4 D\n0 1\n1 2\n2 3\n3 0\n"
DP4 = "4 3 D\n0 1\n1 2\n2 3\n"
DK13 = "4 3 D\n0 1\n0 2\n0 3\n"
P5 = "5 4 U\n0 1\n1 2\n2 3\n3 4\n"
FAN = "4 5 U\n0 3\n1 3\n2 3\n0 1\n0 2\n"


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "stiso.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return tmp_path, write


def test_solve_yes_exit_zero(files):
    _, write = files
    res = run_cli("solve", "-g", write("g.txt", C4), "-t", write("t.txt", P4))
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "YES"


def test_solve_no_exit_one(files):
    _, write = files
    res = run_cli("solve", "-g", write("g.txt", C4), "-t", write("t.txt", K13))
    assert res.returncode == 1
    assert res.stdout.splitlines()[0] == "NO"


def test_degree_screen_no_on_the_cli(files):
    # C4 has no vertex of the star's degree 3: the degree screen says NO
    _, write = files
    args = ("solve", "-g", write("g.txt", C4), "-t", write("t.txt", K13))
    res = run_cli(*args)
    assert (res.returncode, res.stdout) == (1, "NO\n")
    assert res.stderr == "degree screen: the graph's degrees do not cover the target's\n"
    traced = run_cli(*args, "--trace")
    assert (traced.returncode, traced.stdout) == (1, "NO\n")
    assert traced.stderr == "screen=degrees fail:uncovered\n" + res.stderr


def test_out_degree_screen_no_on_the_cli(files):
    # every vertex of DC4 has out-degree 1, the out-star's root 3: the
    # out-degree screen says NO
    _, write = files
    args = ("solve", "-g", write("g.txt", DC4), "-t", write("t.txt", DK13), "--directed")
    res = run_cli(*args)
    assert (res.returncode, res.stdout) == (1, "NO\n")
    assert res.stderr == "out-degree screen: the graph's out-degrees do not cover the target's\n"
    traced = run_cli(*args, "--trace")
    assert (traced.returncode, traced.stdout) == (1, "NO\n")
    assert traced.stderr == "screen=out-degrees fail:uncovered\n" + res.stderr


def test_solve_cert_output(files):
    _, write = files
    res = run_cli("solve", "-g", write("g.txt", C4), "-t", write("t.txt", P4), "--cert")
    lines = res.stdout.splitlines()
    assert lines[0] == "YES"
    map_lines = [l for l in lines if l.startswith("map ")]
    assert len(map_lines) == 4
    assert lines[-1].startswith("removed ")


def test_solve_directed(files):
    _, write = files
    res = run_cli(
        "solve", "-g", write("g.txt", DC4), "-t", write("t.txt", DP4), "--directed", "--cert"
    )
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "YES"


def test_directed_flag_with_undirected_file_is_an_error(files):
    _, write = files
    res = run_cli("solve", "-g", write("g.txt", C4), "-t", write("t.txt", DP4), "--directed")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_directed_file_without_flag_is_an_error(files):
    _, write = files
    res = run_cli("solve", "-g", write("g.txt", DC4), "-t", write("t.txt", P4))
    assert res.returncode == 2


def test_missing_file_is_an_error(files):
    tmp, write = files
    res = run_cli("solve", "-g", str(tmp / "absent.txt"), "-t", write("t.txt", P4))
    assert res.returncode == 2


def test_non_arborescence_target_is_an_error(files):
    _, write = files
    bad = "3 2 D\n0 1\n2 1\n"
    res = run_cli("solve", "-g", write("g.txt", DC4[:0] + "3 3 D\n0 1\n1 2\n2 0\n"),
                  "-t", write("t.txt", bad), "--directed")
    assert res.returncode == 2


TRIANGLE_AND_POINT = "4 3 U\n0 1\n1 2\n2 0\n"


@pytest.mark.parametrize(
    "graph", [K13, "4 2 U\n0 1\n2 3\n", C4], ids=["screened", "disconnected", "connected"]
)
@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["solver", "oracle"])
def test_target_that_is_not_a_tree_is_an_error(files, capsys, graph, oracle):
    from stiso.cli import main

    _, write = files
    args = ["solve", "-g", write("g.txt", graph), "-t", write("t.txt", TRIANGLE_AND_POINT), *oracle]
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: not a tree")


# far below the 8 GB or more that 10**9 empty incidence lists take
_ADDRESS_SPACE_LIMIT = 400 * 2**20


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE_LIMIT, _ADDRESS_SPACE_LIMIT))


@pytest.mark.parametrize("kind, flags, message", [
    ("U", [], "error: not a tree: n={n}, m=0"),
    ("D", ["--directed"], "error: underlying graph is not a tree"),
])
def test_header_only_texts_are_refused_in_bounded_memory(files, kind, flags, message):
    """A header-only text parses in O(1) memory, and ``stiso solve`` refuses
    a 10**9-vertex target on its edge count before any Theta(n) work, with
    the message a 10-vertex one gets.  Each run is under an address-space
    limit that 10**9 empty lists would break, so a regression ends in a
    MemoryError, not in exhausting the host."""
    _, write = files
    for n in (10, 10**9):
        text = f"{n} 0 {kind}\n"
        res = subprocess.run(
            [sys.executable, "-m", "stiso.cli", "solve",
             "-g", write("g.txt", text), "-t", write("t.txt", text), *flags],
            capture_output=True, text=True, timeout=10, preexec_fn=_limit_address_space,
        )
        assert (res.returncode, res.stdout, res.stderr) == (2, "", message.format(n=n) + "\n"), n


@pytest.mark.parametrize("kind", ["U", "D"])
def test_header_only_kernel_texts_are_refused_in_bounded_memory(files, kind):
    """``stiso kernel`` refuses a header-only graph on its counts, m < n - 1,
    before any incidence list or a digraph's underlying graph is built: a
    10**9-vertex text gets the 10-vertex text's message, under the same
    address-space limit."""
    _, write = files
    for n in (10, 10**9):
        res = subprocess.run(
            [sys.executable, "-m", "stiso.cli", "kernel", "-g", write("g.txt", f"{n} 0 {kind}\n")],
            capture_output=True, text=True, timeout=10, preexec_fn=_limit_address_space,
        )
        assert (res.returncode, res.stdout, res.stderr) == (
            2, "", "error: kernelization requires a connected graph\n"
        ), n


def test_undirected_verdict_roots_the_target_once(files, monkeypatch):
    # the CLI passes the tree as read, and the solver roots it once, at its
    # smallest-id vertex of maximum degree: a screened NO and a YES each walk
    # it once, and neither finds its centres
    from stiso import treecode
    from stiso.cli import main

    real_order, real_centers = treecode._rooted_order, treecode.tree_centers
    rootings, centres = [], []

    def counted_order(tree, root):
        rootings.append((tree.edges, root))
        return real_order(tree, root)

    def counted_centers(tree):
        centres.append(tree.edges)
        return real_centers(tree)

    monkeypatch.setattr(treecode, "_rooted_order", counted_order)
    monkeypatch.setattr(treecode, "tree_centers", counted_centers)
    _, write = files
    g = write("g.txt", C4)
    assert main(["solve", "-g", g, "-t", write("t.txt", K13)]) == 1
    assert rootings == [(((0, 1), (0, 2), (0, 3)), 0)]
    rootings.clear()
    assert main(["solve", "-g", g, "-t", write("t.txt", P4)]) == 0
    assert rootings == [(((0, 1), (1, 2), (2, 3)), 1)]
    assert centres == []


def test_oracle_route(files):
    _, write = files
    res = run_cli("solve", "-g", write("g.txt", C4), "-t", write("t.txt", P4), "--oracle")
    assert res.returncode == 0 and res.stdout.splitlines()[0] == "YES"


def test_trace_goes_to_stderr(files):
    _, write = files
    res = run_cli("solve", "-g", write("g.txt", THETA), "-t", write("t.txt", "5 4 U\n0 1\n1 2\n2 3\n3 4\n"), "--trace")
    assert res.returncode == 0
    assert "root=" in res.stderr
    assert "root=" not in res.stdout


def test_trace_at_k1(files):
    # the cycle C5 against P5 goes through the same search as any k
    _, write = files
    c5 = "5 5 U\n0 1\n1 2\n2 3\n3 4\n4 0\n"
    res = run_cli("solve", "-g", write("g.txt", c5), "-t", write("t.txt", P5), "--trace")
    assert (res.returncode, res.stdout) == (0, "YES\n")
    assert res.stderr.startswith("troot=")


def test_fallback_flag_has_no_effect(files):
    _, write = files
    for graph, target in ((THETA, P5), (FAN, K13)):
        g, t = write("g.txt", graph), write("t.txt", target)
        args = ("solve", "-g", g, "-t", t, "--cert", "--trace")
        plain = run_cli(*args)
        flagged = run_cli(*args, "--fallback")
        assert plain.returncode == 0 and plain.stdout.splitlines()[0] == "YES"
        assert (plain.stdout, plain.stderr, plain.returncode) == (
            flagged.stdout,
            flagged.stderr,
            flagged.returncode,
        )


def test_explain_prints_codes_on_stderr(files):
    _, write = files
    res = run_cli("solve", "-g", write("g.txt", C4), "-t", write("t.txt", P4), "--explain")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["YES"]
    lines = res.stderr.splitlines()
    target = next(l for l in lines if l.startswith("target-code "))
    witness = next(l for l in lines if l.startswith("witness-code "))
    assert target.split()[1] == witness.split()[1]


def test_explain_on_a_relabelled_long_path(files):
    """The codes of a 10^4-vertex path, relabelled against its target: equal,
    with the root's shorter branch printed first."""
    import random

    _, write = files
    n = 10**4
    perm = list(range(n))
    random.Random(1).shuffle(perm)
    header = f"{n} {n - 1} U\n"
    g = header + "".join(f"{perm[i]} {perm[i + 1]}\n" for i in range(n - 1))
    t = header + "".join(f"{i} {i + 1}\n" for i in range(n - 1))
    res = run_cli("solve", "-g", write("g.txt", g), "-t", write("t.txt", t), "--explain")
    assert (res.returncode, res.stdout) == (0, "YES\n"), res.stderr
    a, b = (n - 1) // 2, n // 2  # the branches below a centre
    code = "(" + "(" * a + ")" * a + "(" * b + ")" * b + ")"
    assert res.stderr == f"target-code {code}\nwitness-code {code}\n"


def test_explain_prints_directed_codes_on_stderr(files):
    _, write = files
    g = write("g.txt", "5 6 D\n0 1\n0 2\n2 3\n2 4\n1 3\n3 4\n")
    t = write("t.txt", "5 4 D\n3 1\n3 0\n0 2\n0 4\n")
    res = run_cli("solve", "-g", g, "-t", t, "--directed", "--explain")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["YES"]
    assert res.stderr == "target-code (()(()()))\nwitness-code (()(()()))\n"


def test_kernel_theta(files):
    _, write = files
    res = run_cli("kernel", "-g", write("g.txt", THETA))
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "2 3 U" in lines
    chain_lines = [l for l in lines if l.startswith("# chain ")]
    assert chain_lines == [
        "# chain 0 = 0 2 1",
        "# chain 1 = 0 3 1",
        "# chain 2 = 0 4 1",
    ]


def test_kernel_low_surplus_is_an_error(files):
    _, write = files
    res = run_cli("kernel", "-g", write("g.txt", C4))
    assert res.returncode == 2


def test_gen_writes_instance_and_is_deterministic(files):
    tmp, _ = files
    out1, out2 = str(tmp / "a"), str(tmp / "b")
    for out in (out1, out2):
        res = run_cli("gen", "--n", "8", "--k", "2", "--seed", "7", "--planted", "-o", out)
        assert res.returncode == 0
    for name in ("graph.txt", "target.txt", "manifest.txt"):
        assert (Path(out1) / name).read_bytes() == (Path(out2) / name).read_bytes()
    manifest = (Path(out1) / "manifest.txt").read_text()
    assert "mode=planted-yes" in manifest and "seed=7" in manifest


def test_gen_directed(files):
    tmp, _ = files
    out = str(tmp / "d")
    res = run_cli("gen", "--n", "7", "--k", "2", "--seed", "3", "--directed", "--planted", "-o", out)
    assert res.returncode == 0
    graph = (Path(out) / "graph.txt").read_text()
    assert " D" in graph.splitlines()[1]


def test_bench_compare_oracle(files):
    tmp, _ = files
    out = str(tmp / "bench.csv")
    res = run_cli(
        "bench", "--nmax", "6", "--kmax", "2", "--reps", "2", "--csv", out, "--compare-oracle"
    )
    assert res.returncode == 0, res.stderr
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "k", "mode", "seed", "solver", "verdict", "wall_time_micros", "work"]
    body = rows[1:]
    # two rows (fpt + oracle) per instance: n in {5,6} x k in {0,1,2} x 2 reps x {u,d}
    assert len(body) == 2 * 3 * 2 * 2 * 2
    assert {r[4] for r in body} == {"fpt", "oracle"}
    assert all(r[5] in ("YES", "NO") for r in body)


def test_bench_times_one_search_with_or_without_oracle(files):
    tmp, _ = files
    runs = []
    for extra in ((), ("--compare-oracle",)):
        out = str(tmp / "bench.csv")
        res = run_cli("bench", "--nmax", "7", "--kmax", "3", "--reps", "2", "--csv", out, *extra)
        assert res.returncode == 0, res.stderr
        with open(out) as fh:
            runs.append([(r[:6], r[7]) for r in csv.reader(fh) if r[4] == "fpt"])
    assert runs[0] == runs[1]


def test_bench_skips_infeasible_cells(files):
    # five vertices hold at most 6 undirected redundant edges but 16 arcs; the
    # skipped cell keeps its seed, so every other row keeps its own
    tmp, _ = files
    out = str(tmp / "bench.csv")
    res = run_cli("bench", "--nmax", "6", "--kmax", "7", "--reps", "1", "--csv", out)
    assert res.returncode == 0, res.stderr
    with open(out) as fh:
        cells = {(r[0], r[1], r[2]): r[3] for r in list(csv.reader(fh))[1:]}
    assert ("5", "7", "planted-yes-u") not in cells
    assert cells[("5", "7", "planted-yes-d")] == str(2 * 7 + 1)
    assert len(cells) == 2 * 8 * 2 - 1


def test_internal_error_exits_two(files, monkeypatch, capsys):
    # a YES that fails certification is an internal error, never a NO
    import stiso.undirected
    from stiso.cli import main

    monkeypatch.setattr(stiso.undirected, "certify_undirected", lambda *args: False)
    _, write = files
    code = main(["solve", "-g", write("g.txt", C4), "-t", write("t.txt", P4)])
    assert code == 2
    assert "internal error:" in capsys.readouterr().err


def test_failed_internal_check_is_an_internal_error(files, monkeypatch, capsys):
    # a failed internal check is a fault of the program, reported as such and
    # never as a user error
    import stiso.cli
    from stiso.cli import main

    def broken(spec):
        raise RuntimeError("internal check failed")

    monkeypatch.setattr(stiso.cli, "gen_instance", broken)
    tmp, _ = files
    args = ["gen", "--n", "8", "--k", "2", "--seed", "1", "--planted", "--directed", "-o", str(tmp)]
    assert main(args) == 2
    assert "internal error: RuntimeError" in capsys.readouterr().err


def test_oracle_on_a_long_directed_path(files):
    # the oracle's bijection search is not bounded by the recursion limit
    _, write = files
    dp = "600 599 D\n" + "".join(f"{i} {i + 1}\n" for i in range(599))
    args = ("solve", "-g", write("g.txt", dp), "-t", write("t.txt", dp), "--oracle", "--directed", "--cert")
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == "YES"


def test_oracle_on_a_root_with_many_leaves(files):
    # a k = 0 directed NO that the oracle answers without trying every order of the root's leaves
    _, write = files

    def text(arcs):
        return f"20 {len(arcs)} D\n" + "".join(f"{u} {v}\n" for u, v in arcs)

    g, t = write("g.txt", text(LEAFY_GRAPH_ARCS)), write("t.txt", text(LEAFY_TARGET_ARCS))
    res = run_cli("solve", "-g", g, "-t", t, "--oracle", "--directed", timeout=10)
    assert (res.returncode, res.stdout) == (1, "NO\n"), res.stderr
