import gc
import heapq
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from stiso import (
    DiGraph,
    GraphFormatError,
    UGraph,
    gen_tree,
    parse_graph,
    reachable_all,
)

from stiso import graphs
from stiso.graphs import degree_gap, degrees_cover, roots_reaching_all
from util import chorded_path, complete, cycle, path, reference_incidence, reference_parse, star


def test_parse_undirected_path():
    g = parse_graph("3 2 U\n0 1\n1 2")
    assert isinstance(g, UGraph)
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))


def test_parse_directed_triangle():
    d = parse_graph("3 3 D\n0 1\n1 2\n2 0")
    assert isinstance(d, DiGraph)
    assert d.arcs == ((0, 1), (1, 2), (2, 0))


def test_parse_rejects_self_loop():
    with pytest.raises(GraphFormatError):
        parse_graph("2 1 U\n0 0")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError):
        parse_graph("3 2 U\n0 1\n1 0")


def test_parse_allows_antiparallel_arcs():
    d = parse_graph("2 2 D\n0 1\n1 0")
    assert d.arcs == ((0, 1), (1, 0))


def test_parse_rejects_duplicate_arc():
    with pytest.raises(GraphFormatError):
        parse_graph("2 2 D\n0 1\n0 1")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3 2\n0 1\n1 2",
        "3 2 X\n0 1\n1 2",
        "3 2 U\n0 1",
        "3 2 U\n0 1\n1 2\n2 0",
        "3 2 U\n0 3\n1 2",
        "3 2 U\n0 one\n1 2",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_parse_skips_comments_and_blank_lines():
    g = parse_graph("# header\n3 2 U\n\n0 1  # first\n1 2\n")
    assert g.edges == ((0, 1), (1, 2))


def test_roundtrip_examples():
    for g in (path(4), cycle(5), star(6), complete(4)):
        assert parse_graph(g.serialize()) == g
    d = DiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    assert parse_graph(d.serialize()) == d


@given(st.integers(2, 30), st.integers(0, 2**63 - 1))
def test_roundtrip_random_trees(n, seed):
    g = gen_tree(n, seed)
    assert parse_graph(g.serialize()) == g


def _fields(g: UGraph | DiGraph) -> tuple:
    if isinstance(g, UGraph):
        return ("U", g.n, g.edges, g.incidence, g.is_multigraph)
    return ("D", g.n, g.arcs, g.out_inc, g.in_inc)


def _parsed(parse, text: str) -> tuple:
    try:
        return _fields(parse(text))
    except GraphFormatError as exc:
        return ("error", str(exc))


# tokens the line-by-line path treats differently from plain ASCII digits:
# int() takes signs, underscores, leading zeros and non-ASCII digits
ODD_TOKENS = st.sampled_from(["+1", "1_0", "-1", "\u0663", "007", "x", "0", "9", "U", "D", "#"])


@st.composite
def format_texts(draw) -> str:
    """Graph texts built from the format's pieces, some of them perturbed; about
    half are laid out as ``serialize`` writes them, comments first."""
    n = draw(st.integers(0, 5))
    ends = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=6))
    m = len(pairs) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    rows = [[str(n), str(m), draw(st.sampled_from("UD"))]] + [[str(u), str(v)] for u, v in pairs]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        if action == "insert" or not row:
            row.insert(draw(st.integers(0, len(row))), draw(ODD_TOKENS))
        elif action == "replace":
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_TOKENS)
        else:
            del row[draw(st.integers(0, len(row) - 1))]
    plain = not draw(st.booleans())
    spacing = st.just(" ") if plain else st.sampled_from([" ", "\t", "  "])
    lines = draw(st.lists(st.sampled_from(["# n=5 m=4 type=U k=0", "", " \t", "#"]), max_size=2))
    for row in rows:
        line = draw(spacing).join(row)
        if not plain and draw(st.integers(0, 4)) == 0:
            line += " # inline"
        lines.append(line)
        if not plain and draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "#", "# comment", " # indented"])))
    eol = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if plain or draw(st.booleans()) else "")


@given(format_texts())
def test_parse_matches_the_line_by_line_reference(text):
    assert _parsed(parse_graph, text) == _parsed(reference_parse, text)


def _leading_zeros(m: int, kind: str) -> str:
    """Plain text with ``00``, ``03`` and ``007`` among its ``m`` edge lines."""
    n = m + 8
    rows = ["00 1", "03 007"] + [f"{v} {v + 1}" for v in range(8, m + 6)]
    return f"# n={n}\n{n} {m} {kind}\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "text",
    [
        "2 1 U\n\u0660 1\n",  # a non-ASCII zero, which int() reads
        "2 1 U\n+0 1\n",
        "1_0 1 U\n0 1\n",
        "2 1 D\r\n0 1\r\n",
        "# c\x85 2 1 U\n2 1 U\n0 1\n",  # the comment ends at NEL, as splitlines has it
        "2 1 U\n0 1",
        "2 1 U\n# a comment after the header\n0 1\n",
        "2 2 U\n0 1\n",
        "2 0 U\n0 1\n",
        "2 1 U\n" + "9" * 5000 + " 1\n",  # past int()'s digit limit
        "3 2 U\n0 3\n1 2\n",
        "3 2 D\n0 1\n0 1\n",
        # leading zeros, which JSON refuses and int() reads, short and long
        *(_leading_zeros(m, kind) for m in (3, graphs._BULK_MIN + 6) for kind in "UD"),
    ],
)
def test_parse_edge_cases_match_the_reference(text):
    assert _parsed(parse_graph, text) == _parsed(reference_parse, text)


def test_serialized_instances_take_the_one_pass_path(monkeypatch):
    from stiso import GenSpec, gen_instance

    graphs_out = [UGraph(0, []), UGraph(1, []), DiGraph(1, []), path(2)]
    for seed in range(12):
        for n in (5, 40):
            spec = GenSpec(n=n, k=seed % 5, seed=seed, mode="planted-yes" if seed % 2 else "random",
                           directed=seed % 3 == 0)
            inst = gen_instance(spec)
            graphs_out += [inst.graph, inst.target_graph]
    texts = [g.serialize() for g in graphs_out]

    def refuse(text):
        raise AssertionError("line-by-line path taken")

    monkeypatch.setattr(graphs, "_parse_lines", refuse)
    for g, text in zip(graphs_out, texts):
        assert _fields(parse_graph(text)) == _fields(g)
    with pytest.raises(AssertionError, match="line-by-line"):
        parse_graph(texts[-1].replace("\n", "\r\n"))


def _long_faulty_text(kind: str, fault: str, at: int) -> tuple[str, int]:
    """Plain text of a path on ``_BULK_MIN + 6`` edge lines, with edge line
    ``at`` replaced by one fault, and the edge line that a check of one edge
    at a time finds at fault."""
    m = graphs._BULK_MIN + 6
    n = m + 1
    rows = [(v, v + 1) for v in range(m)]
    u, v = rows[at]
    other = (at + 7) % m  # the line a duplicate copies, which may come later
    rows[at] = {
        "range": (u, n + at % 3),
        "loop": (u, u),
        "dup": rows[other],
        "reversed": rows[other][::-1],
        "antiparallel": (v, u),
    }[fault]
    if fault in ("dup", "reversed"):
        at = max(at, other)
    elif fault == "antiparallel":  # the edge it reverses stays too: m + 1 lines
        rows.insert(at, (u, v))
        at += 1
    body = "".join(f"{a} {b}\n" for a, b in rows)
    return f"# n={n}\n{n} {len(rows)} {kind}\n{body}", at


@pytest.mark.parametrize("kind, fault", [
    ("U", "range"), ("D", "range"), ("U", "loop"), ("D", "loop"), ("U", "dup"), ("D", "dup"),
    ("U", "reversed"), ("D", "reversed"), ("U", "antiparallel"), ("D", "antiparallel"),
])
def test_long_faulty_texts_match_the_reference(kind, fault, monkeypatch):
    """Texts past the whole-list checks' crossover, each with one fault at
    the start, in the middle or at the end, go the one-pass path and end as
    the line-by-line reference ends: a reversed edge is a duplicate only in
    an undirected graph, and an antiparallel arc pair is accepted."""
    accepted = (kind, fault) in (("D", "reversed"), ("D", "antiparallel"))
    word = {"range": "endpoint out of range", "loop": "is a self-loop", "dup": "duplicates",
            "reversed": "duplicates", "antiparallel": "duplicates"}[fault]
    places = (0, graphs._BULK_MIN // 2, graphs._BULK_MIN + 5)
    texts = [_long_faulty_text(kind, fault, at) for at in places]
    expected = [_parsed(reference_parse, text) for text, _ in texts]

    def refuse(text):
        raise AssertionError("line-by-line path taken")

    monkeypatch.setattr(graphs, "_parse_lines", refuse)
    for (text, line), want in zip(texts, expected):
        got = _parsed(parse_graph, text)
        assert got == want, text
        if accepted:
            assert got[0] == kind and len(got[2]) >= graphs._BULK_MIN + 6
        else:
            what = "edge" if kind == "U" else "arc"
            assert got[0] == "error" and got[1].startswith(f"{what} {line} {word}"), got


def _built(n, pairs, kind) -> tuple:
    try:
        if kind == "D":
            return _fields(DiGraph(n, pairs))
        return _fields(UGraph(n, pairs) if kind == "U" else UGraph.multigraph(n, pairs))
    except Exception as exc:  # the exception itself is compared
        return (type(exc), str(exc))


def _reference_built(n, pairs, kind) -> tuple:
    try:
        done = reference_incidence(n, pairs, directed=kind == "D", simple=kind != "multi")
    except Exception as exc:  # the exception itself is compared
        return (type(exc), str(exc))
    return ("D", n, *done) if kind == "D" else ("U", n, *done, kind == "multi")


def _faulty_pairs(rnd: random.Random) -> tuple[int, list]:
    """A random simple edge list with 0 to 3 faults injected at random places;
    about a third are long enough for the constructors' whole-list checks."""
    n = rnd.randint(1, 9) if rnd.random() < 0.67 else rnd.randint(30, 60)
    pairs: list = [(rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.randint(0, 3 * n))]
    pairs = base = [p for i, p in enumerate(pairs) if p[0] != p[1] and p not in pairs[:i]]
    for _ in range(rnd.randint(0, 3)):
        u, v = rnd.randrange(n), rnd.randrange(n)
        fault = rnd.choice(["range", "negative", "loop", "dup", "reversed", "arity", "list"])
        if fault == "range":
            bad = (n + rnd.randrange(3), v) if rnd.random() < 0.5 else (u, n + rnd.randrange(3))
        elif fault == "negative":
            bad = (-1 - rnd.randrange(3), v) if rnd.random() < 0.5 else (u, -1 - rnd.randrange(3))
        elif fault == "loop":
            bad = (u, u)
        elif fault in ("dup", "reversed") and base:
            a, b = rnd.choice(base)
            bad = (a, b) if fault == "dup" else (b, a)
        elif fault == "arity":
            bad = rnd.choice([(u,), (u, v, u), ()])
        else:
            bad = [u, v]  # a list is taken like a tuple
        pairs = pairs[:] if pairs is base else pairs
        pairs.insert(rnd.randint(0, len(pairs)), bad)
    return n, pairs


def test_constructors_match_the_per_edge_reference():
    rnd = random.Random(20261019)
    raised = set()
    for _ in range(3000):
        n, pairs = _faulty_pairs(rnd)
        long = len(pairs) >= graphs._BULK_MIN
        for kind in ("U", "D", "multi"):
            got = _built(n, pairs, kind)
            assert got == _reference_built(n, pairs, kind), (n, pairs, kind)
            if isinstance(got[0], type):
                raised.add((long, kind, got[0], got[1].split()[2] if kind != "multi" else ""))
    # every kind of fault was met by every constructor that rejects it, in short and long lists
    for long in (False, True):
        for kind in ("U", "D"):
            words = {w for g, k, t, w in raised if (g, k, t) == (long, kind, GraphFormatError)}
            assert words == {"endpoint", "is", "duplicates"}, (long, kind, words)
            assert (long, kind, ValueError, "values") in raised  # wrong arity: a failed unpacking
        assert (long, "multi", GraphFormatError, "") in raised
    chain_70 = [(i, i + 1) for i in range(70)]
    odd_lists = [(-1, []), (-1, [(0, 1)]), (3, [(0, "1")]), (3, [(0, 1), 7])]
    odd_lists += [(71, chain_70 + [(0, "1")]), (71, chain_70 + [7]), (71, chain_70 + [(0, 1.5)])]
    for n, pairs in odd_lists:
        for kind in ("U", "D", "multi"):
            assert _built(n, pairs, kind) == _reference_built(n, pairs, kind), (n, pairs[-1], kind)
    assert UGraph.multigraph(2, [(0, 0), (0, 1), (1, 0)]).incidence == (
        ((0, 0), (0, 0), (1, 1), (2, 1)), ((1, 0), (2, 0)))


def test_underlying_equals_the_multigraph_constructor():
    """Equal up to the order of each vertex's edges: ``underlying`` lists its
    out-arcs, then its in-arcs, and does not sort them by id."""
    rnd = random.Random(5)
    for _ in range(300):
        n = rnd.randint(0, 15)
        d = _random_digraph(n, rnd.randint(0, min(n * (n - 1), 3 * n)), rnd) if n else DiGraph(0, [])
        want = UGraph.multigraph(d.n, list(d.arcs))
        got = d.underlying()
        assert (got.n, got.edges, got.is_multigraph) == (want.n, want.edges, want.is_multigraph)
        assert list(map(sorted, got.incidence)) == list(map(sorted, want.incidence))


def test_handshake_is_checked_on_construction():
    g = complete(5)
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m
    loopy = UGraph.multigraph(2, [(0, 0), (0, 1)])
    assert loopy.degree(0) == 3  # the loop counts twice


def test_reachable_all_examples():
    c4 = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert reachable_all(c4, 0)
    p3 = DiGraph(3, [(0, 1), (1, 2)])
    assert not reachable_all(p3, 2)
    d = DiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    assert reachable_all(d, 1)  # 1 -> 2 -> 0


def _random_digraph(n: int, m: int, rnd: random.Random, base=()) -> DiGraph:
    arcs = list(base)
    seen = set(arcs)
    while len(arcs) < m:
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            arcs.append((u, v))
    return DiGraph(n, arcs)


def _per_root(d: DiGraph) -> list[bool]:
    return [reachable_all(d, r) for r in range(d.n)]


def _source_kind(d: DiGraph) -> str:
    sources = [v for v in range(d.n) if d.in_degree(v) == 0]
    if len(sources) == 1:
        return "one reaching all" if reachable_all(d, sources[0]) else "one short"
    return "none" if not sources else "several"


def test_roots_reaching_all_matches_per_root_search():
    """Digraphs with no in-degree-0 vertex, one that reaches all, one that does
    not, and two or more, each against a search from every root."""
    rnd = random.Random(20261018)
    admissible_seen = 0
    kinds = Counter()
    for _ in range(400):
        n = rnd.randint(1, 12)
        m = rnd.randint(0, min(n * (n - 1), 3 * n))
        d = _random_digraph(n, m, rnd)
        assert roots_reaching_all(d) == _per_root(d)
        admissible_seen += any(roots_reaching_all(d))
        kinds[_source_kind(d)] += 1
    assert admissible_seen > 50
    assert roots_reaching_all(DiGraph(0, [])) == []
    # an arborescence plus arcs that avoid its root: the root alone reaches all
    for n in range(2, 15):
        tree = [(rnd.randrange(v), v) for v in range(1, n)]
        d = _random_digraph(n, min(n * (n - 1) - (n - 1), n + 3), rnd, base=tree)
        d = DiGraph(n, [a for a in d.arcs if a[1] != 0])
        kinds[_source_kind(d)] += 1
        assert roots_reaching_all(d) == [True] + [False] * (n - 1) == _per_root(d)
    # the source 0 feeds the ring 1..a; the ring a+1..n-1 feeds that one, unseen
    for n in range(5, 15):
        a = rnd.randint(2, n - 3)
        rings = [(v, v % a + 1) for v in range(1, a + 1)]
        rings += [(v, a + 1 + (v - a) % (n - a - 1)) for v in range(a + 1, n)]
        d = DiGraph(n, [(0, 1), *rings, (rnd.randint(a + 1, n - 1), rnd.randint(1, a))])
        kinds[_source_kind(d)] += 1
        assert roots_reaching_all(d) == [False] * n == _per_root(d)
    assert min(kinds[k] for k in ("none", "one reaching all", "one short", "several")) >= 20, kinds


def test_roots_reaching_all_strongly_connected():
    rnd = random.Random(7)
    for n in range(2, 15):
        ring = [(i, (i + 1) % n) for i in range(n)]
        d = _random_digraph(n, min(n * (n - 1), n + rnd.randint(0, n)), rnd, base=ring)
        assert roots_reaching_all(d) == [True] * n == _per_root(d)


def test_roots_reaching_all_two_source_components():
    # cycles {0,1,2} and {3,4} both feed 5 -> 6; nothing reaches both cycles
    d = DiGraph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (2, 5), (4, 5), (5, 6)])
    assert roots_reaching_all(d) == [False] * 7 == _per_root(d)
    rnd = random.Random(11)
    for _ in range(50):
        # sources 0 and 1 have no in-arcs, so no vertex reaches both
        n = rnd.randint(4, 12)
        rest = [(u, v) for u in range(n) for v in range(2, n) if u != v]
        arcs = rnd.sample(rest, rnd.randint(2, len(rest)))
        d = DiGraph(n, arcs)
        assert roots_reaching_all(d) == [False] * n == _per_root(d)


def test_roots_reaching_all_cycle_through_arborescence_root():
    # out-arborescence 0->1->2, 0->3->4 plus the arc 2->0 closing a cycle
    # through the root: exactly the cycle {0, 1, 2} reaches every vertex
    d = DiGraph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 0)])
    assert roots_reaching_all(d) == [True, True, True, False, False] == _per_root(d)


def test_bfs_order_and_parent():
    # a square 0-1-3-2 with the tail 3-4, and 5 unreached
    g = UGraph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    assert graphs.bfs(g.incidence, 0) == ([0, 1, 2, 3, 4], [-1, 0, 0, 1, 3, -1])
    assert graphs.bfs(g.incidence, 3) == ([3, 1, 2, 4, 0], [1, 3, 3, -1, 3, -1])
    assert graphs.bfs(g.incidence, 5) == ([5], [-1] * 6)
    # skipping an edge reaches around it; skipping both sides of the square cuts it
    assert graphs.bfs(g.incidence, 0, {0}) == ([0, 2, 3, 1, 4], [-1, 3, 0, 2, 3, -1])
    assert graphs.bfs(g.incidence, 0, frozenset({0, 1})) == ([0], [-1] * 6)
    # parallel edges: skipping one of two leaves the other
    m = UGraph.multigraph(3, [(0, 1), (0, 1), (1, 2), (2, 2)])
    assert graphs.bfs(m.incidence, 0, {0}) == ([0, 1, 2], [-1, 0, 1])
    assert graphs.bfs(m.incidence, 0, {0, 1}) == ([0], [-1, -1, -1])
    assert graphs.bfs(m.incidence, 2, {1}) == ([2, 1, 0], [1, 2, -1])
    # arcs are followed tail to head only
    d = DiGraph(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
    assert graphs.bfs(d.out_inc, 1) == ([1, 2, 0], [2, -1, 1, -1])
    assert graphs.bfs(d.out_inc, 1, {1}) == ([1], [-1] * 4)
    assert graphs.bfs(d.in_inc, 0) == ([0, 2, 3, 1], [-1, 2, 0, 0])


def test_relabeled_rejects_non_permutation():
    with pytest.raises(GraphFormatError):
        path(3).relabeled([0, 0, 1])


degree_lists = st.lists(st.integers(0, 8), max_size=40)


@given(degree_lists, degree_lists)
def test_degree_gap_matches_counter_subtract(have, want):
    reference = Counter(want)
    reference.subtract(have)
    assert degree_gap(have, iter(want)) == {x: c for x, c in reference.items() if c}


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40))
def test_degrees_cover_compares_sorted_places(pairs):
    have, want = [h for h, _ in pairs], [w for _, w in pairs]
    by_place = all(map(int.__ge__, sorted(have), sorted(want)))
    assert degrees_cover(degree_gap(have, want)) == by_place


@given(st.lists(st.tuples(st.integers(1, 8), st.integers(0, 3)), min_size=1, max_size=40), st.randoms())
def test_cover_bounds_the_histogram_distance(pairs, rnd):
    """Degrees that cover place by place and sum to 2k more differ by at most
    4k in L1: at most 2k places differ, each by two counts."""
    want = [w for w, _ in pairs]
    have = [w + extra for w, extra in pairs]
    rnd.shuffle(have)
    gap = degree_gap(have, want)
    assert degrees_cover(gap)
    assert sum(map(abs, gap.values())) <= 2 * (sum(have) - sum(want))


@pytest.mark.parametrize("enabled", [True, False])
def test_entry_points_leave_the_collector_as_they_found_it(enabled):
    """``parse_graph`` and both solvers run with the cyclic collector paused
    and restore it on a return and on a raise; a collector the caller had
    disabled stays disabled."""
    from stiso import NotATreeError, solve_directed, solve_undirected, target_tree_from_digraph

    was = gc.isenabled()
    inside: list[bool] = []

    def seen(_line: str) -> None:
        inside.append(gc.isenabled())

    try:
        gc.enable() if enabled else gc.disable()
        g = parse_graph(complete(4).serialize())
        d = parse_graph("4 5 D\n0 1\n1 2\n2 3\n0 2\n1 3\n")
        assert gc.isenabled() is enabled
        assert solve_undirected(g, path(4), trace=seen).is_yes
        assert gc.isenabled() is enabled
        target = target_tree_from_digraph(DiGraph(4, [(0, 1), (1, 2), (2, 3)]))
        assert solve_directed(d, target, trace=seen).is_yes
        assert gc.isenabled() is enabled
        assert inside and not any(inside)
        with pytest.raises(GraphFormatError):
            parse_graph("3 1 U\n0 0\n")
        assert gc.isenabled() is enabled
        with pytest.raises(NotATreeError):
            solve_undirected(g, cycle(4))
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="vertex counts differ"):
            solve_undirected(g, path(5))
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def _heap_peel(g: UGraph) -> tuple[list[int], list[int], list[int]]:
    """``peel_leaves`` as a lowest-id heap pops it: always the smallest leaf."""
    deg = [len(pairs) for pairs in g.incidence]
    alive = [True] * g.n
    order, parent = [], [-1] * g.n
    heap = [v for v in range(g.n) if deg[v] == 1]
    while heap:
        v = heapq.heappop(heap)
        if not alive[v] or deg[v] != 1:
            continue
        u = next(w for _, w in g.incidence[v] if alive[w])
        alive[v] = False
        order.append(v)
        parent[v] = u
        deg[u] -= 1
        if deg[u] == 1:
            heapq.heappush(heap, u)
    return order, parent, deg


def _peel_grid(rnd: random.Random):
    """Seeded graphs the kernel's own check never sees: trees, unicyclic and
    disconnected graphs, multigraphs with loops and parallel edges, and
    relabelled chorded paths with pendant trees."""
    for _ in range(400):
        n = rnd.randint(1, 40)
        tree = [(rnd.randrange(v), v) for v in range(1, n)]
        yield "tree", n, tree
        if n >= 3:
            u, v = rnd.sample(range(n), 2)
            if (u, v) not in tree and (v, u) not in tree:
                yield "unicyclic", n, tree + [(u, v)]
        cut = rnd.randint(0, n)  # the tree cut into pieces, isolated vertices among them
        yield "disconnected", n, [e for e in tree if rnd.random() < 0.7] + [
            (rnd.randrange(cut), rnd.randrange(cut)) for _ in range(rnd.randint(0, 2)) if cut
        ]
        extra = [(u, u) for u in rnd.sample(range(n), min(n, 2))]  # loops
        extra += [rnd.choice(tree) for _ in range(rnd.randint(0, 2)) if tree]  # parallel edges
        yield "multigraph", n, tree + extra
    for n in (7, 12, 30, 101):
        g = chorded_path(n)
        pendants = [(rnd.randrange(n + i), n + i) for i in range(rnd.randint(0, n))]
        yield "chorded path", n + len(pendants), list(g.edges) + pendants


def test_peel_matches_a_heap_reference():
    """The linear scan trims in the heap's order, with its parents and
    degrees, where the kernel's reference check cannot reach: a tree's
    surviving vertex, a unicyclic graph's cycle, every component of a
    disconnected graph, and loops and parallel edges."""
    rnd = random.Random(20261021)
    seen: Counter = Counter()
    for family, n, edges in _peel_grid(rnd):
        perm = list(range(n))
        rnd.shuffle(perm)
        for g in (UGraph.multigraph(n, edges), UGraph.multigraph(n, edges).relabeled(perm)):
            got = graphs.peel_leaves(g)
            assert got == _heap_peel(g), (family, g.n, g.edges)
            seen[family] += 1
            if family == "tree":  # one vertex survives, of degree 0
                survivors = [v for v in range(n) if got[1][v] == -1]
                assert len(survivors) == 1 and got[2][survivors[0]] == 0
    assert min(seen.values()) >= 8 and sum(seen.values()) >= 2500, seen
