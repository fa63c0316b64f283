import random

import pytest
from hypothesis import given, strategies as st

from stiso import (
    DiGraph,
    GraphFormatError,
    UGraph,
    gen_tree,
    parse_graph,
    reachable_all,
    redundant_size,
)

from stiso.graphs import cycle_edges, roots_reaching_all
from util import complete, cycle, path, star


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


def test_handshake_is_checked_on_construction():
    g = complete(5)
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m
    loopy = UGraph.multigraph(2, [(0, 0), (0, 1)])
    assert loopy.degree(0) == 3  # the loop counts twice


def test_redundant_size_examples():
    assert redundant_size(cycle(4)) == 1
    assert redundant_size(complete(4)) == 3
    assert redundant_size(path(7)) == 0
    assert redundant_size(star(5)) == 0


def test_redundant_size_rejects_disconnected():
    g = UGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        redundant_size(g)


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


def test_roots_reaching_all_matches_per_root_search():
    rnd = random.Random(20261018)
    admissible_seen = 0
    for _ in range(400):
        n = rnd.randint(1, 12)
        m = rnd.randint(0, min(n * (n - 1), 3 * n))
        d = _random_digraph(n, m, rnd)
        assert roots_reaching_all(d) == _per_root(d)
        admissible_seen += any(roots_reaching_all(d))
    assert admissible_seen > 50
    assert roots_reaching_all(DiGraph(0, [])) == []


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


def test_cycle_edges_unique_cycle():
    # triangle 1-2-3 with pendant path 0-1 and leaf 4 on 3
    g = UGraph(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)])
    assert cycle_edges(g) == [1, 2, 3]
    assert cycle_edges(cycle(6)) == list(range(6))
    # an antiparallel arc pair underlies a 2-cycle of parallel edges
    assert cycle_edges(UGraph.multigraph(3, [(0, 1), (1, 2), (2, 1)])) == [1, 2]


def test_cycle_edges_raises_on_two_extra_edges():
    g = UGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(RuntimeError, match="found 2"):
        cycle_edges(g)


def test_relabeled_rejects_non_permutation():
    with pytest.raises(GraphFormatError):
        path(3).relabeled([0, 0, 1])
