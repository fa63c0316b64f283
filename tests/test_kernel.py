import random

import pytest

from stiso import (
    KernelError,
    UGraph,
    gen_instance,
    GenSpec,
    make_contractible,
)

from util import FIGURE_EIGHT, THETA, complete, cycle


def test_k4_is_its_own_core():
    k4 = complete(4)
    kern = make_contractible(k4)
    assert kern.graph.n == 4 and kern.graph.m == 6
    assert kern.delta == (0, 1, 2, 3)
    assert all(len(c.vertices) == 2 for c in kern.chains)
    assert kern.graph.n == 2 * 3 - 2  # tight at k = 3


def test_theta_contracts_to_two_vertices():
    kern = make_contractible(THETA)
    assert kern.graph.n == 2 and kern.graph.m == 3
    assert sorted(kern.anchors) == [0, 1]
    assert [c.vertices for c in kern.chains] == [(0, 2, 1), (0, 3, 1), (0, 4, 1)]
    assert [c.edge_ids for c in kern.chains] == [(0, 1), (2, 3), (4, 5)]


def test_figure_eight_contracts_to_two_loops():
    kern = make_contractible(FIGURE_EIGHT)
    assert kern.graph.n == 1 and kern.graph.m == 2
    assert sorted(kern.anchors) == [0]
    assert kern.graph.edges == ((0, 0), (0, 0))
    assert [c.vertices for c in kern.chains] == [(0, 2, 1, 0), (0, 4, 3, 0)]
    assert [c.edge_ids for c in kern.chains] == [(2, 1, 0), (5, 4, 3)]


def test_chain_of_bounds():
    kern = make_contractible(THETA)
    assert kern.chain_of(0).vertices == (0, 2, 1)
    with pytest.raises(KeyError):
        kern.chain_of(3)


def test_rejects_low_surplus_and_disconnection():
    with pytest.raises(KernelError):
        make_contractible(cycle(5))  # k = 1
    with pytest.raises(KernelError):
        make_contractible(UGraph(4, [(0, 1), (2, 3)]))


def _random_connected(n, k, seed):
    return gen_instance(GenSpec(n=n, k=k, seed=seed, mode="random", directed=False)).graph


@pytest.mark.parametrize("seed", range(40))
def test_core_invariants_random(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 40)
    k = rng.randint(2, 6)
    g = _random_connected(n, k, seed)
    kern = make_contractible(g, audit=True)
    core = kern.graph
    assert core.n >= 1
    assert min(core.degree(v) for v in range(core.n)) >= 3
    assert core.n <= 2 * k - 2
    assert core.m == core.n + k - 1
    # every reduction step preserved |E| - |V|
    for _, _, nv, ne in kern.steps:
        assert ne - nv == k - 1
    # chains: disjoint interiors, anchor endpoints, pendant edges in none
    seen_interiors = set()
    used_edges = []
    for chain in kern.chains:
        assert chain.vertices[0] in kern.anchors and chain.vertices[-1] in kern.anchors
        for v in chain.interior:
            assert v not in kern.anchors
            assert v not in seen_interiors
            seen_interiors.add(v)
        assert len(chain.edge_ids) == len(chain.vertices) - 1
        for i, eid in enumerate(chain.edge_ids):
            assert set(g.endpoints(eid)) == {chain.vertices[i], chain.vertices[i + 1]}
        used_edges.extend(chain.edge_ids)
    assert len(used_edges) == len(set(used_edges))  # each original edge in <= 1 chain


def test_core_is_idempotent():
    for seed in range(10):
        g = _random_connected(20, 4, seed)
        kern = make_contractible(g)
        again = make_contractible(kern.graph, audit=True)
        assert again.steps == ()  # already reduced: zero steps
        assert again.graph.n == kern.graph.n and again.graph.m == kern.graph.m


def test_audit_off_by_default():
    kern = make_contractible(THETA)
    assert kern.steps is None


def test_trim_forest_of_pendant_path():
    # THETA with the path 0-5-6 hung on anchor 0: 6 is trimmed first, then 5
    g = UGraph(7, list(THETA.edges) + [(0, 5), (5, 6)])
    kern = make_contractible(g)
    assert kern.trim_order == (6, 5)
    assert kern.trim_parent == (-1, -1, -1, -1, -1, 0, 5)
    assert make_contractible(THETA).trim_order == ()


def test_trim_forest_invariants_random():
    trimmed = 0
    for seed in range(40):
        rng = random.Random(seed)
        g = _random_connected(rng.randint(6, 40), rng.randint(2, 6), seed)
        kern = make_contractible(g)
        core = set(kern.anchors) | {v for c in kern.chains for v in c.interior}
        assert sorted(kern.trim_order) == sorted(set(range(g.n)) - core)
        position = {v: i for i, v in enumerate(kern.trim_order)}
        for v in range(g.n):
            parent = kern.trim_parent[v]
            if v in core:
                assert parent == -1
                continue
            assert parent in g.neighbors(v)
            # a child is trimmed before its parent, and parent chains reach the core
            assert parent in core or position[parent] > position[v]
            x, hops = v, 0
            while x not in core:
                x = kern.trim_parent[x]
                hops += 1
                assert hops <= g.n
        trimmed += len(kern.trim_order)
    assert trimmed > 0
