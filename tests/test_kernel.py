import heapq
import random

import pytest

from stiso import (
    AnchorChain,
    Kernel,
    KernelError,
    UGraph,
    gen_instance,
    GenSpec,
    make_contractible,
)

from util import FIGURE_EIGHT, THETA, chorded_path, complete, cycle, end_chord_path


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
        for v in chain.vertices[1:-1]:
            assert v not in kern.anchors
            assert v not in seen_interiors
            seen_interiors.add(v)
        assert len(chain.edge_ids) == len(chain.vertices) - 1
        for i, eid in enumerate(chain.edge_ids):
            assert set(g.edges[eid]) == {chain.vertices[i], chain.vertices[i + 1]}
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
        core = set(kern.anchors) | {v for c in kern.chains for v in c.vertices[1:-1]}
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


# The reducer as it ran before the two-pass kernel: one heap of leaves, one
# of degree-2 vertices, an edge per merge.  Copied unchanged.
def _heap_reducer(g: UGraph, audit: bool = False) -> Kernel:
    """The step-by-step reducer that the two-pass kernel replaced, kept as the reference."""
    k = g.m - (g.n - 1)
    if k < 2:
        raise KernelError(f"kernelization requires redundant size >= 2, got {k}")

    alive_v = bytearray([1] * g.n)
    inc: list[set[int]] = [set() for _ in range(g.n)]
    ends: dict[int, tuple[int, int]] = {}
    deg = [0] * g.n
    for eid, (u, v) in enumerate(g.edges):
        ends[eid] = (u, v)
        inc[u].add(eid)
        inc[v].add(eid)
        deg[u] += 1
        deg[v] += 1
    # chain paths for live edges, stored as (vertex path, original edge ids)
    chains: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
        eid: ((u, v), (eid,)) for eid, (u, v) in enumerate(g.edges)
    }
    next_eid = g.m
    n_alive, m_alive = g.n, g.m
    surplus = m_alive - n_alive
    steps: list[tuple[str, int, int, int]] = []
    trim_order: list[int] = []
    trim_parent = [-1] * g.n
    suppressed = False

    heap1 = [v for v in range(g.n) if deg[v] == 1]
    heap2 = [v for v in range(g.n) if deg[v] == 2]
    heapq.heapify(heap1)
    heapq.heapify(heap2)

    def orient(eid: int, start: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        path, eids = chains[eid]
        if path[0] == start:
            return path, eids
        return path[::-1], eids[::-1]

    def kill_edge(eid: int) -> None:
        nonlocal m_alive
        u, v = ends.pop(eid)
        inc[u].discard(eid)
        inc[v].discard(eid)
        deg[u] -= 1 if u != v else 2
        if u != v:
            deg[v] -= 1
        del chains[eid]
        m_alive -= 1

    def add_edge(u: int, v: int, chain: tuple[tuple[int, ...], tuple[int, ...]]) -> None:
        nonlocal next_eid, m_alive
        eid = next_eid
        next_eid += 1
        ends[eid] = (u, v)
        inc[u].add(eid)
        inc[v].add(eid)
        deg[u] += 1 if u != v else 2
        if u != v:
            deg[v] += 1
        chains[eid] = chain
        m_alive += 1

    def requeue(v: int) -> None:
        if alive_v[v]:
            if deg[v] == 1:
                heapq.heappush(heap1, v)
            elif deg[v] == 2:
                heapq.heappush(heap2, v)

    while True:
        v = -1
        op = ""
        while heap1:
            cand = heap1[0]
            if alive_v[cand] and deg[cand] == 1:
                v, op = cand, "trim"
                heapq.heappop(heap1)
                break
            heapq.heappop(heap1)
        if v == -1:
            while heap2:
                cand = heap2[0]
                if alive_v[cand] and deg[cand] == 2:
                    v, op = cand, "suppress"
                    heapq.heappop(heap2)
                    break
                heapq.heappop(heap2)
        if v == -1:
            break

        if op == "trim":
            if suppressed:
                raise RuntimeError("trim after a suppression: trim parent may not be a neighbour")
            (eid,) = inc[v]
            u = _other_end(ends[eid], v)
            trim_order.append(v)
            trim_parent[v] = u
            kill_edge(eid)
            alive_v[v] = 0
            n_alive -= 1
            requeue(u)
        else:
            suppressed = True
            eids = sorted(inc[v])
            if len(eids) == 1:
                # lone self-loop: drop vertex and loop together; unreachable
                # for surplus >= 2 on a connected graph, kept for totality
                kill_edge(eids[0])
                alive_v[v] = 0
                n_alive -= 1
            else:
                e1, e2 = eids
                u = _other_end(ends[e1], v)
                w = _other_end(ends[e2], v)
                path1, ids1 = orient(e1, u)
                path2, ids2 = orient(e2, v)
                merged = (path1 + path2[1:], ids1 + ids2)
                kill_edge(e1)
                kill_edge(e2)
                alive_v[v] = 0
                n_alive -= 1
                add_edge(u, w, merged)
                requeue(u)
                requeue(w)
        if audit:
            steps.append((op, v, n_alive, m_alive))
            if m_alive - n_alive != surplus:
                raise RuntimeError("reduction step changed |E| - |V|")

    if m_alive - n_alive != surplus:
        raise RuntimeError("reduction changed |E| - |V|")
    survivors = [v for v in range(g.n) if alive_v[v]]
    if not survivors:
        raise RuntimeError("core is empty although the surplus is >= 2")
    dense = {orig: i for i, orig in enumerate(survivors)}
    live_eids = sorted(ends)
    kernel_edges = [(dense[ends[e][0]], dense[ends[e][1]]) for e in live_eids]
    kernel_graph = UGraph.multigraph(len(survivors), kernel_edges)
    if min(kernel_graph.degree(v) for v in range(kernel_graph.n)) < 3:
        raise RuntimeError("core has a vertex of degree below 3")
    if kernel_graph.n > 2 * k - 2 or kernel_graph.m != kernel_graph.n + k - 1:
        raise RuntimeError(
            f"core size out of bounds: |V'|={kernel_graph.n}, |E'|={kernel_graph.m}, k={k}"
        )
    kernel_chains = tuple(AnchorChain(*chains[e]) for e in live_eids)
    return Kernel(
        graph=kernel_graph,
        delta=tuple(survivors),
        anchors=frozenset(survivors),
        chains=kernel_chains,
        trim_order=tuple(trim_order),
        trim_parent=tuple(trim_parent),
        steps=tuple(steps) if audit else None,
    )


def _other_end(endpoints: tuple[int, int], v: int) -> int:
    u, w = endpoints
    return w if v == u else u


def _reference_grid():
    """Seeded graphs on which both kernels must agree, audit trail included."""
    yield FIGURE_EIGHT  # two self-loop chains on one anchor
    yield THETA
    yield UGraph.multigraph(2, [(0, 1), (0, 1), (0, 1)])  # parallel anchor-anchor edges
    yield UGraph.multigraph(1, [(0, 0), (0, 0)])  # self-loops on a lone anchor
    yield UGraph.multigraph(4, list(complete(4).edges) + [(2, 1), (0, 3)])
    for n in range(4, 12):
        yield complete(n)
    for n in (7, 12, 30, 101):
        yield chorded_path(n)
        yield end_chord_path(n)
    for n in range(5, 47):
        for k in range(2, 7):
            for seed in range(4):
                for directed in (False, True):
                    for mode in ("random", "planted-yes"):
                        inst = gen_instance(
                            GenSpec(n=n, k=k, seed=seed, mode=mode, directed=directed)
                        )
                        g = inst.graph.underlying() if directed else inst.graph
                        rng = random.Random(f"{n} {k} {seed} {directed} {mode}")
                        perm = list(range(n))
                        rng.shuffle(perm)
                        yield g
                        yield g.relabeled(perm)
                        # one edge doubled: a parallel pair, often between anchors
                        yield UGraph.multigraph(n, list(g.edges) + [rng.choice(g.edges)])


def test_matches_heap_reducer():
    count = 0
    for g in _reference_grid():
        assert make_contractible(g, audit=True) == _heap_reducer(g, audit=True), g.edges
        count += 1
    assert count >= 10_000


def test_long_chorded_path_contracts():
    # the heap reducer rebuilt each growing chain on every merge: quadratic here
    n = 100_000
    a, b = n // 3, n // 2
    kern = make_contractible(chorded_path(n), audit=True)
    assert kern.delta == (a, b)
    assert sorted(len(c.edge_ids) for c in kern.chains) == sorted([b - a, a + 1, n - b])
    assert len(kern.steps) == n - 2
