"""Reduction of a connected graph to its minimum-degree-3 core.

Two operations are applied until neither fires: removing a degree-1 vertex
with its edge, and replacing a degree-2 vertex's two edges by one edge
between its neighbors.  The result is a multigraph (parallel edges and
self-loops are kept; a self-loop counts 2 toward degree), which preserves
``|E| - |V|`` at every step and with it the size bounds on the core:
``|V'| <= 2k - 2`` and ``|E'| = |V'| + k - 1`` for surplus ``k >= 2``.

Each surviving edge remembers the original path it contracts (its chain);
chain endpoints are anchors, interiors are non-anchors, and the interiors
of distinct chains are disjoint.

Every trim runs before any suppression, because suppressing never lowers a
degree.  The trimmed vertices therefore form a forest of pendant trees
hanging off the 2-core, and each one's parent (its last neighbour when it
was trimmed) is an original neighbour.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graphs import UGraph


class KernelError(ValueError):
    """Kernelization precondition violated."""


@dataclass(frozen=True)
class AnchorChain:
    """Original path contracted into one kernel edge.

    ``vertices`` runs anchor-to-anchor (equal endpoints for a self-loop edge);
    ``edge_ids[i]`` is the original edge joining ``vertices[i]`` and
    ``vertices[i+1]``.
    """

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]


@dataclass(frozen=True)
class Kernel:
    """Contracted core of a graph plus the bookkeeping to map it back.

    ``graph`` uses dense kernel ids; ``delta[kernel_id]`` is the original
    vertex id (so ``anchors == set(delta)``).  ``chains[e]`` is the chain of
    kernel edge ``e``, written in original ids.  ``trim_order`` lists the
    vertices outside the 2-core in the order they were trimmed, so each
    comes after all of its children in the trim forest; ``trim_parent[v]``
    is the neighbour ``v`` hung from when trimmed, or -1 for a 2-core vertex.
    """

    graph: UGraph
    delta: tuple[int, ...]
    anchors: frozenset[int]
    chains: tuple[AnchorChain, ...]
    trim_order: tuple[int, ...]
    trim_parent: tuple[int, ...]
    steps: tuple[tuple[str, int, int, int], ...] | None = None  # (op, vertex, |V|, |E|)

    def chain_of(self, kernel_edge_id: int) -> AnchorChain:
        if not 0 <= kernel_edge_id < len(self.chains):
            raise KeyError(f"unknown kernel edge id {kernel_edge_id}")
        return self.chains[kernel_edge_id]


def make_contractible(g: UGraph, *, audit: bool = False) -> Kernel:
    """Contract ``g`` to its core, recording anchors and per-edge chains.

    Requires a connected graph with surplus ``k = m - (n-1) >= 2`` (smaller
    surpluses are handled by the solvers' special cases and have empty or
    degenerate cores).  Reduction order is deterministic: the lowest-id
    degree-1 vertex first, else the lowest-id degree-2 vertex.
    """
    if not g.is_connected():
        raise KernelError("kernelization requires a connected graph")
    return _contract(g, audit)


def _contract(g: UGraph, audit: bool = False) -> Kernel:
    """:func:`make_contractible` for a graph the caller has found connected."""
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

