"""Reduction of a connected graph to its minimum-degree-3 core.

:func:`make_contractible` is the reduction's one entry point.  The kernel is an analysis
of an input: neither solver builds one, and only ``stiso kernel``, acceptance
criteria 3 and 5 and the tests do.

Two operations are applied until neither fires: removing a degree-1 vertex
with its edge, and replacing a degree-2 vertex's two edges by one edge
between its neighbors.  The result is a multigraph (parallel edges and
self-loops are kept; a self-loop counts 2 toward degree), which preserves
``|E| - |V|`` at every step and with it the size bounds on the core:
``|V'| <= 2k - 2`` and ``|E'| = |V'| + k - 1`` for surplus ``k >= 2``.

Each surviving edge remembers the original path it contracts (its chain);
chain endpoints are anchors, interiors are non-anchors, and the interiors
of distinct chains are disjoint.

The order is fixed: the lowest-id degree-1 vertex first, else the lowest-id
degree-2 vertex, and each new edge takes the next edge id.  Suppressing
never changes a degree, so every trim runs before any suppression, and the
suppressions then take the core's degree-2 vertices in increasing id.  The
result is therefore computed in two linear passes instead of step by step:

1. *Peel* (:func:`~stiso.graphs.peel_leaves`): a linear scan for the
   lowest-id leaf trims the graph to its 2-core.  The trimmed vertices
   form a forest of pendant trees hanging off the 2-core, and each one's
   parent (its last neighbour when it was trimmed) is an original
   neighbour.  The undirected solver reads this forest from the same
   function without building the rest of the kernel.
2. *Walk*: the anchors are the core vertices of degree at least 3.  From
   each, every unused core edge is followed through degree-2 vertices to
   the next anchor; that path is one chain.  The reduction would have made
   its kernel edge when the chain's largest interior vertex was
   suppressed, which fixes the chain's position and orientation
   (:func:`_chain_in_reduction_order`).

:func:`chain_candidates` states the directed solver's in-degree rule per
anchor chain (the paper's lemma): deleting arc ``a`` must leave every
interior chain vertex with exactly one incoming chain arc, except the
vertex through which the root first meets the chain (if any), which must
end up with zero.  Pendant in-arcs can feed only that entry vertex in a
valid arborescence, so counting chain arcs alone never excludes a
deletable arc.  No solver runs it: the directed solver applies the rule to
all in-arcs at once, without a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import DiGraph, UGraph, peel_leaves


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


@dataclass(frozen=True)
class Kernel:
    """Contracted core of a graph plus the bookkeeping to map it back.

    ``graph`` uses dense kernel ids; ``delta[kernel_id]`` is the original
    vertex id (so ``anchors == set(delta)``).  ``chains[e]`` is the chain of
    kernel edge ``e``, written in original ids.  The trimmed forest is not
    kept: :func:`~stiso.graphs.peel_leaves` returns it.
    """

    graph: UGraph
    delta: tuple[int, ...]
    anchors: frozenset[int]
    chains: tuple[AnchorChain, ...]
    steps: tuple[tuple[str, int, int, int], ...] | None = None  # (op, vertex, |V|, |E|)


def make_contractible(g: UGraph, *, audit: bool = False) -> Kernel:
    """Contract ``g`` to its core, recording anchors and per-edge chains.

    The kernel's one entry point: neither solver builds a kernel, and only
    ``stiso kernel``, acceptance criteria 3 and 5 and the tests call it.
    Requires a connected graph with surplus ``k = m - (n-1) >= 2``: smaller
    surpluses have empty or degenerate cores, and the solvers decide them by
    the search they run for every k.  The result is that of the
    deterministic reduction order: the lowest-id degree-1 vertex first, else
    the lowest-id degree-2 vertex.  It is computed in two linear passes: peel
    the lowest-id leaf until none is left, then walk the chains between anchors.
    Suppressing never changes a degree, so that order runs every trim first
    and then suppresses the core's degree-2 vertices in increasing id; a
    chain's kernel edge is therefore made when its largest interior vertex
    is suppressed, which fixes the chain's edge id and orientation.
    """
    if not g.is_connected():
        raise KernelError("kernelization requires a connected graph")
    k = g.m - (g.n - 1)
    if k < 2:
        raise KernelError(f"kernelization requires redundant size >= 2, got {k}")

    # pass 1: peel the lowest-id leaf until none is left; every trimmed vertex has a parent
    trim_order, trim_parent, deg = peel_leaves(g)
    alive = [p == -1 for p in trim_parent]

    # pass 2: walk each chain from an anchor through degree-2 vertices
    anchors = [v for v in range(g.n) if alive[v] and deg[v] >= 3]
    used = bytearray(g.m)
    keyed: list[tuple[tuple[int, int], AnchorChain]] = []
    for a in anchors:
        for eid, w in g.incidence[a]:
            if used[eid] or not alive[w]:
                continue
            path, eids = [a], []
            while True:
                used[eid] = 1
                path.append(w)
                eids.append(eid)
                if deg[w] != 2:
                    break
                eid, w = next((e, x) for e, x in g.incidence[w] if e != eid and alive[x])
            keyed.append(_chain_in_reduction_order(g, path, eids))
    keyed.sort(key=lambda item: item[0])
    chains = tuple(chain for _, chain in keyed)

    if sum(len(c.edge_ids) for c in chains) != g.m - len(trim_order):
        raise RuntimeError("chains do not use every core edge exactly once")
    if len(chains) - len(anchors) != g.m - g.n:
        raise RuntimeError("reduction changed |E| - |V|")
    if not anchors:
        raise RuntimeError("core is empty although the surplus is >= 2")
    dense = {orig: i for i, orig in enumerate(anchors)}
    kernel_graph = UGraph.multigraph(
        len(anchors), [(dense[c.vertices[0]], dense[c.vertices[-1]]) for c in chains]
    )
    if min(kernel_graph.degree(v) for v in range(kernel_graph.n)) < 3:
        raise RuntimeError("core has a vertex of degree below 3")
    if kernel_graph.n > 2 * k - 2 or kernel_graph.m != kernel_graph.n + k - 1:
        raise RuntimeError(
            f"core size out of bounds: |V'|={kernel_graph.n}, |E'|={kernel_graph.m}, k={k}"
        )
    steps = None
    if audit:
        # every trim and every suppression removes one vertex and one edge
        ops = [("trim", v) for v in trim_order]
        ops += [("suppress", v) for v in range(g.n) if alive[v] and deg[v] == 2]
        steps = tuple((op, v, g.n - i, g.m - i) for i, (op, v) in enumerate(ops, 1))
    return Kernel(
        graph=kernel_graph,
        delta=tuple(anchors),
        anchors=frozenset(anchors),
        chains=chains,
        steps=steps,
    )


def _chain_in_reduction_order(
    g: UGraph, path: list[int], eids: list[int]
) -> tuple[tuple[int, int], AnchorChain]:
    """Sort key and orientation that the reduction order gives a walked chain.

    An original edge ``e`` keeps ``g.edges[e]`` and sorts first, by ``e``.
    Any other chain got its kernel edge when its largest interior vertex
    ``v*`` was suppressed, so it sorts by ``v*``; it starts at the end on
    the side of ``v*`` whose edge then had the smaller id.  An original
    edge has a smaller id than any merged one, and a merged side got its id
    when its own largest interior vertex was suppressed.
    """
    if len(eids) == 1:
        return (0, eids[0]), AnchorChain(g.edges[eids[0]], (eids[0],))
    interior = path[1:-1]
    top = max(interior)
    j = interior.index(top) + 1
    before = path[1:j]
    after = path[j + 1 : -1]
    first = (1, max(before)) if before else (0, eids[0])
    last = (1, max(after)) if after else (0, eids[-1])
    if last < first:
        path.reverse()
        eids.reverse()
    return (1, top), AnchorChain(tuple(path), tuple(eids))


@dataclass(frozen=True)
class ChainCandidates:
    """Removable-arc options for one anchor chain: ``candidates`` holds at
    most two arc ids."""

    candidates: frozenset[int]


def chain_candidates(d: DiGraph, chain: AnchorChain, root_entry: int | None = None) -> ChainCandidates:
    """Arcs on ``chain`` whose single deletion satisfies the interior in-degree
    rule; ``root_entry`` is the chain position (index into ``chain.vertices``)
    through which the root first meets the chain, or None."""
    verts = chain.vertices
    hops = len(chain.edge_ids)
    if hops != len(verts) - 1 or hops == 0:
        raise ValueError("malformed chain")
    if root_entry is not None and not 0 < root_entry < len(verts) - 1:
        raise ValueError(f"root entry {root_entry} is not an interior position")
    heads: list[int | None] = []  # head position of each hop arc, None for anchors
    for i, aid in enumerate(chain.edge_ids):
        tail, head = d.arcs[aid]
        a, b = verts[i], verts[i + 1]
        if (tail, head) == (a, b):
            head_pos = i + 1
        elif (tail, head) == (b, a):
            head_pos = i
        else:
            raise ValueError(f"arc {aid} does not join chain hop {i}")
        heads.append(head_pos if 0 < head_pos < len(verts) - 1 else None)

    indeg = [0] * len(verts)
    for pos in heads:
        if pos is not None:
            indeg[pos] += 1
    target = [1] * len(verts)
    if root_entry is not None:
        target[root_entry] = 0
    bad = [
        pos
        for pos in range(1, len(verts) - 1)
        if indeg[pos] != target[pos]
    ]
    cands = []
    for i, aid in enumerate(chain.edge_ids):
        pos = heads[i]
        if pos is None:
            ok = not bad
        else:
            ok = bad == [pos] and indeg[pos] == target[pos] + 1
        if ok:
            cands.append(aid)
    if len(cands) > 2:
        raise RuntimeError(f"{len(cands)} candidate arcs on one chain, expected at most 2")
    return ChainCandidates(frozenset(cands))
