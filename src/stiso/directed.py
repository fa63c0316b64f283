"""Directed spanning-tree isomorphism solver.

For redundant-arc count ``k >= 2`` the pipeline contracts the underlying
multigraph (one edge per arc, so antiparallel pairs survive as parallel
edges), maps every core edge to the original path it contracts, and then for
each root that reaches every vertex enumerates k-subsets of core edges and,
per chosen chain, the at-most-two arcs whose deletion leaves every interior
chain vertex with the in-degree an out-arborescence forces on it.  Each
resulting candidate arc set is checked directly: delete, test for a spanning
out-arborescence at the root, compare canonical codes.

The roots that reach every vertex come from one linear pass
(:func:`~stiso.graphs.roots_reaching_all`), not a search per root.  The code
comparison is by integer: the target is interned once per solve
(Aho-Hopcroft-Ullman ids, :func:`~stiso.treecode.intern_child_ids`), and a
spanning witness is only looked up in that table
(:func:`~stiso.treecode.lookup_root_id`), bottom-up along the search that
found it, stopping at the first subtree the target has no copy of.  Equal
root ids mean isomorphic arborescences, so the string-code mapping is built
once, for the hit that is returned.

The chain-local candidate rule: deleting arc ``a`` must leave every interior
chain vertex with exactly one incoming chain arc, except the vertex through
which the root first meets the chain (if any), which must end up with zero.
Pendant in-arcs can feed only that entry vertex in a valid arborescence, so
counting chain arcs alone never excludes a deletable arc.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, product

from .graphs import DiGraph, UGraph, Verdict, cycle_edges, reachable_all, roots_reaching_all
from .kernel import AnchorChain, Kernel, make_contractible
from .treecode import (
    CodeTable,
    TargetTree,
    arborescence_root,
    intern_child_ids,
    lookup_root_id,
    rooted_iso_mapping,
)


@dataclass
class DirectedStats:
    """Search effort counters for one directed solve call."""

    k: int = 0
    roots_tried: int = 0
    roots_reachable: int = 0
    subsets_examined: int = 0
    plans_examined: int = 0
    plans_max_per_root: int = 0
    arborescence_hits: int = 0


@dataclass(frozen=True)
class ChainCandidates:
    """Removable-arc options for one anchor chain.

    ``root_entry`` is the chain position (index into ``chain.vertices``)
    through which the root first meets the chain, or None; ``candidates``
    holds at most two arc ids; ``reversal_count`` is the number of
    arc-direction sign changes along the chain.
    """

    chain: AnchorChain
    root_entry: int | None
    candidates: frozenset[int]
    reversal_count: int


def chain_candidates(d: DiGraph, chain: AnchorChain, root_entry: int | None = None) -> ChainCandidates:
    """Arcs on ``chain`` whose single deletion satisfies the interior in-degree rule."""
    verts = chain.vertices
    hops = len(chain.edge_ids)
    if hops != len(verts) - 1 or hops == 0:
        raise ValueError("malformed chain")
    if root_entry is not None and not 0 < root_entry < len(verts) - 1:
        raise ValueError(f"root entry {root_entry} is not an interior position")
    heads: list[int | None] = []  # head position of each hop arc, None for anchors
    directions: list[bool] = []  # True when the arc runs with the chain
    for i, aid in enumerate(chain.edge_ids):
        tail, head = d.arcs[aid]
        a, b = verts[i], verts[i + 1]
        if (tail, head) == (a, b):
            forward = True
        elif (tail, head) == (b, a):
            forward = False
        else:
            raise ValueError(f"arc {aid} does not join chain hop {i}")
        directions.append(forward)
        head_pos = i + 1 if forward else i
        heads.append(head_pos if 0 < head_pos < len(verts) - 1 else None)
    reversals = sum(1 for i in range(1, hops) if directions[i] != directions[i - 1])

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
    return ChainCandidates(
        chain=chain,
        root_entry=root_entry,
        candidates=frozenset(cands),
        reversal_count=reversals,
    )


def is_spanning_arborescence(f: DiGraph, r: int) -> bool:
    """n-1 arcs, in-degree 0 at ``r``, 1 elsewhere, everything reachable from ``r``."""
    if f.m != f.n - 1 or not 0 <= r < f.n:
        return False
    if f.in_degree(r) != 0:
        return False
    if any(f.in_degree(v) != 1 for v in range(f.n) if v != r):
        return False
    return reachable_all(f, r)


def solve_directed(
    d: DiGraph,
    target: TargetTree,
    *,
    stats: DirectedStats | None = None,
    trace=None,
) -> Verdict:
    """Decide whether deleting k arcs from ``d`` leaves an arborescence
    isomorphic to the rooted target tree."""
    if d.n != target.n:
        raise ValueError(f"vertex counts differ: graph {d.n}, target {target.n}")
    stats = stats if stats is not None else DirectedStats()
    und = d.underlying()
    if not und.is_connected():
        return Verdict("NO", note="graph is weakly disconnected: no spanning tree exists")
    k = d.m - (d.n - 1)
    stats.k = k
    if k == 0:
        verdict = _check_whole_graph(d, target)
    elif k == 1:
        verdict = _solve_weak_unicyclic(d, target, und)
    else:
        verdict = _solve_core(d, target, und, k, stats, trace)
    if verdict.is_yes and not certify_directed(d, target, verdict):
        raise RuntimeError("YES verdict failed certification")
    return verdict


def certify_directed(d: DiGraph, target: TargetTree, verdict: Verdict) -> bool:
    """Independently check a directed YES certificate; False on any violation."""
    if not verdict.is_yes or verdict.mapping is None or verdict.removed is None:
        return False
    n = d.n
    if target.n != n:
        return False
    removed = verdict.removed
    if len(removed) != d.m - (n - 1) or not all(0 <= a < d.m for a in removed):
        return False
    mapping = verdict.mapping
    if sorted(mapping) != list(range(n)) or sorted(mapping.values()) != list(range(n)):
        return False
    kept = [a for i, a in enumerate(d.arcs) if i not in removed]
    f = DiGraph(n, kept)
    root = mapping[target.root]
    if not is_spanning_arborescence(f, root):
        return False
    kept_set = set(kept)
    mapped = set()
    for tv in range(n):
        p = target.parent[tv]
        if p != -1:
            mapped.add((mapping[p], mapping[tv]))
    return mapped == kept_set


# ---------------------------------------------------------------------------
# dispatch cases


def _extract_mapping(d: DiGraph, removed: frozenset[int], root: int, target: TargetTree):
    f_und = UGraph.multigraph(d.n, [a for i, a in enumerate(d.arcs) if i not in removed])
    return rooted_iso_mapping(target.tree, target.root, f_und, root)


def _check_whole_graph(d: DiGraph, target: TargetTree) -> Verdict:
    roots = [v for v in range(d.n) if d.in_degree(v) == 0]
    if len(roots) != 1 or any(d.in_degree(v) != 1 for v in range(d.n) if v != roots[0]):
        return Verdict("NO")
    r = roots[0]
    if not reachable_all(d, r):
        return Verdict("NO")
    mapping = _extract_mapping(d, frozenset(), r, target)
    if mapping is None:
        return Verdict("NO")
    return Verdict("YES", mapping=mapping, removed=frozenset())


def _solve_weak_unicyclic(d: DiGraph, target: TargetTree, und: UGraph) -> Verdict:
    for aid in cycle_edges(und):
        kept = [a for i, a in enumerate(d.arcs) if i != aid]
        f = DiGraph(d.n, kept)
        roots = [v for v in range(f.n) if f.in_degree(v) == 0]
        if len(roots) != 1:
            continue
        r = roots[0]
        if not is_spanning_arborescence(f, r):
            continue
        mapping = _extract_mapping(d, frozenset({aid}), r, target)
        if mapping is not None:
            return Verdict("YES", mapping=mapping, removed=frozenset({aid}))
    return Verdict("NO")


# ---------------------------------------------------------------------------
# core enumeration (k >= 2)


def _root_entries(d: DiGraph, und: UGraph, kernel: Kernel) -> list[tuple[int, int] | None]:
    """Per vertex: (chain id, interior position) of the chain the root first
    meets through an interior vertex, or None when it meets an anchor first."""
    interior_at: dict[int, tuple[int, int]] = {}
    core = set(kernel.anchors)
    for cid, chain in enumerate(kernel.chains):
        for pos in range(1, len(chain.vertices) - 1):
            interior_at[chain.vertices[pos]] = (cid, pos)
            core.add(chain.vertices[pos])
    entry: list[tuple[int, int] | None] = [None] * d.n
    seen = bytearray(d.n)
    queue = deque()
    for v in core:
        seen[v] = 1
        entry[v] = interior_at.get(v)
        queue.append(v)
    while queue:
        x = queue.popleft()
        for _, w in und.incidence[x]:
            if not seen[w]:
                seen[w] = 1
                entry[w] = entry[x]
                queue.append(w)
    return entry


def _colex_subsets(items: list[int], k: int) -> list[tuple[int, ...]]:
    subs = list(combinations(items, k))
    subs.sort(key=lambda s: tuple(reversed(s)))
    return subs


def _solve_core(d, target, und, k, stats, trace) -> Verdict:
    kernel = make_contractible(und)
    chains = kernel.chains
    case2 = [chain_candidates(d, chain, None) for chain in chains]
    entries = _root_entries(d, und, kernel)
    subsets = _colex_subsets(list(range(len(chains))), k)
    indeg = [d.in_degree(v) for v in range(d.n)]
    base_excess = [v for v in range(d.n) if indeg[v] != 1]
    admissible = roots_reaching_all(d)
    table: CodeTable = {}
    (target_id,) = intern_child_ids(reversed(target.order), target.parent, table)[-1]

    for r in range(d.n):
        stats.roots_tried += 1
        if not admissible[r]:
            if trace is not None:
                trace(f"root={r} unreachable")
            continue
        stats.roots_reachable += 1
        subsets_this_root = 0
        plans_this_root = 0
        surviving = 0
        entry = entries[r]
        case1: ChainCandidates | None = None
        if entry is not None:
            cid, pos = entry
            case1 = chain_candidates(d, chains[cid], pos)
        for subset in subsets:
            subsets_this_root += 1
            stats.subsets_examined += 1
            cand_sets = []
            for cid in subset:
                if entry is not None and cid == entry[0]:
                    cand_sets.append(sorted(case1.candidates))
                else:
                    cand_sets.append(sorted(case2[cid].candidates))
            if any(not cs for cs in cand_sets):
                continue
            for combo in product(*cand_sets):
                plans_this_root += 1
                stats.plans_examined += 1
                deleted = set(combo)
                if not _indeg_ok(d, indeg, base_excess, deleted, r):
                    continue
                witness = _arborescence_without(d, r, deleted)
                if witness is None:
                    continue
                surviving += 1
                stats.arborescence_hits += 1
                order, parent = witness
                if lookup_root_id(reversed(order), parent, table) != target_id:
                    continue
                mapping = _extract_mapping(d, frozenset(deleted), r, target)
                if mapping is None:
                    raise RuntimeError("witness has the target's integer code but no mapping")
                stats.plans_max_per_root = max(stats.plans_max_per_root, plans_this_root)
                if trace is not None:
                    trace(
                        f"root={r} subsets={subsets_this_root} "
                        f"plans={plans_this_root} surviving={surviving} yes"
                    )
                return Verdict("YES", mapping=mapping, removed=frozenset(deleted))
        stats.plans_max_per_root = max(stats.plans_max_per_root, plans_this_root)
        if trace is not None:
            trace(
                f"root={r} subsets={subsets_this_root} "
                f"plans={plans_this_root} surviving={surviving} no"
            )
    return Verdict("NO")


def _indeg_ok(d: DiGraph, indeg, base_excess, deleted: set[int], r: int) -> bool:
    """After deleting ``deleted``, in-degree must be 0 at ``r`` and 1 elsewhere."""
    delta: dict[int, int] = {}
    for aid in deleted:
        head = d.arcs[aid][1]
        delta[head] = delta.get(head, 0) + 1
    for v in base_excess:
        want = 0 if v == r else 1
        if indeg[v] - delta.get(v, 0) != want:
            return False
    for v in delta:
        want = 0 if v == r else 1
        if indeg[v] - delta[v] != want:
            return False
    if r not in delta and indeg[r] != 0:
        return False
    return True


def _arborescence_without(
    d: DiGraph, r: int, deleted: set[int]
) -> tuple[list[int], list[int]] | None:
    """BFS order from ``r`` over the arcs not in ``deleted``, and each
    vertex's parent along its kept in-arc; None unless every vertex is reached."""
    parent = [-1] * d.n
    seen = bytearray(d.n)
    seen[r] = 1
    order = [r]
    for x in order:  # the list grows while it is walked: a BFS queue
        for aid, w in d.out_inc[x]:
            if aid in deleted or seen[w]:
                continue
            seen[w] = 1
            parent[w] = x
            order.append(w)
    return (order, parent) if len(order) == d.n else None


def target_tree_from_digraph(t: DiGraph) -> TargetTree:
    """Validate a digraph as an out-arborescence and wrap it as a rooted target."""
    root = arborescence_root(t)
    return TargetTree(UGraph(t.n, list(t.arcs)), root)
