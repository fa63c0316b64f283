"""Directed spanning-tree isomorphism solver.

A spanning out-arborescence rooted at ``r`` keeps no in-arc of ``r`` and
exactly one in-arc of every other vertex (the branching view of Edmonds
1967), so the in-arcs alone fix every candidate deletion set.  For each
root that reaches every vertex the solver deletes all of the root's
in-arcs and, for every other vertex of in-degree at least 2, all in-arcs
but one, trying each choice of the kept one.  The in-degrees sum to
``n - 1 + k`` and every other vertex has in-degree at least 1, so a root
has in-degree at most ``k`` and forms at most ``2^(k - indeg r)`` plans.
A vertex of in-degree 0 is the only root that can reach every vertex, and
two of them leave none.

The roots that reach every vertex come from one linear pass
(:func:`~stiso.graphs.roots_reaching_all`), not a search per root.  Each
plan is checked by one search from the root over the kept arcs; when it
spans, the witness is compared with the target by integer code: the target
is interned once per solve (Aho-Hopcroft-Ullman ids,
:func:`~stiso.treecode.intern_child_ids`), and the witness is only looked
up in that table (:func:`~stiso.treecode.lookup_root_id`), bottom-up along
the search, stopping at the first subtree the target has no copy of.
Equal root ids mean isomorphic arborescences, and the vertex mapping pairs
the children of matched vertices in ``(id, vertex)`` order on both sides.

:func:`chain_candidates` states the same in-degree rule per anchor chain of
the contracted core (the paper's lemma): deleting arc ``a`` must leave
every interior chain vertex with exactly one incoming chain arc, except the
vertex through which the root first meets the chain (if any), which must
end up with zero.  Pendant in-arcs can feed only that entry vertex in a
valid arborescence, so counting chain arcs alone never excludes a
deletable arc.  The solver itself applies the rule to all in-arcs at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graphs import DiGraph, UGraph, Verdict, reachable_all, roots_reaching_all
from .kernel import AnchorChain
from .treecode import CodeTable, TargetTree, arborescence_root, intern_child_ids, lookup_root_id


@dataclass
class DirectedStats:
    """Search effort counters for one directed solve call.

    ``plans_examined`` counts in-arc choices tried, ``plans_max_per_root``
    the most at one root.  ``subsets_examined`` has nothing left to count
    and stays 0; it is kept because ``perfbench/decide.py`` reads counters
    by field name.
    """

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
    admissible = roots_reaching_all(d)
    # a root that reaches every vertex proves weak connectivity
    if not any(admissible) and not d.underlying().is_connected():
        return Verdict("NO", note="graph is weakly disconnected: no spanning tree exists")
    stats.k = d.m - (d.n - 1)
    verdict = _search(d, target, admissible, stats, trace)
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
# in-arc choice search


def _search(d: DiGraph, target: TargetTree, admissible: list[bool], stats, trace) -> Verdict:
    table: CodeTable = {}
    target_ids = [0] * d.n
    intern_child_ids(reversed(target.order), target.parent, table, target_ids)
    target_id = target_ids[target.root]
    witness_ids = [0] * d.n
    in_arcs = [[aid for aid, _ in pairs] for pairs in d.in_inc]
    multi = [v for v in range(d.n) if len(in_arcs[v]) >= 2]

    for r in range(d.n):
        stats.roots_tried += 1
        if not admissible[r]:
            if trace is not None:
                trace(f"root={r} unreachable")
            continue
        stats.roots_reachable += 1
        # r keeps no in-arc and every other vertex keeps exactly one
        choices = [in_arcs[v] for v in multi if v != r]
        pool = set(in_arcs[r]).union(*choices)
        plans_this_root = 0
        surviving = 0
        for kept in product(*choices):
            plans_this_root += 1
            stats.plans_examined += 1
            deleted = pool.difference(kept)
            witness = _arborescence_without(d, r, deleted)
            if witness is None:
                continue
            surviving += 1
            stats.arborescence_hits += 1
            order, parent = witness
            if lookup_root_id(reversed(order), parent, table, witness_ids) != target_id:
                continue
            stats.plans_max_per_root = max(stats.plans_max_per_root, plans_this_root)
            if trace is not None:
                trace(f"root={r} plans={plans_this_root} surviving={surviving} yes")
            mapping = _witness_mapping(target, target_ids, r, parent, witness_ids)
            return Verdict("YES", mapping=mapping, removed=frozenset(deleted))
        stats.plans_max_per_root = max(stats.plans_max_per_root, plans_this_root)
        if trace is not None:
            trace(f"root={r} plans={plans_this_root} surviving={surviving} no")
    return Verdict("NO")


def _witness_mapping(
    target: TargetTree, target_ids: list[int], r: int, parent: list[int], witness_ids: list[int]
) -> dict[int, int]:
    """Target vertex -> witness vertex for a witness rooted at ``r`` whose
    root id equals the target's.  Equal ids mean isomorphic subtrees, so the
    children of each matched pair are paired in ``(id, vertex)`` order."""
    kids: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p != -1:
            kids[p].append(v)
    mapping = {target.root: r}
    stack = [(target.root, r)]
    while stack:
        a, b = stack.pop()
        kids_a = sorted(target.children[a], key=lambda w: (target_ids[w], w))
        kids_b = sorted(kids[b], key=lambda w: (witness_ids[w], w))
        for x, y in zip(kids_a, kids_b):
            mapping[x] = y
            stack.append((x, y))
    return mapping


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
