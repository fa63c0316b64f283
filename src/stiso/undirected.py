"""Undirected spanning-tree isomorphism solver.

One search decides every redundant-set size ``k = m - (n-1)``: peel the
graph's leaves down to its 2-core, root the target at its first centre, and
for every graph root try to grow the target tree through the graph in the
target's DFS order.  It is exact for every k, 0 and 1 included: any witness
maps that centre to some graph vertex with at least as many neighbours as
the centre has children, and the root scan tries every such vertex, so one
rooting of the target suffices.

Before the search, a degree screen decides a NO in O(n), with no leaf
peel, rooting or code table (:func:`~stiso.graphs.degrees_cover`).  Say
``g - R`` is isomorphic to the target for a set ``R`` of k edges.  (1) The
isomorphism maps each target vertex onto a graph vertex of at least its
degree, so for every x the graph has at least as many vertices of degree
>= x as the target; the screen rejects every instance where it has fewer.
(2) Only the at most 2k ends of ``R`` change degree, and each moves one
count of the degree histogram to another degree, so the graph's and the
target's histograms differ by at most 4k in L1.  No test of (2) is needed,
as (1) implies it: by (1), sorted in descending order, the graph's degrees
are at least the target's place by place, and their sums differ by exactly
2k (the graph has k edges more), so at most 2k places differ, and each adds
at most 2 to the L1 distance.  At k = 0 the screen asks for equal degree
histograms.

At each matched vertex ``rg`` the search first binds the pendant
components forced to hang there: a component of the unvisited remainder
that is a tree and meets the matched region only by one edge at ``rg``
must become one child subtree, and equal-code children are
interchangeable, so greedy binding is safe.  The remaining children are
then filled by trying every remaining neighbor for every child with
chronological backtracking, one attempt per root.  The search is
complete, and the acceptance corpus checks it against the brute-force
oracle.

The pendants are read off the trim forest (the trees
:func:`~stiso.graphs.peel_leaves` cuts off the 2-core; no kernel is built
per solve), whose subtrees are looked up once per solve in the table of
Aho–Hopcroft–Ullman ids that the target's rooting carries; a shape the
target lacks gets the id -1, which no target child has.  The matched
region is connected and every removed edge has a matched end, so a trim
subtree without a matched vertex is untouched.  Each unmatched neighbour
``u`` of ``rg`` falls under one of three rules.  (1) ``u`` is a trim child
of ``rg``: its subtree is a pendant of known id.  (2) ``u`` is the trim
parent of ``rg``: the matched region lies in ``rg``'s subtree, so ``u``'s
side is the rest of the graph, which holds the 2-core (a tree at k = 0);
it is only branched on, never bound as a pendant, and branching tries
every placement.  (3) Otherwise ``rg`` and ``u`` are in the 2-core, and a
walk of the remainder visits 2-core vertices only, counting an unmatched
trim child as its whole subtree.  A pendant it finds is looked up in the
same table.  A pendant takes the first unmatched target child of equal id,
and children bind in ``(id, vertex)`` order on both sides.

The walk runs only while some removed edge has an unmatched end (a cut
edge; only an ``_open`` that fills all of a vertex's children drops one).
Without a cut edge rule (3) finds no pendant, by a degree count (at k = 0
the 2-core is one vertex, so rule (3) never applies).  Say ``u``'s
component C is a tree whose one edge to the matched region is ``(rg, u)``.
Its 2-core part is connected, since a trim subtree touches the rest only at
its attachment, so it is a tree on c vertices with c - 1 kept edges.  Each
2-core vertex has 2-core degree >= 2, so at least two more 2-core edge ends
lie in C.  A kept edge leaving C goes to the matched region, and only
``(rg, u)`` does, so some edge at C is removed, and its end in C is
unmatched.

Before any attempt, the root scan rejects each candidate ``v`` whose
pendant check must fail, in O(deg v) and with no per-solve table: with
only ``v`` matched, its pendants are its trim children (a pendant at a
2-core neighbour would have been trimmed), so its first ``_open`` fails
``pendant-unmatched`` iff a run of equal ids among them (they are sorted by
id) outnumbers that id among the target root's children, counted once per solve.
A rejected candidate counts in ``roots_tried`` but not in ``attempts``.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

from .graphs import UGraph, Verdict, degree_gap, degrees_cover, peel_leaves
from .treecode import CodeTable, TargetTree, _ahu, _centers_from, _pair_children, target_graph


@dataclass
class SolveStats:
    """Search effort counters for one solve call.

    ``walks`` counts the walks of the unvisited remainder from a 2-core
    neighbour (rule (3) of the module docstring); an opened node walks only
    while some removed edge has an unmatched end.
    """

    k: int = 0
    roots_tried: int = 0
    attempts: int = 0
    nodes_opened: int = 0
    branches_examined: int = 0
    anchors: int = 0
    walks: int = 0


TraceFn = Callable[[str], None]


def solve_undirected(
    g: UGraph,
    target: TargetTree | UGraph,
    *,
    fallback: bool = False,
    stats: SolveStats | None = None,
    trace: TraceFn | None = None,
) -> Verdict:
    """Decide whether some spanning tree of ``g`` is isomorphic to ``target``.

    The target's root, if any, is ignored: the answer concerns the unrooted
    tree.  YES verdicts carry a certified (mapping, removed-edges) pair.
    ``fallback`` is accepted for compatibility and has no effect.
    """
    ttree = target_graph(target)
    if g.n != ttree.n:
        raise ValueError(f"vertex counts differ: graph {g.n}, target {ttree.n}")
    if g.is_multigraph:
        raise ValueError("input graph must be simple")
    stats = stats if stats is not None else SolveStats()
    if not g.is_connected():
        return Verdict("NO", note="graph is disconnected: no spanning tree exists")
    k = g.m - (g.n - 1)
    stats.k = k
    if not degrees_cover(degree_gap(map(len, g.incidence), map(len, ttree.incidence))):
        if trace is not None:
            trace("screen=degrees fail:uncovered")
        return Verdict("NO", note="degree screen: the graph's degrees do not cover the target's")
    verdict = _solve_core(g, target, k, stats, trace)
    if verdict.is_yes and not certify_undirected(g, target, verdict):
        raise RuntimeError("YES verdict failed certification")
    return verdict


def certify_undirected(g: UGraph, target: TargetTree | UGraph, verdict: Verdict) -> bool:
    """Independently check a YES certificate; False on any violation."""
    if not verdict.is_yes or verdict.mapping is None or verdict.removed is None:
        return False
    ttree = target_graph(target)
    n = g.n
    if ttree.n != n:
        return False
    k = g.m - (n - 1)
    removed = verdict.removed
    if len(removed) != k or not all(0 <= e < g.m for e in removed):
        return False
    mapping = verdict.mapping
    if sorted(mapping) != list(range(n)) or sorted(mapping.values()) != list(range(n)):
        return False
    if not g.is_connected(skip_edges=removed):
        return False
    retained = {
        (min(u, v), max(u, v)) for eid, (u, v) in enumerate(g.edges) if eid not in removed
    }
    mapped = set()
    for a, b in ttree.edges:
        u, v = mapping[a], mapping[b]
        mapped.add((min(u, v), max(u, v)))
    return mapped == retained


# ---------------------------------------------------------------------------
# the search


class _Forest:
    """The trim forest, each tree rooted at the 2-core vertex it hangs from,
    with its ids looked up in a target's ``table``, which it never changes.

    ``ids[x]`` is -1 when no subtree interned in ``table`` is isomorphic to ``x``'s.
    ``kids[x]`` lists ``x``'s children by ``(ids[c], c)``, and ``size[x]`` counts
    ``x``'s subtree.
    """

    def __init__(self, bottom_up: Sequence[int], parent: Sequence[int], table: CodeTable):
        self.parent, self.table = parent, table
        roots = [v for v, p in enumerate(parent) if p == -1]  # the 2-core vertices
        self.ids, self.kids, self.size = _ahu([*bottom_up, *roots], parent, table)


class _Engine:
    def __init__(self, g: UGraph, tt: TargetTree, k: int, stats: SolveStats, trim: _Forest):
        self.g = g
        self.tt = tt
        self.k = k
        self.stats = stats
        self.trim = trim
        self.root_ids = Counter(tt.ids[c] for c in tt.children[tt.root])
        # attempt state
        self.t2g: list[int] = []
        self.g2t: list[int] = []
        self.removed: set[int] = set()
        self.trail: list[tuple] = []
        self.nodes: dict[int, list[tuple[int, int]]] = {}  # opened vertex -> (neighbour, edge id)
        self.fail_reason = ""

    # -- state plumbing ----------------------------------------------------

    def _rollback(self, ck: int) -> None:
        while len(self.trail) > ck:
            op = self.trail.pop()
            if op[0] == "bind":
                self.t2g[op[1]] = -1
                self.g2t[op[2]] = -1
            elif op[0] == "rm":
                self.removed.discard(op[1])
            else:  # "node"
                del self.nodes[op[1]]

    def _bind(self, tv: int, gv: int) -> None:
        self.t2g[tv] = gv
        self.g2t[gv] = tv
        self.trail.append(("bind", tv, gv))

    def _enter(self, gv: int, parent_eid: int) -> bool:
        """Drop edges from a newly matched vertex back into the matched region."""
        for eid, w in self.g.incidence[gv]:
            if eid != parent_eid and self.g2t[w] >= 0 and not self._drop(eid):
                return False
        return True

    def _drop(self, eid: int) -> bool:
        if eid not in self.removed:
            self.removed.add(eid)
            self.trail.append(("rm", eid))
            if len(self.removed) > self.k:
                return self._fail("budget")
        return True

    def _fail(self, reason: str) -> bool:
        if not self.fail_reason:
            self.fail_reason = reason
        return False

    # -- classification ----------------------------------------------------

    def _walk(self, u: int, rg: int, comp_of: dict[int, list[tuple[int, int]]]) -> bool:
        """Mark the 2-core vertices of ``u``'s component of the remainder in ``comp_of``.

        True iff the component is a tree that meets the matched region only at ``rg``.
        """
        self.stats.walks += 1
        g2t, removed, tparent, size = self.g2t, self.removed, self.trim.parent, self.trim.size
        edges = comp_of[u]
        stack = [u]
        verts, half, attach = 1, 0, 0
        while stack:
            x = stack.pop()
            for eid, w in self.g.incidence[x]:
                if eid in removed:
                    continue
                if g2t[w] >= 0:
                    attach += w != rg
                    continue
                half += 1
                if tparent[w] == x:  # w's subtree: size[w] vertices, size[w] edges with (x, w)
                    verts += size[w]
                    half += 2 * size[w] - 1
                elif w not in comp_of:
                    comp_of[w] = edges
                    verts += 1
                    stack.append(w)
        return attach == 0 and half // 2 == verts - 1

    def _pendant_code(self, u: int) -> tuple[int, dict[int, list[int]]]:
        """Id of the tree the remainder hangs at ``u``, -1 for a shape no target
        subtree has, and each of its vertices' children by ``(id, vertex)``."""
        inc, removed, g2t = self.g.incidence, self.removed, self.g2t
        parent = {u: -1}
        order = [u]
        for x in order:
            for e, w in inc[x]:
                if e not in removed and g2t[w] < 0 and w != parent[x]:
                    parent[w] = x
                    order.append(w)
        ids, kids, _ = _ahu(reversed(order), parent, self.trim.table)
        return ids[u], kids

    def _bind_tree(self, gu: int, tw: int, kids: Sequence[list[int]] | dict) -> None:
        """Bind the tree hanging at ``gu`` onto the equal-id target subtree at ``tw``;
        both sides list children by ``(id, vertex)``."""
        for tx, gx in _pair_children(tw, self.tt.children, gu, kids):
            self._bind(tx, gx)

    # -- node opening --------------------------------------------------------

    def _open(self, rg: int, rt: int) -> list[tuple[int, int]] | None:
        """Bind the pendants at ``rg``; the neighbours left to branch on, or None."""
        self.stats.nodes_opened += 1
        tparent = self.trim.parent
        pendants: list[int] = []
        avail: list[tuple[int, int]] = []
        comp_of: dict[int, list[tuple[int, int]]] = {}  # rg's edges into the vertex's component
        walked: list[tuple[bool, list[tuple[int, int]]]] = []
        g2t, edges = self.g2t, self.g.edges
        cut = any(g2t[a] < 0 or g2t[b] < 0 for a, b in map(edges.__getitem__, self.removed))
        for eid, u in self.g.incidence[rg]:
            if eid in self.removed or g2t[u] >= 0:
                continue
            if tparent[u] == rg:  # rule (1)
                pendants.append(u)
            elif tparent[rg] == u or not cut:  # rule (2), or rule (3) with no cut edge
                avail.append((u, eid))
            elif u in comp_of:  # rule (3), a component already walked
                comp_of[u].append((u, eid))
            else:
                comp_of[u] = [(u, eid)]
                walked.append((self._walk(u, rg, comp_of), comp_of[u]))
        for is_tree, edges in walked:
            if is_tree and len(edges) == 1:
                pendants.append(edges[0][0])
            else:
                avail.extend(edges)
        avail.sort()

        free: dict[int, list[int]] = {}  # rt's children by id, first one last; none is matched
        for c in reversed(self.tt.children[rt]):
            free.setdefault(self.tt.ids[c], []).append(c)
        need = len(self.tt.children[rt]) - len(pendants)
        for u in sorted(pendants):
            if tparent[u] == rg:
                code, kids = self.trim.ids[u], self.trim.kids
            else:
                code, kids = self._pendant_code(u)
            bucket = free.get(code)
            if not bucket:
                self._fail("pendant-unmatched")
                return None
            self._bind_tree(u, bucket.pop(), kids)

        if len(avail) < need:
            self._fail("fewer-neighbors-than-children")
            return None
        if need == 0:
            for _, eid in avail:
                if not self._drop(eid):
                    return None
        return avail

    # -- main recursion ------------------------------------------------------

    def _solve_pos(self, i: int) -> bool:
        order = self.tt.order
        while i < len(order) and self.t2g[order[i]] >= 0:
            i += 1
        if i == len(order):
            return True
        w = order[i]
        pt = self.tt.parent[w]
        pg = self.t2g[pt]
        avail = self.nodes.get(pg)
        if avail is None:
            ck = len(self.trail)
            avail = self._open(pg, pt)
            if avail is None:
                self._rollback(ck)
                return False
            self.nodes[pg] = avail
            self.trail.append(("node", pg))
            if self.t2g[w] >= 0:
                return self._solve_pos(i + 1)

        for u, eid in avail:
            if self.g2t[u] >= 0:
                continue
            self.stats.branches_examined += 1
            ck = len(self.trail)
            self._bind(w, u)
            if self._enter(u, eid) and self._room_for_children(u, w) and self._solve_pos(i + 1):
                return True
            self._rollback(ck)
        return False

    def _room_for_children(self, gv: int, tv: int) -> bool:
        need = len(self.tt.children[tv])
        if need == 0:
            return True
        have = 0
        for eid, w in self.g.incidence[gv]:
            if eid not in self.removed and self.g2t[w] < 0:
                have += 1
                if have >= need:
                    return True
        return False

    # -- attempts ------------------------------------------------------------

    def root_fits(self, v: int) -> bool:
        """False iff an attempt at root ``v`` must fail ``pendant-unmatched`` at once:
        some id's run among ``v``'s trim children outnumbers the target root's."""
        ids, prev, run = self.trim.ids, -1, 0
        for c in self.trim.kids[v]:
            prev, run = ids[c], run + 1 if ids[c] == prev else 1
            if run > self.root_ids[prev]:
                return False
        return True

    def attempt(self, root_g: int) -> Verdict | None:
        self.stats.attempts += 1
        n = self.g.n
        self.t2g = [-1] * n
        self.g2t = [-1] * n
        self.removed = set()
        self.trail = []
        self.nodes = {}
        self.fail_reason = ""
        self._bind(self.tt.root, root_g)
        if not self._enter(root_g, -1):
            return None
        if not self._solve_pos(1):
            return None
        if any(v < 0 for v in self.t2g):
            raise RuntimeError("search finished with an unmatched target vertex")
        if len(self.removed) != self.k:
            raise RuntimeError(f"search removed {len(self.removed)} edges, expected {self.k}")
        return Verdict("YES", mapping=dict(enumerate(self.t2g)), removed=frozenset(self.removed))


def _rooting(target: TargetTree | UGraph) -> TargetTree:
    """The target rooted at its first center: the caller's rooting if it is that one."""
    tt = target if isinstance(target, TargetTree) else TargetTree(target, 0)
    root = _centers_from(tt.tree, tt._bfs, tt.parent)[0]
    return tt if tt.root == root else TargetTree(tt.tree, root)


def _solve_core(
    g: UGraph,
    target: TargetTree | UGraph,
    k: int,
    stats: SolveStats,
    trace: TraceFn | None,
) -> Verdict:
    trim_order, trim_parent, deg = peel_leaves(g)
    stats.anchors = sum(d >= 3 for d in deg)  # the kernel's vertices
    tt = _rooting(target)
    engine = _Engine(g, tt, k, stats, _Forest(trim_order, trim_parent, tt.table))
    min_children = len(tt.children[tt.root])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10 * g.n + 1000))
    try:
        for v, pairs in enumerate(g.incidence):
            if len(pairs) < min_children:
                continue
            stats.roots_tried += 1
            if not engine.root_fits(v):
                if trace is not None:
                    trace(f"troot={tt.root} root={v} pi=- fail:pendant-unmatched")
                continue
            verdict = engine.attempt(v)
            if trace is not None:
                outcome = "yes" if verdict else f"fail:{engine.fail_reason or 'exhausted'}"
                trace(f"troot={tt.root} root={v} pi=- {outcome}")
            if verdict is not None:
                return verdict
        return Verdict("NO")
    finally:
        sys.setrecursionlimit(limit)
