"""Undirected spanning-tree isomorphism solver.

Dispatch by redundant-set size ``k = m - (n-1)``: ``k = 0`` is a plain tree
isomorphism check, ``k = 1`` removes each cycle edge in turn, and ``k >= 2``
runs the core search: contract the graph, then for every target rooting and
every graph root try to grow the target tree through the graph in the
target's DFS order.

At each matched pair the search first binds pendant components forced to
hang there (a component of the unvisited remainder that is a tree and
touches the matched region only through the current vertex must become one
child subtree, and equal-code children are interchangeable, so greedy
binding is safe).  The remaining children are then filled by trying every
remaining neighbor for every child with chronological backtracking, one
attempt per root.  The search is complete, and the acceptance corpus
checks it against the brute-force oracle.

Before any attempt, a root candidate whose pendant check must fail is
rejected in O(deg v).  With only the root ``v`` matched, its pendant
components are exactly its children in the kernel's trim forest (whether
``v`` is in the 2-core or inside a pendant tree: for ``k >= 2`` the
component toward the core has a cycle).  The attempt's first ``_open``
binds them greedily to equal-code target children, so it fails
``pendant-unmatched`` iff the multiset of their integer codes does not fit
inside the target root's child codes.  The codes are interned once per
solve for the trim forest and once per target rooting.
A rejected candidate counts in ``roots_tried`` but not in ``attempts``.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .graphs import UGraph, Verdict, cycle_edges
from .kernel import Kernel, make_contractible
from .treecode import (
    CodeTable,
    TargetTree,
    code_key,
    intern_child_ids,
    rooted_iso_mapping,
    target_graph,
    tree_centers,
)


@dataclass
class SolveStats:
    """Search effort counters for one solve call."""

    k: int = 0
    roots_tried: int = 0
    attempts: int = 0
    nodes_opened: int = 0
    branches_examined: int = 0
    anchors: int = 0


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
    if k == 0:
        verdict = _solve_tree(g, ttree)
    elif k == 1:
        verdict = solve_unicyclic(g, target)
    else:
        verdict = _solve_core(g, target, k, stats, trace)
    if verdict.is_yes and not certify_undirected(g, target, verdict):
        raise RuntimeError("YES verdict failed certification")
    return verdict


def _solve_tree(g: UGraph, ttree: UGraph) -> Verdict:
    """k = 0: the graph is itself the only spanning tree candidate."""
    for rt in tree_centers(ttree):
        for rg in tree_centers(g):
            mapping = rooted_iso_mapping(ttree, rt, g, rg)
            if mapping is not None:
                return Verdict("YES", mapping=mapping, removed=frozenset())
    return Verdict("NO")


def solve_unicyclic(g: UGraph, target: TargetTree | UGraph) -> Verdict:
    """k = 1: remove each edge of the unique cycle and test tree isomorphism."""
    ttree = target_graph(target)
    if g.n != ttree.n:
        raise ValueError(f"vertex counts differ: graph {g.n}, target {ttree.n}")
    if not g.is_connected():
        return Verdict("NO", note="graph is disconnected: no spanning tree exists")
    if g.m - (g.n - 1) != 1:
        raise ValueError("solve_unicyclic requires redundant size exactly 1")
    for eid in cycle_edges(g):
        rest = [e for i, e in enumerate(g.edges) if i != eid]
        h = UGraph(g.n, rest)
        for rt in tree_centers(ttree):
            for rh in tree_centers(h):
                mapping = rooted_iso_mapping(ttree, rt, h, rh)
                if mapping is not None:
                    return Verdict("YES", mapping=mapping, removed=frozenset({eid}))
    return Verdict("NO")


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
# core search (k >= 2)


@dataclass
class _Node:
    """Per-vertex state created when the search starts filling its children."""

    avail: list[int] = field(default_factory=list)
    used: set[int] = field(default_factory=set)


class _Engine:
    def __init__(self, g: UGraph, tt: TargetTree, k: int, stats: SolveStats):
        self.g = g
        self.tt = tt
        self.k = k
        self.stats = stats
        self.eid_of = {}
        for eid, (u, v) in enumerate(g.edges):
            self.eid_of[(u, v)] = eid
            self.eid_of[(v, u)] = eid
        # attempt state
        self.t2g: list[int] = []
        self.g2t: list[int] = []
        self.removed: set[int] = set()
        self.trail: list[tuple] = []
        self.nodes: dict[int, _Node] = {}
        self.fail_reason = ""

    # -- state plumbing ----------------------------------------------------

    def _checkpoint(self) -> int:
        return len(self.trail)

    def _rollback(self, ck: int) -> None:
        while len(self.trail) > ck:
            op = self.trail.pop()
            if op[0] == "bind":
                _, tv, gv = op
                self.t2g[tv] = -1
                self.g2t[gv] = -1
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
            if eid == parent_eid or eid in self.removed:
                continue
            if self.g2t[w] >= 0:
                self.removed.add(eid)
                self.trail.append(("rm", eid))
                if len(self.removed) > self.k:
                    return self._fail("budget")
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

    def _components_at(self, rg: int):
        """Components of the unvisited remainder adjacent to ``rg``.

        Returns (comps, rg_edges) where each comp is a dict with vertex list,
        acyclicity flag, and attachment count, and rg_edges maps comp index
        to the (eid, neighbor) pairs leaving ``rg`` into it.
        """
        g2t = self.g2t
        removed = self.removed
        comp_of: dict[int, int] = {}
        comps: list[dict] = []
        rg_edges: list[list[tuple[int, int]]] = []
        for eid, u in self.g.incidence[rg]:
            if eid in removed or g2t[u] >= 0:
                continue
            if u in comp_of:
                rg_edges[comp_of[u]].append((eid, u))
                continue
            cid = len(comps)
            members = [u]
            comp_of[u] = cid
            half = 0
            attach = 0
            stack = [u]
            while stack:
                x = stack.pop()
                for e2, w in self.g.incidence[x]:
                    if e2 in removed:
                        continue
                    if g2t[w] >= 0:
                        if w != rg:
                            attach += 1
                        continue
                    half += 1
                    if w not in comp_of:
                        comp_of[w] = cid
                        members.append(w)
                        stack.append(w)
            comps.append(
                {
                    "members": members,
                    "acyclic": half // 2 == len(members) - 1,
                    "attach": attach,
                }
            )
            rg_edges.append([(eid, u)])
        return comps, rg_edges

    def _comp_codes(self, members: list[int], root: int):
        """Subtree codes and sorted child lists of a pendant component."""
        member_set = set(members)
        parent = {root: -1}
        order = [root]
        queue = [root]
        while queue:
            x = queue.pop()
            for eid, w in self.g.incidence[x]:
                if eid in self.removed or w not in member_set or w in parent:
                    continue
                parent[w] = x
                order.append(w)
                queue.append(w)
        codes: dict[int, str] = {}
        kid_codes: dict[int, list[str]] = {x: [] for x in order}
        kids: dict[int, list[int]] = {x: [] for x in order}
        for x in reversed(order):
            kid_codes[x].sort(key=code_key)
            codes[x] = "(" + "".join(kid_codes[x]) + ")"
            if parent[x] != -1:
                kid_codes[parent[x]].append(codes[x])
                kids[parent[x]].append(x)
        for x in order:
            kids[x].sort(key=lambda w: (code_key(codes[w]), w))
        return codes, kids

    def _bulk_bind(self, comp_root: int, t_root: int, kids: dict[int, list[int]]) -> None:
        """Bind a pendant component onto an equal-code target subtree.

        Sibling subtrees with equal codes are interchangeable, so pairing the
        i-th child of each sorted list is a valid isomorphism.
        """
        stack = [(comp_root, t_root)]
        while stack:
            gx, tx = stack.pop()
            self._bind(tx, gx)
            stack.extend(zip(kids[gx], self.tt.children[tx]))

    # -- node opening --------------------------------------------------------

    def _open(self, rg: int, rt: int) -> _Node | None:
        self.stats.nodes_opened += 1
        comps, rg_edges = self._components_at(rg)
        pendants: list[tuple[int, int]] = []  # (neighbor, comp index)
        avail: list[int] = []
        for cid, comp in enumerate(comps):
            if comp["acyclic"] and comp["attach"] == 0 and len(rg_edges[cid]) == 1:
                pendants.append((rg_edges[cid][0][1], cid))
            else:
                avail.extend(u for _, u in rg_edges[cid])
        pendants.sort()
        avail.sort()

        unmatched = [c for c in self.tt.children[rt] if self.t2g[c] < 0]
        for u, cid in pendants:
            codes, kids = self._comp_codes(comps[cid]["members"], u)
            w = next(
                (c for c in unmatched if self.t2g[c] < 0 and self.tt.code[c] == codes[u]),
                None,
            )
            if w is None:
                self._fail("pendant-unmatched")
                return None
            self._bulk_bind(u, w, kids)
        unmatched = [c for c in self.tt.children[rt] if self.t2g[c] < 0]

        if len(avail) < len(unmatched):
            self._fail("fewer-neighbors-than-children")
            return None
        if not unmatched:
            for u in avail:
                if not self._drop(self.eid_of[(rg, u)]):
                    return None
        return _Node(avail=avail)

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
        node = self.nodes.get(pg)
        if node is None:
            ck = self._checkpoint()
            node = self._open(pg, pt)
            if node is None:
                self._rollback(ck)
                return False
            self.nodes[pg] = node
            self.trail.append(("node", pg))
            if self.t2g[w] >= 0:
                return self._solve_pos(i + 1)

        for u in node.avail:
            if u in node.used or self.g2t[u] >= 0:
                continue
            self.stats.branches_examined += 1
            ck = self._checkpoint()
            node.used.add(u)
            eid = self.eid_of[(pg, u)]
            self._bind(w, u)
            if (
                self._enter(u, eid)
                and self._room_for_children(u, w)
                and self._solve_pos(i + 1)
            ):
                return True
            self._rollback(ck)
            node.used.discard(u)
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
        mapping = {tv: gv for tv, gv in enumerate(self.t2g)}
        return Verdict("YES", mapping=mapping, removed=frozenset(self.removed))


def _rootings(target: TargetTree | UGraph) -> list[TargetTree]:
    """The target rooted at each center, reusing the caller's rooting if it is one."""
    ttree = target_graph(target)
    return [
        target if isinstance(target, TargetTree) and target.root == c else TargetTree(ttree, c)
        for c in tree_centers(ttree)
    ]


def _pendant_code_counts(kernel: Kernel, table: CodeTable) -> dict[int, Counter]:
    """Code-id counts of each vertex's children in the trim forest."""
    forest = intern_child_ids(kernel.trim_order, kernel.trim_parent, table)
    return {v: Counter(ids) for v, ids in forest.items()}


def _rejected_roots(pendants: dict[int, Counter], tt: TargetTree, table: CodeTable) -> set[int]:
    """Roots whose pendant codes do not fit inside the target root's child codes."""
    kids = intern_child_ids(reversed(tt.order[1:]), tt.parent, table)
    have = Counter(kids.get(tt.root, ()))
    return {
        v for v, need in pendants.items() if any(have[c] < m for c, m in need.items())
    }


def _solve_core(
    g: UGraph,
    target: TargetTree | UGraph,
    k: int,
    stats: SolveStats,
    trace: TraceFn | None,
) -> Verdict:
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10 * g.n + 1000))
    kernel = make_contractible(g)
    stats.anchors = len(kernel.anchors)
    table: CodeTable = {}
    pendants = _pendant_code_counts(kernel, table)
    for tt in _rootings(target):
        engine = _Engine(g, tt, k, stats)
        min_children = len(tt.children[tt.root])
        rejected = _rejected_roots(pendants, tt, table)
        for v in range(g.n):
            if g.degree(v) < min_children:
                continue
            stats.roots_tried += 1
            if v in rejected:
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
