"""Undirected spanning-tree isomorphism solver.

One search decides every redundant-set size ``k = m - (n-1)``: peel the
graph's leaves down to its 2-core, and for every graph root try to grow the
target tree through the graph in a DFS preorder of the target, which the
search engine builds once per solve from the target's child lists, each in
``(id, vertex)`` order.  It searches from the target's root as given, and a
plain target is rooted once, at its smallest-id vertex of maximum degree.
It is exact for every k, 0 and 1 included, and for every rooting: any
witness maps the target root to some graph vertex with at least as many
neighbours as the root has children, and the root scan tries every such
vertex, so one rooting of the target suffices.  A root of maximum degree
leaves the scan the fewest such vertices.

Before any walk of the graph, the connectivity check included, a degree
screen decides a NO in O(n), with no leaf peel or code table
(:func:`~stiso.graphs.degrees_cover`); a disconnected graph that passes it
is then a NO by the connectivity check.  Say
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

At each matched vertex ``rg`` the search first binds the pendants forced
to hang there, then fills the remaining children by trying every remaining
neighbour for every child with chronological backtracking, one attempt per
root.  A pendant is an unmatched trim child ``u`` of ``rg`` (the trim
forest is the trees :func:`~stiso.graphs.peel_leaves` cuts off the 2-core,
each rooted at the 2-core vertex it hangs from; no kernel is built per
solve).  Its subtree is untouched: the matched region is connected and
holds ``rg`` but not ``u``, and every removed edge has a matched end.  So
the subtree meets the rest only by the edge ``(rg, u)``, and every witness
that extends the matching maps it onto one child subtree of ``rg``'s
target vertex, of equal Aho–Hopcroft–Ullman id.  The ids are looked up
once per solve in the table the target's rooting carries, and a shape the
target lacks gets -1, which no target child has.  Equal-id children are
interchangeable, so greedy binding is safe: a pendant takes the first
unmatched target child of its id, and children bind in ``(id, vertex)``
order on both sides.  Every other unmatched neighbour, the trim parent and
the 2-core neighbours included, is only branched on, and branching tries
every placement, so the search is complete.  The acceptance corpus checks
it against the brute-force oracle.

The search is one loop over an explicit stack of frames, one per placed
target position, so it leaves the recursion limit alone (raising it let a
deep recursion overflow the C stack on Python 3.10).  Placing a target
vertex reads its image's edge list once (``_place``): the scan drops every
edge back into the matched region but the one it came by, and sorts the
free neighbours into pendants and branches; a vertex with children then
binds its pendants and keeps its branches in a slot.  Every bind and edge
removal goes on one undo trail: a failed branch rolls back to its frame's
mark, a failed attempt to the start, so the search state is built once per
solve.

Before any attempt, the root scan rejects each candidate ``v`` whose
pendant check must fail, in O(deg v) and with no per-solve table: with
only ``v`` matched, its pendants are all its trim children, so its
``_place`` fails ``pendant-unmatched`` iff a run of equal ids among them
(they are sorted by id) outnumbers that id among the target root's
children, counted once per solve.
A rejected candidate counts in ``roots_tried`` but not in ``attempts``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence

from .graphs import SolveStats, TraceFn, UGraph, Verdict, degree_gap, degrees_cover
from .graphs import gc_paused, peel_leaves
from .treecode import CodeTable, NotATreeError, TargetTree, _ahu, _pair_children
from .treecode import certify_witness


@gc_paused
def solve_undirected(
    g: UGraph,
    target: TargetTree | UGraph,
    *,
    fallback: bool = False,
    stats: SolveStats | None = None,
    trace: TraceFn | None = None,
) -> Verdict:
    """Decide whether some spanning tree of ``g`` is isomorphic to ``target``.

    A :class:`TargetTree`'s root sets where the search starts, and a plain
    target is rooted at its smallest-id vertex of maximum degree.  The answer
    concerns the unrooted tree and does not depend on the root; the witness
    may.  A plain target must be a tree, or :class:`NotATreeError` is raised
    before any answer.  YES verdicts carry a certified (mapping, removed-edges)
    pair.  ``fallback`` is accepted for compatibility and has no effect.
    """
    if not isinstance(target, TargetTree):
        root = max(range(target.n), key=target.degree, default=0)  # the smallest id on ties
        target = TargetTree(target, root)  # validates the tree
    ttree = target.tree
    if g.n != ttree.n:
        raise ValueError(f"vertex counts differ: graph {g.n}, target {ttree.n}")
    if g.is_multigraph:
        raise ValueError("input graph must be simple")
    stats = stats if stats is not None else SolveStats()
    k = g.m - (g.n - 1)
    stats.k = k
    if not degrees_cover(degree_gap(map(len, g.incidence), map(len, ttree.incidence))):
        if trace is not None:
            trace("screen=degrees fail:uncovered")
        return Verdict("NO", note="degree screen: the graph's degrees do not cover the target's")
    if not g.is_connected():
        return Verdict("NO", note="graph is disconnected: no spanning tree exists")
    return _solve_core(g, target, k, stats, trace)


def certify_undirected(g: UGraph, target: TargetTree | UGraph, verdict: Verdict) -> bool:
    """Independently check a YES certificate; False on any violation.

    One walk of ``g`` minus ``removed`` from the image of the target's root
    decides (:func:`~stiso.treecode.certify_witness`).  A plain target is
    rooted at vertex 0, and one that is not a tree is rejected.
    """
    if not isinstance(target, TargetTree):
        try:
            target = TargetTree(target, 0)
        except NotATreeError:
            return False
    return certify_witness(g.incidence, g.m, target, verdict)


# ---------------------------------------------------------------------------
# the search


class _Forest:
    """The trim forest, each tree rooted at the 2-core vertex it hangs from,
    with its ids looked up in a target's ``table``, which it never changes.

    ``ids[x]`` is -1 when no subtree interned in ``table`` is isomorphic to ``x``'s.
    ``kids[x]`` lists ``x``'s children by ``(ids[c], c)``.
    """

    def __init__(self, bottom_up: Sequence[int], parent: Sequence[int], table: CodeTable):
        self.parent = parent
        roots = [v for v, p in enumerate(parent) if p == -1]  # the 2-core vertices
        self.ids, self.kids = _ahu([*bottom_up, *roots], parent, table)


def _preorder(root: int, children: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The preorder of the tree under ``root`` that visits each vertex's
    children in the order ``children`` lists them."""
    order, stack = [], [root]
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(children[x][::-1])
    return tuple(order)


class _Engine:
    def __init__(self, g: UGraph, tt: TargetTree, k: int, stats: SolveStats, trim: _Forest):
        self.g = g
        self.tt = tt
        self.k = k
        self.stats = stats
        self.trim = trim
        self.root_ids = Counter(tt.ids[c] for c in tt.children[tt.root])
        self.order = _preorder(tt.root, tt.children)  # the search's target positions
        self.t2g = [-1] * g.n
        self.g2t = [-1] * g.n
        self.removed: set[int] = set()
        self.trail: list[int] = []  # undo log: a bind of target vertex tv as tv, a removal as ~eid
        self.slots: list[list[tuple[int, int]] | None] = [None] * g.n  # tv's (neighbour, edge id)
        self.fail_reason = ""

    # -- state plumbing ----------------------------------------------------

    def _rollback(self, mark: int) -> None:
        trail, t2g, g2t = self.trail, self.t2g, self.g2t
        while len(trail) > mark:
            x = trail.pop()
            if x >= 0:
                g2t[t2g[x]] = -1
                t2g[x] = -1
            else:
                self.removed.discard(~x)

    def _bind(self, tv: int, gv: int) -> None:
        self.t2g[tv] = gv
        self.g2t[gv] = tv
        self.trail.append(tv)

    def _drop(self, eid: int) -> bool:
        if eid not in self.removed:
            self.removed.add(eid)
            self.trail.append(~eid)
            if len(self.removed) > self.k:
                return self._fail("budget")
        return True

    def _fail(self, reason: str) -> bool:
        if not self.fail_reason:
            self.fail_reason = reason
        return False

    def _bind_tree(self, gu: int, tw: int) -> None:
        """Bind ``gu``'s trim subtree onto the equal-id target subtree at ``tw``,
        as :meth:`_bind` would pair by pair; both sides list children by
        ``(id, vertex)``."""
        t2g, g2t = self.t2g, self.g2t
        tws, gus = _pair_children(tw, self.tt.children, gu, self.trim.kids)
        for tx, gx in zip(tws, gus):
            t2g[tx] = gx
            g2t[gx] = tx
        self.trail.extend(tws)

    # -- placement -----------------------------------------------------------

    def _place(self, tv: int, gv: int, parent_eid: int) -> bool:
        """Match ``gv`` to ``tv`` in one scan of ``gv``'s edges; False if that fails.

        The scan drops every edge back into the matched region but the parent
        edge and sorts the free neighbours into pendants and branches.  If
        ``tv`` has children, the pendants bind and the branches go in ``slots[tv]``.
        """
        self._bind(tv, gv)
        g2t, removed, tparent = self.g2t, self.removed, self.trim.parent
        pendants: list[int] = []
        avail: list[tuple[int, int]] = []
        for eid, u in self.g.incidence[gv]:
            if g2t[u] >= 0:
                if eid != parent_eid and not self._drop(eid):
                    return False
            elif eid not in removed:
                if tparent[u] == gv:
                    pendants.append(u)
                else:
                    avail.append((u, eid))
        children = self.tt.children[tv]
        if not children:
            return True
        need = len(children) - len(pendants)
        if len(avail) < need:  # no room for tv's children
            return False
        self.stats.nodes_opened += 1

        if pendants:
            free: dict[int, list[int]] = {}  # tv's children by id, first one last; none is matched
            for c in reversed(children):
                free.setdefault(self.tt.ids[c], []).append(c)
            for u in sorted(pendants):
                bucket = free.get(self.trim.ids[u])
                if not bucket:
                    return self._fail("pendant-unmatched")
                self._bind_tree(u, bucket.pop())

        avail.sort()
        if need == 0:
            for _, eid in avail:
                if not self._drop(eid):
                    return False
        self.slots[tv] = avail
        return True

    # -- the search loop -----------------------------------------------------

    def _search(self) -> bool:
        """Place every unmatched target vertex in preorder; True once all are.
        A frame is (position, iterator over its parent's branch list, trail mark)."""
        order, parent, t2g = self.order, self.tt.parent, self.t2g
        stack: list[tuple[int, Iterator[tuple[int, int]], int]] = []
        i = 1
        while True:
            while i < len(order) and t2g[order[i]] >= 0:
                i += 1
            if i == len(order):
                return True
            stack.append((i, iter(self.slots[parent[order[i]]]), len(self.trail)))
            while not self._next_branch(*stack[-1]):
                stack.pop()
                if not stack:
                    return False
            i = stack[-1][0] + 1

    def _next_branch(self, i: int, branches: Iterator[tuple[int, int]], mark: int) -> bool:
        """Undo to ``mark`` and place position ``i`` on its next branch that holds;
        False once none is left."""
        w = self.order[i]
        self._rollback(mark)
        for u, eid in branches:
            if self.g2t[u] >= 0:
                continue
            self.stats.branches_examined += 1
            if self._place(w, u, eid):
                return True
            self._rollback(mark)
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
        self.fail_reason = ""
        if self._place(self.tt.root, root_g, -1) and self._search():
            if -1 in self.t2g:
                raise RuntimeError("search finished with an unmatched target vertex")
            if len(self.removed) != self.k:
                raise RuntimeError(f"search removed {len(self.removed)} edges, expected {self.k}")
            mapping = dict(enumerate(self.t2g))
            return Verdict("YES", mapping=mapping, removed=frozenset(self.removed))
        self._rollback(0)
        return None


def _solve_core(
    g: UGraph, tt: TargetTree, k: int, stats: SolveStats, trace: TraceFn | None
) -> Verdict:
    verdict = _scan(g, tt.build(), k, stats, trace)
    # certified once the scan has returned, so the search state is freed first
    if verdict.is_yes and not certify_undirected(g, tt, verdict):
        raise RuntimeError("YES verdict failed certification")
    return verdict


def _scan(g: UGraph, tt: TargetTree, k: int, stats: SolveStats, trace: TraceFn | None) -> Verdict:
    """The first witness the root scan finds, trying roots in id order, or NO."""
    trim_order, trim_parent, _ = peel_leaves(g)
    engine = _Engine(g, tt, k, stats, _Forest(trim_order, trim_parent, tt.table))
    min_children = len(tt.children[tt.root])
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
