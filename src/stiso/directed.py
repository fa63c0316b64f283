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
two of them leave none.  The solver builds no kernel: the paper's form of
this rule, per anchor chain of the contracted core, is
:func:`~stiso.kernel.chain_candidates`.

Before any walk of the graph, an out-degree screen decides a NO in O(n)
(:func:`~stiso.graphs.degrees_cover`): the undirected solver's degree
screen, applied to out-degrees.  Say deleting a set ``R`` of k arcs leaves
an arborescence isomorphic to the target.  The isomorphism maps each
target vertex onto a graph vertex whose out-degree in ``d - R``, and so in
``d``, is at least the target vertex's.  So for every x the graph has at
least as many vertices of out-degree >= x as the target, and the screen
rejects every instance where it has fewer, before the roots are found or
weak connectivity is checked.  The target's out-degrees are its tree
degrees less one at every vertex but the root, so the screen reads no
canonical code.

The roots that reach every vertex are found in linear time
(:func:`~stiso.graphs.roots_reaching_all`), not by a search per root; with
one vertex of in-degree 0, one search from it decides.

Isomorphic arborescences have equal out-degree multisets, and a plan
lowers the out-degree of at most ``k`` tails, those of its deleted arcs.
So the screen's count of how the graph's out-degree histogram differs from
the target's (in at most ``2k`` entries, as the graph has ``k`` arcs more)
serves the whole solve: each plan whose deletions do not cancel that
difference exactly is rejected in O(k) (:func:`~stiso.graphs.degree_shift`).
An isomorphism also maps root to root, so a plan is rejected, in O(k) too,
unless the root keeps as many out-arcs as the target's root has children.
Both tests are only necessary, and plans keep their order, so the first plan
to pass the full check, and with it the answer, is unchanged; only the
plans they keep are searched and count as ``arborescence_hits``.  A NO that
the screen or these tests decide never builds the target's canonical codes:
only :meth:`~stiso.treecode.TargetTree.match` builds them, on a plan that spans.

Each plan left is checked by one search from the root over the kept arcs
(:func:`~stiso.graphs.bfs`); when it spans, the witness is compared with
the target by :meth:`~stiso.treecode.TargetTree.match`: it is only looked
up in the table of Aho-Hopcroft-Ullman ids the target carries, bottom-up
along the search, with -1 for a subtree the target has no copy of.  Equal
root ids mean isomorphic arborescences, and the vertex mapping pairs the
children of matched vertices in ``(id, vertex)`` order on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graphs import (
    DiGraph,
    Verdict,
    bfs,
    degree_gap,
    degree_shift,
    degrees_cover,
    gc_paused,
    roots_reaching_all,
)
from .treecode import (
    NotArborescenceError,
    NotATreeError,
    TargetTree,
    arborescence_root,
    certify_witness,
)


@dataclass
class DirectedStats:
    """Search effort counters for one directed solve call.

    ``plans_examined`` counts in-arc choices tried, ``plans_max_per_root``
    the most at one root, and ``arborescence_hits`` the plans that pass the
    out-degree tests, the histogram's and the root's, and span.
    ``subsets_examined`` has nothing left to count and stays 0.  It is kept
    because ``test_benchmark_counters_are_stats_fields`` checks that every
    counter ``perfbench/decide.py`` lists in ``STATS_FIELDS`` is a field here;
    without it the benchmark would report null, not crash.  The out-degree
    screen leaves every counter but ``k`` at 0.
    """

    k: int = 0
    roots_tried: int = 0
    roots_reachable: int = 0
    subsets_examined: int = 0
    plans_examined: int = 0
    plans_max_per_root: int = 0
    arborescence_hits: int = 0


def is_spanning_arborescence(f: DiGraph, r: int) -> bool:
    """n-1 arcs, in-degree 0 at ``r``, 1 elsewhere, everything reachable from ``r``."""
    try:
        return arborescence_root(f) == r
    except NotArborescenceError:
        return False


@gc_paused
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
    stats.k = d.m - (d.n - 1)
    out_deg = list(map(len, d.out_inc))
    # out-degree: tree degree less the in-arc every vertex but the root has
    want = [len(pairs) - 1 for pairs in target.tree.incidence]
    want[target.root] += 1
    gap = degree_gap(out_deg, want)
    if not degrees_cover(gap):
        if trace is not None:
            trace("screen=out-degrees fail:uncovered")
        return Verdict("NO", note="out-degree screen: the graph's out-degrees do not cover the target's")
    admissible = roots_reaching_all(d)
    # a root that reaches every vertex proves weak connectivity
    if not any(admissible) and not d.underlying().is_connected():
        return Verdict("NO", note="graph is weakly disconnected: no spanning tree exists")
    verdict = _search(d, target, admissible, out_deg, gap, stats, trace)
    if verdict.is_yes and not certify_directed(d, target, verdict):
        raise RuntimeError("YES verdict failed certification")
    return verdict


def certify_directed(d: DiGraph, target: TargetTree, verdict: Verdict) -> bool:
    """Independently check a directed YES certificate; False on any violation.

    One walk of ``d``'s out-arcs less ``removed`` from the image of the
    target's root decides (:func:`~stiso.treecode.certify_witness`); with
    n - 1 kept arcs, reaching every vertex makes them an arborescence.
    """
    return certify_witness(d.out_inc, d.m, target, verdict)


# ---------------------------------------------------------------------------
# in-arc choice search


def _search(
    d: DiGraph,
    target: TargetTree,
    admissible: list[bool],
    out_deg: list[int],
    gap: dict[int, int],
    stats,
    trace,
) -> Verdict:
    """The first plan, roots in id order and plans in product order, whose
    out-degrees shift by ``gap``, whose root keeps the target root's
    out-degree and whose kept arcs span a copy of the target, or NO;
    ``out_deg`` lists ``d``'s out-degrees."""
    multi = {v: [aid for aid, _ in pairs] for v, pairs in enumerate(d.in_inc) if len(pairs) >= 2}
    arcs = d.arcs
    root_out = len(target.tree.incidence[target.root])

    for r in range(d.n):
        stats.roots_tried += 1
        if not admissible[r]:
            if trace is not None:
                trace(f"root={r} unreachable")
            continue
        stats.roots_reachable += 1
        # r keeps no in-arc and every other vertex keeps exactly one
        choices = [arcs_in for v, arcs_in in multi.items() if v != r]
        pool = {aid for aid, _ in d.in_inc[r]}.union(*choices)
        plans_this_root = 0
        surviving = 0
        for kept in product(*choices):
            plans_this_root += 1
            stats.plans_examined += 1
            deleted = pool.difference(kept)
            tails = [arcs[a][0] for a in deleted]
            if degree_shift(out_deg, tails) != gap or out_deg[r] - tails.count(r) != root_out:
                continue
            witness = _arborescence_without(d, r, deleted)
            if witness is None:
                continue
            surviving += 1
            stats.arborescence_hits += 1
            mapping = target.match(*witness)
            if mapping is None:
                continue
            stats.plans_max_per_root = max(stats.plans_max_per_root, plans_this_root)
            if trace is not None:
                trace(f"root={r} plans={plans_this_root} surviving={surviving} yes")
            return Verdict("YES", mapping=mapping, removed=frozenset(deleted))
        stats.plans_max_per_root = max(stats.plans_max_per_root, plans_this_root)
        if trace is not None:
            trace(f"root={r} plans={plans_this_root} surviving={surviving} no")
    return Verdict("NO")


def _arborescence_without(
    d: DiGraph, r: int, deleted: set[int]
) -> tuple[list[int], list[int]] | None:
    """BFS order from ``r`` over the arcs not in ``deleted``, and each
    vertex's parent along its kept in-arc; None unless every vertex is reached."""
    order, parent = bfs(d.out_inc, r, deleted)
    return (order, parent) if len(order) == d.n else None


def target_tree_from_digraph(t: DiGraph) -> TargetTree:
    """Validate a digraph as an out-arborescence and wrap it as a rooted target.

    Its arcs are walked once, by the target's own search from the root.  With
    n - 1 arcs and one vertex of in-degree 0, ``t`` is an out-arborescence iff
    its underlying graph is a tree: the other n - 1 in-degrees are then each
    1, and in-arcs followed back from any vertex cannot close a cycle of the
    tree, so they end at the root.  The faults are named as
    :func:`~stiso.treecode.arborescence_root` names them.
    """
    if t.m != t.n - 1 or t.in_inc.count(()) != 1:
        arborescence_root(t)  # raises, naming the arc count or the sources
    root = t.in_inc.index(())
    try:
        return TargetTree(t.underlying(), root)
    except NotATreeError:
        raise NotArborescenceError(f"some vertex is unreachable from the root {root}") from None
