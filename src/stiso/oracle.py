"""Brute-force ground truth for both solvers, usable at desk scale.

Both oracles enumerate every k-subset of edges (arcs) outright, in
``itertools.combinations`` order, so they share no search structure with the
solvers.  Both recover a witness mapping with one backtracking bijection
search, :func:`_bijection_search`, from one target vertex to its known
image, on an explicit stack, so no tree is too deep for it; neither reads a
:class:`~stiso.treecode.TargetTree`'s canonical codes.  Both pins are exact:

* directed: root to root.  A tree isomorphism maps the path from a vertex to
  the root onto the path from its image to the root's image, so it maps each
  vertex's parent to its image's parent and every arc onto an arc.
* undirected: the kept tree's first centre is the image of the target's
  centre with the same :func:`~stiso.treecode.rooted_code`.  An isomorphism
  maps centres onto centres, so some centre maps there and has that code.
  A subset costs one code; the target's are printed once per call.

Each subset is first tested on degrees in O(k), against degree lists computed
once per call, and only a subset that passes reaches the full checks and a
graph built from its kept edges (:func:`_degree_test`).  The test never drops
a subset those checks would accept:

* undirected: the kept degrees must have the target's histogram.  Isomorphic
  trees have equal degree multisets, so any other deletion leaves no copy of
  the target; only the at most 2k ends of the deleted edges change degree.
* directed: the kept in-degrees must be 0 once and 1 everywhere else, the
  in-degree condition :func:`~stiso.treecode.arborescence_root` already
  checks, moved ahead of the build.  With n - 1 arcs kept, that is the same
  as no vertex keeping two or more in-arcs, and it leaves exactly one root.

The subsets that pass keep their order, so the first subset accepted, and
with it every verdict and witness, is the one the untested enumeration finds.
The ``work`` column of ``stiso bench --compare-oracle`` still counts every
subset enumerated, ``comb(m, k)``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graphs import DiGraph, UGraph, Verdict, bfs
from .treecode import NotArborescenceError, TargetTree, arborescence_root, rooted_code
from .treecode import target_graph, tree_centers

SUBSET_GUARD = 10**7


class OracleScaleError(ValueError):
    """Instance too large for exhaustive subset enumeration."""


def _guard(m: int, k: int) -> None:
    if k < 0:
        raise ValueError("negative redundant size")
    if comb(m, k) > SUBSET_GUARD:
        raise OracleScaleError(f"C({m},{k}) exceeds the {SUBSET_GUARD} subset guard")


def oracle_undirected(g: UGraph, target: TargetTree | UGraph) -> Verdict:
    """Try every k-subset of edges; YES iff some removal leaves a spanning
    tree isomorphic to the target.  A plain target must be a tree, or
    :class:`~stiso.treecode.NotATreeError` is raised before any answer."""
    ttree = target_graph(target)
    centre_of = {rooted_code(ttree, c): c for c in tree_centers(ttree)}  # validates the tree
    if g.n != ttree.n:
        raise ValueError(f"vertex counts differ: graph {g.n}, target {ttree.n}")
    if not g.is_connected():
        return Verdict("NO", note="graph is disconnected: no spanning tree exists")
    k = g.m - (g.n - 1)
    _guard(g.m, k)
    fits = _degree_test(g.edges, list(map(len, g.incidence)), list(map(len, ttree.incidence)))
    for subset in combinations(range(g.m), k):
        if not fits(subset):
            continue
        removed = frozenset(subset)
        if not g.is_connected(skip_edges=removed):
            continue
        h = UGraph(g.n, [e for i, e in enumerate(g.edges) if i not in removed])
        image = tree_centers(h)[0]
        centre = centre_of.get(rooted_code(h, image))
        if centre is None:
            continue
        mapping = _bijection_search(ttree, h, centre, image)
        if mapping is None:
            raise RuntimeError("equal rooted codes but no bijection found")
        return Verdict("YES", mapping=mapping, removed=removed)
    return Verdict("NO")


def oracle_directed(d: DiGraph, target: TargetTree) -> Verdict:
    """Try every k-subset of arcs; YES iff some removal leaves a spanning
    arborescence isomorphic to the rooted target."""
    if d.n != target.n:
        raise ValueError(f"vertex counts differ: graph {d.n}, target {target.n}")
    if not d.underlying().is_connected():
        return Verdict("NO", note="graph is weakly disconnected: no spanning tree exists")
    k = d.m - (d.n - 1)
    _guard(d.m, k)
    heads = [(head,) for _, head in d.arcs]
    fits = _degree_test(heads, list(map(len, d.in_inc)), [0] + [1] * (d.n - 1))
    for subset in combinations(range(d.m), k):
        if not fits(subset):
            continue
        removed = frozenset(subset)
        f = DiGraph(d.n, [a for i, a in enumerate(d.arcs) if i not in removed])
        try:
            root = arborescence_root(f)
        except NotArborescenceError:
            continue
        mapping = _bijection_search(target.tree, f.underlying(), target.root, root)
        if mapping is not None:
            return Verdict("YES", mapping=mapping, removed=removed)
    return Verdict("NO")


def _degree_test(
    ends: Sequence[Sequence[int]], degree: list[int], want: list[int]
) -> Callable[[tuple[int, ...]], bool]:
    """The per-subset degree test ``fits(subset)``: whether deleting the edges
    (arcs) ``subset`` leaves the degree histogram of ``want``.  ``degree``
    counts, per vertex, the elements whose ``ends`` list it: both ends of an
    edge, the head of an arc.

    A call lowers the degrees at the subset's ends in place, in O(k), compares
    the histogram with the target's and restores both.  The histograms have
    one entry per degree value, so their comparison and copy run at C speed.
    """
    kept = list(degree)
    size = max(degree + want) + 1
    base = [0] * size
    for x in degree:
        base[x] += 1
    target = [0] * size
    for x in want:
        target[x] += 1
    hist = list(base)

    def fits(subset: tuple[int, ...]) -> bool:
        for i in subset:
            for v in ends[i]:
                x = kept[v]
                hist[x] -= 1
                hist[x - 1] += 1
                kept[v] = x - 1
        ok = hist == target
        hist[:] = base
        for i in subset:
            for v in ends[i]:
                kept[v] = degree[v]
        return ok

    return fits


@dataclass(frozen=True)
class InvalidNeighborReport:
    """Neighbors of ``vertex`` whose component after dropping the shared edge
    is cyclic or still contains ``vertex``; at most ``bound`` = 2k of them."""

    vertex: int
    invalid: frozenset[int]
    bound: int


def invalid_neighbors(g: UGraph, v: int) -> InvalidNeighborReport:
    """Probe each neighbor ``u`` of ``v``: delete edge (u, v), then test
    whether u's component contains a cycle or reaches back to ``v``."""
    if not g.is_connected():
        raise ValueError("invalid_neighbors requires a connected graph")
    k = g.m - (g.n - 1)
    bad: set[int] = set()
    for eid, u in g.incidence[v]:
        reached, parent = bfs(g.incidence, u, {eid})
        # v unreached: u's side has (incidences - 1) / 2 edges, a cycle iff >= its vertices
        if parent[v] != -1 or sum(len(g.incidence[x]) for x in reached) - 1 >= 2 * len(reached):
            bad.add(u)
    return InvalidNeighborReport(vertex=v, invalid=frozenset(bad), bound=2 * k)


def _bijection_search(t: UGraph, h: UGraph, start: int, image: int) -> dict[int, int] | None:
    """An adjacency-preserving bijection V(t) -> V(h) of two trees that maps
    ``start`` to ``image``, or None.

    The vertices of ``t`` are placed in the pop order of a stack walk from
    ``start``, so every vertex after the first has a matched neighbour.  Each
    tries, in increasing id, the unused vertices of ``h`` of its degree that
    are adjacent to all its matched neighbours' images, and the search
    backtracks on an explicit stack of those candidate iterators.

    A leaf of ``t`` tries only its first candidate, an unused leaf of its
    neighbour's image: swapping two such leaves turns any completion into
    another, so the first mapping found is the one the full search finds.
    """
    n = t.n
    deg_t = [t.degree(v) for v in range(n)]
    deg_h = [h.degree(v) for v in range(n)]
    if sorted(deg_t) != sorted(deg_h):
        return None
    adj_t = [set(t.neighbors(v)) for v in range(n)]
    adj_h = [set(h.neighbors(v)) for v in range(n)]
    order, stack, seen = [], [start], {start}  # t's vertices, each after a matched neighbour
    while stack:
        order.append(x := stack.pop())
        fresh = sorted(adj_t[x] - seen)
        seen.update(fresh)
        stack.extend(fresh)
    placed = [-1] * n  # placed[a]: a's image, -1 until a is placed
    used = [False] * n

    def candidates(a: int) -> Iterator[int]:
        matched = [placed[w] for w in adj_t[a] if placed[w] != -1]
        pool = sorted(adj_h[matched.pop()]) if matched else (image,)
        for b in pool:
            if not used[b] and deg_h[b] == deg_t[a] and all(y in adj_h[b] for y in matched):
                yield b
                if deg_t[a] == 1:
                    return  # a leaf: the other candidates are interchangeable with b

    tries = [candidates(start)]  # tries[i]: order[i]'s images not yet tried
    while tries:
        a = order[len(tries) - 1]
        if placed[a] != -1:  # back at a: free its image before the next
            used[placed[a]] = False
            placed[a] = -1
        b = next(tries[-1], -1)
        if b == -1:
            tries.pop()
            continue
        placed[a], used[b] = b, True
        if len(tries) == n:
            return {x: placed[x] for x in order}
        tries.append(candidates(order[len(tries)]))
    return None
