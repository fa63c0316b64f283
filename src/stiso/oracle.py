"""Brute-force ground truth for both solvers, at desk scale and, for small k, beyond it.

Both oracles enumerate k-subsets of edges (arcs) in ``itertools.combinations``
order.  For k <= 1 they take every subset.  For k >= 2 they take only the
subsets that take one edge on each of k distinct chains of the kernel
(:func:`~stiso.kernel.make_contractible`, run on a digraph's underlying
multigraph, where edge id == arc id) and isolate no anchor
(:func:`_one_edge_per_chain`); every other subset disconnects the graph.
Neither solver reads the kernel, so the oracles share no search with them.
Both recover a witness mapping with one backtracking bijection
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
with it every verdict and witness, is the one the plain enumeration of every
k-subset finds.  :data:`SUBSET_GUARD` bounds the subsets the enumeration can
yield, :func:`subsets_enumerated`, which the ``work`` column of
``stiso bench --compare-oracle`` prints.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graphs import DiGraph, UGraph, Verdict, bfs
from .kernel import AnchorChain, make_contractible
from .treecode import NotArborescenceError, TargetTree, arborescence_root, rooted_code, tree_centers

SUBSET_GUARD = 10**7


class OracleScaleError(ValueError):
    """Instance too large for exhaustive subset enumeration."""


def _guard(k: int, lengths: Sequence[int]) -> None:
    """Raise unless at most ``SUBSET_GUARD`` k-subsets take at most one element
    of each group of the given sizes.  The count, :func:`_one_per_group`, is
    summed only when ``comb(sum, k)`` exceeds the guard, and is not needed
    when ``comb(groups, k)``, a lower bound on it, already does."""
    if k < 0:
        raise ValueError("negative redundant size")
    m = sum(lengths)
    if comb(m, k) > SUBSET_GUARD and (
        comb(len(lengths), k) > SUBSET_GUARD or _one_per_group(k, lengths) > SUBSET_GUARD
    ):
        raise OracleScaleError(
            f"the {m} edges in {len(lengths)} chains give over {SUBSET_GUARD} {k}-subsets"
        )


def _one_per_group(k: int, lengths: Sequence[int]) -> int:
    """The number of k-subsets that take at most one element of each group of
    the given sizes: the k-th elementary symmetric sum of ``lengths``."""
    e = [1] + [0] * k  # e[j]: the sum over the groups seen so far
    for x in lengths:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * x
    return e[k]


def _subsets(g: UGraph, k: int) -> Iterable[tuple[int, ...]]:
    """The k-subsets of ``g``'s edges the oracle checks, in ``combinations``
    order, once the guard has passed them: every subset for k <= 1, else
    :func:`_one_edge_per_chain` on the kernel's chains."""
    if k < 2:
        _guard(k, [1] * g.m)
        return combinations(range(g.m), k)
    chains = make_contractible(g).chains
    _guard(k, [len(c.edge_ids) for c in chains])
    return _one_edge_per_chain(chains, k)


def subsets_enumerated(g: UGraph | DiGraph) -> int:
    """The number of subsets the oracle's guard bounds on a connected ``g``:
    ``comb(m, k)`` for k <= 1, else the k-subsets that take one edge (arc) on
    each of k distinct kernel chains."""
    u = g.underlying() if isinstance(g, DiGraph) else g
    k = u.m - (u.n - 1)
    if k < 2:
        return comb(u.m, k)
    return _one_per_group(k, [len(c.edge_ids) for c in make_contractible(u).chains])


def _one_edge_per_chain(chains: Sequence[AnchorChain], k: int) -> Iterator[tuple[int, ...]]:
    """The k-subsets of core edges, in ``combinations`` order, that take at most
    one edge of each chain and cut no anchor's last non-loop chain.

    Every k-subset it skips disconnects the graph, so it yields every subset
    whose removal leaves a spanning tree:

    * an edge outside the 2-core, in no chain, is a bridge;
    * two edges of one chain cut off the chain's interior between them;
    * an anchor whose every non-loop chain loses an edge keeps only its
      pendant trees, its loop chains and the parts of its other chains on
      its side, so it is cut off from the other end of such a chain, another
      anchor.

    A depth-first walk over the core edge ids in increasing order, on an
    explicit stack of position iterators: depth ``d`` (from 0) picks the
    subset's edge ``d``, and the last depth yields one subset per position
    it may pick.
    """
    core = sorted((e, c) for c, chain in enumerate(chains) for e in chain.edge_ids)
    edge_at = [e for e, _ in core]
    chain_at = [c for _, c in core]
    ends = [(chain.vertices[0], chain.vertices[-1]) for chain in chains]
    live: dict[int, int] = {}  # anchor -> its non-loop chains not yet cut
    for a, b in ends:
        if a != b:
            live[a] = live.get(a, 0) + 1
            live[b] = live.get(b, 0) + 1
    cut = [False] * len(chains)

    def free(start: int, stop: int) -> Iterator[int]:
        """The core positions in ``[start, stop)`` whose edge can be taken
        beside the chains cut when the position is reached."""
        for i in range(start, stop):
            c = chain_at[i]
            if not cut[c]:
                a, b = ends[c]
                if a == b or (live[a] > 1 and live[b] > 1):
                    yield i

    stop = len(core) - k + 1  # depth d stops at stop + d: the deeper edges need room
    tries = [free(0, stop)]  # tries[d]: the positions depth d has not tried
    taken: list[int] = []  # taken[d]: the core position depth d took
    while tries:
        d = len(tries) - 1
        if len(taken) > d:  # back at depth d: restore the chain it cut
            c = chain_at[taken.pop()]
            cut[c] = False
            a, b = ends[c]
            if a != b:
                live[a] += 1
                live[b] += 1
        if d == k - 1:  # no deeper edge reads what the last one cuts
            prefix = tuple([edge_at[j] for j in taken])
            for i in tries.pop():
                yield prefix + (edge_at[i],)
            continue
        i = next(tries[-1], -1)
        if i == -1:
            tries.pop()
            continue
        c = chain_at[i]
        cut[c] = True
        a, b = ends[c]
        if a != b:
            live[a] -= 1
            live[b] -= 1
        taken.append(i)
        tries.append(free(i + 1, stop + d + 1))


def oracle_undirected(g: UGraph, target: TargetTree | UGraph) -> Verdict:
    """Try every k-subset of edges; YES iff some removal leaves a spanning
    tree isomorphic to the target.  A plain target must be a tree, or
    :class:`~stiso.treecode.NotATreeError` is raised before any answer."""
    ttree = target.tree if isinstance(target, TargetTree) else target
    centre_of = {rooted_code(ttree, c): c for c in tree_centers(ttree)}  # validates the tree
    if g.n != ttree.n:
        raise ValueError(f"vertex counts differ: graph {g.n}, target {ttree.n}")
    if not g.is_connected():
        return Verdict("NO", note="graph is disconnected: no spanning tree exists")
    k = g.m - (g.n - 1)
    fits = _degree_test(g.edges, list(map(len, g.incidence)), list(map(len, ttree.incidence)))
    for subset in _subsets(g, k):
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
    g = d.underlying()  # edge id == arc id
    if not g.is_connected():
        return Verdict("NO", note="graph is weakly disconnected: no spanning tree exists")
    k = d.m - (d.n - 1)
    heads = [(head,) for _, head in d.arcs]
    fits = _degree_test(heads, list(map(len, d.in_inc)), [0] + [1] * (d.n - 1))
    for subset in _subsets(g, k):
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
    """The neighbours of a probed vertex whose component after dropping the
    shared edge is cyclic or still contains the vertex; at most 2k of them."""

    invalid: frozenset[int]


def invalid_neighbors(g: UGraph, v: int) -> InvalidNeighborReport:
    """Probe each neighbor ``u`` of ``v``: delete edge (u, v), then test
    whether u's component contains a cycle or reaches back to ``v``."""
    if not g.is_connected():
        raise ValueError("invalid_neighbors requires a connected graph")
    bad: set[int] = set()
    for eid, u in g.incidence[v]:
        reached, parent = bfs(g.incidence, u, {eid})
        # v unreached: u's side has (incidences - 1) / 2 edges, a cycle iff >= its vertices
        if parent[v] != -1 or sum(len(g.incidence[x]) for x in reached) - 1 >= 2 * len(reached):
            bad.add(u)
    return InvalidNeighborReport(frozenset(bad))


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
