"""Brute-force ground truth for both solvers, at desk scale and, for small k, beyond it.

Both oracles walk the k-subsets of edges (arcs) in ``itertools.combinations``
order, :func:`_fitting_subsets`, and reject a subset before they build
anything for it.  For k <= 1 the walk may take any edge.  For k >= 2 it takes
only subsets with one edge on each of k distinct chains of the kernel
(:func:`~stiso.kernel.make_contractible`, run on a digraph's underlying
multigraph, where edge id == arc id) that isolate no anchor; every other
subset disconnects the graph.  Neither solver reads the kernel, so the
oracles share no search with them.  Both recover a witness mapping with one
backtracking bijection search, :func:`_bijection_search`, from one target
vertex to its known image, on an explicit stack, so no tree is too deep for
it; neither reads a :class:`~stiso.treecode.TargetTree`'s canonical codes.
Both pins are exact:

* directed: root to root.  A tree isomorphism maps the path from a vertex to
  the root onto the path from its image to the root's image, so it maps each
  vertex's parent to its image's parent and every arc onto an arc.
* undirected: the kept tree's first centre is the image of the target's
  centre with the same :func:`~stiso.treecode.rooted_code`.  An isomorphism
  maps centres onto centres, so some centre maps there and has that code.
  A subset costs one code; the target's are printed once per call.

Each test below only skips subsets that leave no copy of the target, and
the walk keeps its order, so the first subset accepted, and with it every
verdict and witness, is the one the plain enumeration of every k-subset
finds.

* *Degrees, along the walk.*  Undirected, the kept degrees must have the
  target's histogram, since isomorphic trees have equal degree multisets;
  directed, the kept in-degrees must be 0 once and 1 everywhere else, the
  in-degree condition :func:`~stiso.treecode.arborescence_root` checks.
  The walk keeps, per degree x, the kept vertices of degree >= x less the
  target's.  A prefix that drives an entry below 0 has no fitting extension,
  since deleting more edges only lowers degrees (the lemma behind the
  solvers' degree screen, :func:`~stiso.graphs.degrees_cover`), so it is
  dropped; the last edge fits iff its ends carry exactly the degrees still
  in excess, an O(1) test.
* *Undirected: the depth-1 profile* (:func:`_profile_test`).  Isomorphic
  trees have equal multisets of (degree, sorted neighbour degrees).  A
  deletion changes that pair only at the deleted edges' ends and their
  neighbours, so a subset costs O(k * Delta^2), against tables built on the
  first subset that reaches the test.
* *Directed: the out-degree histogram.*  Isomorphic arborescences have equal
  out-degree multisets, and a deletion changes only its tails' out-degrees
  (:func:`~stiso.graphs.degree_shift`), so a subset costs O(k).

Only a subset that passes gets a graph built and the full checks.  At k = 0
the walk yields at most the empty subset, which keeps the whole graph, so it
skips the last two tests, whose set-up costs about what the full checks do.
:data:`SUBSET_GUARD` bounds the subsets the walk may visit,
:func:`subsets_enumerated`, which the ``work`` column of
``stiso bench --compare-oracle`` prints.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from math import comb

from .graphs import DiGraph, UGraph, Verdict, bfs, degree_gap, degree_shift
from .kernel import make_contractible
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


def subsets_enumerated(g: UGraph | DiGraph) -> int:
    """The number of subsets the oracle's guard bounds on a connected ``g``:
    ``comb(m, k)`` for k <= 1, else the k-subsets that take one edge (arc) on
    each of k distinct kernel chains."""
    u = g.underlying() if isinstance(g, DiGraph) else g
    k = u.m - (u.n - 1)
    if k < 2:
        return comb(u.m, k)
    return _one_per_group(k, [len(c.edge_ids) for c in make_contractible(u).chains])


def _fitting_subsets(
    g: UGraph, k: int, ends: Sequence[tuple[int, ...]], degree: list[int], want: list[int]
) -> Iterator[tuple[int, ...]]:
    """The k-subsets of ``g``'s edges, in ``combinations`` order, that can leave
    a spanning tree with the degree histogram of ``want``, once the guard has
    passed the subsets the walk may visit.  ``degree`` counts, per vertex, the
    edges (arcs) whose ``ends`` list it: both ends of an edge, the head of an
    arc.

    For k <= 1 every edge is its own group; for k >= 2 the groups are the
    kernel's chains.  A subset takes at most one edge of each group and cuts
    no anchor's last non-loop chain, and every subset skipped for it
    disconnects the graph:

    * an edge outside the 2-core, in no chain, is a bridge;
    * two edges of one chain cut off the chain's interior between them;
    * an anchor whose every non-loop chain loses an edge keeps only its
      pendant trees, its loop chains and the parts of its other chains on
      its side, so it is cut off from the other end of such a chain, another
      anchor.

    The degree test runs along the walk.  ``cover[x]`` is the number of kept
    vertices of degree >= x less the number of ``want`` degrees >= x; taking
    an edge lowers one entry per end, in O(1), and the histograms are equal
    iff every entry is 0.

    * *The cover prune.*  Deleting more edges only lowers degrees, so a
      prefix that leaves some ``cover[x] < 0`` has no fitting extension; the
      walk drops it, and yields nothing when the check fails before the walk.
    * *The last-edge test.*  Both sides count ``n`` vertices, and ``want``
      lists the degrees (in-degrees) of a graph with n - 1 edges (arcs), so
      after k - 1 deletions the kept degrees exceed ``want``'s in sum by 2
      for edges (1 for arcs), and the positive entries of ``cover`` sum to
      that.  The last edge fits iff its ends' kept degrees are exactly those
      x, counted with multiplicity.  The test relies on an edge having two
      distinct ends, which holds in the simple graphs and the digraphs'
      underlying multigraphs the oracles read.

    A depth-first walk over the grouped edge ids in increasing order, on an
    explicit stack of next positions: depth ``d`` (from 0) picks the subset's
    edge ``d``, and the last depth builds a subset only for a position that
    passes both tests.
    """
    if k < 2:
        _guard(k, [1] * g.m)
    else:
        chains = make_contractible(g).chains
        _guard(k, [len(c.edge_ids) for c in chains])
    cover = [0] * (max(degree + want, default=0) + 2)
    for x in degree:
        cover[x] += 1
    for x in want:
        cover[x] -= 1
    for x in range(len(cover) - 2, -1, -1):  # counts per degree -> counts of degree >= x
        cover[x] += cover[x + 1]
    if min(cover) < 0:
        return
    if k == 0:
        if not any(cover):
            yield ()
        return

    live: dict[int, int] = {}  # anchor -> its non-loop chains not yet cut
    if k == 1:  # every edge is its own group, and no group has anchors
        edge_at = group_at = list(range(g.m))
        anchors: list[tuple[int, int] | None] = [None] * g.m
    else:
        core = sorted((e, c) for c, chain in enumerate(chains) for e in chain.edge_ids)
        edge_at = [e for e, _ in core]
        group_at = [c for _, c in core]
        chain_ends = ((c.vertices[0], c.vertices[-1]) for c in chains)
        anchors = [None if a == b else (a, b) for a, b in chain_ends]  # a loop chain cuts no anchor
        for pair in anchors:
            for a in pair or ():
                live[a] = live.get(a, 0) + 1
    tail_at = [ends[e][0] for e in edge_at]  # an edge's first end
    head_at = [ends[e][-1] for e in edge_at]  # an edge's second end, an arc's one end
    arcs = len(ends[0]) == 1
    cut = [False] * len(anchors)
    kept = list(degree)

    def closed(c: int) -> bool:
        """Whether group ``c`` is cut, or taking it cuts an anchor's last non-loop chain."""
        pair = anchors[c]
        return cut[c] or pair is not None and (live[pair[0]] == 1 or live[pair[1]] == 1)

    def take(i: int) -> bool:
        """Take core position ``i`` if its group is open and the cover prune
        keeps the prefix; else change nothing."""
        c = group_at[i]
        if closed(c):
            return False
        bad = False
        for v in ends[edge_at[i]]:
            x = kept[v]
            kept[v] = x - 1
            cover[x] -= 1
            bad |= cover[x] < 0
        if bad:
            release(i)
            return False
        cut[c] = True
        for a in anchors[c] or ():
            live[a] -= 1
        return True

    def release(i: int) -> None:
        """Undo the degree changes of taking position ``i`` and, once taken, its cut."""
        for v in ends[edge_at[i]]:
            kept[v] += 1
            cover[kept[v]] += 1
        c = group_at[i]
        if cut[c]:
            cut[c] = False
            for a in anchors[c] or ():
                live[a] += 1

    stop = len(edge_at) - k + 1  # depth d stops at stop + d: the deeper edges need room
    nxt = [0]  # nxt[d]: the first core position depth d has not tried
    taken: list[int] = []  # taken[d]: the core position depth d took
    while nxt:
        d = len(nxt) - 1
        if len(taken) > d:  # back at depth d: put back what its last edge took
            release(taken.pop())
        if d < k - 1:
            i = nxt[d]
            while i < stop + d and not take(i):
                i += 1
            if i == stop + d:
                nxt.pop()
            else:
                nxt[d] = i + 1
                taken.append(i)
                nxt.append(i + 1)
            continue
        span = range(nxt.pop(), stop + d)
        need = [x for x, c in enumerate(cover) if c]  # the degrees still in excess
        if arcs:  # the head must be at the one excess in-degree
            x = need[0]
            hits = [i for i in span if kept[head_at[i]] == x]
        else:  # the ends must be at the two excess degrees, in either order
            x, y = need if len(need) == 2 else need * 2
            hits = [
                i
                for i in span
                if (kept[tail_at[i]] == x and kept[head_at[i]] == y)
                or (kept[tail_at[i]] == y and kept[head_at[i]] == x)
            ]
        if hits:
            prefix = tuple([edge_at[j] for j in taken])
            for i in hits:
                if not closed(group_at[i]):
                    yield prefix + (edge_at[i],)


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
    profile_fits = None
    for subset in _fitting_subsets(g, k, g.edges, g.degrees(), ttree.degrees()):
        if k:  # the empty subset goes straight to the full check (module docstring)
            if profile_fits is None:
                profile_fits = _profile_test(g, ttree)
            if not profile_fits(subset):
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
    out_deg: list[int] = []
    gap = None
    for subset in _fitting_subsets(g, k, heads, d.in_degrees(), [0] + [1] * (d.n - 1)):
        if k:  # the empty subset goes straight to the full check (module docstring)
            if gap is None:
                out_deg = d.out_degrees()
                want = [x - 1 for x in target.tree.degrees()]  # a child's edge to its parent
                want[target.root] += 1
                gap = degree_gap(out_deg, want)
            if degree_shift(out_deg, [d.arcs[i][0] for i in subset]) != gap:
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


def _profile_test(g: UGraph, t: UGraph) -> Callable[[tuple[int, ...]], bool]:
    """The per-subset depth-1 profile test ``fits(subset)``: whether deleting
    the edges ``subset`` from ``g`` leaves the multiset of profiles, (degree,
    sorted neighbour degrees), of the tree ``t``.  Isomorphic graphs have
    equal profile multisets, so any other deletion leaves no copy of ``t``.

    A deletion changes a profile only at the ends of the deleted edges and at
    their neighbours, so a call recomputes those, O(k * Delta^2) for maximum
    degree Delta, and compares the signed shift with the gap from ``g``'s
    profiles to ``t``'s, in the form of :func:`~stiso.graphs.degree_gap`.
    """
    inc = g.incidence
    degree = g.degrees()
    have = _profiles(g, degree)
    diff = Counter(_profiles(t, t.degrees()))
    diff.subtract(have)
    gap = {p: c for p, c in diff.items() if c}
    kept = list(degree)

    def fits(subset: tuple[int, ...]) -> bool:
        ends = [v for e in subset for v in g.edges[e]]
        touched = set(ends)
        for v in ends:
            kept[v] -= 1
            touched.update([w for _, w in inc[v]])
        shift: dict[tuple, int] = {}
        for v in touched:
            now = (kept[v], tuple(sorted([kept[w] for e, w in inc[v] if e not in subset])))
            if now != have[v]:
                shift[have[v]] = shift.get(have[v], 0) - 1
                shift[now] = shift.get(now, 0) + 1
        for v in ends:
            kept[v] += 1
        return {p: c for p, c in shift.items() if c} == gap

    return fits


def _profiles(g: UGraph, degree: list[int]) -> list[tuple[int, tuple[int, ...]]]:
    """Per vertex of ``g``, its degree and its neighbours' degrees, sorted."""
    return [
        (degree[v], tuple(sorted([degree[w] for _, w in pairs]))) for v, pairs in enumerate(g.incidence)
    ]


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
    deg_t = list(map(len, t.incidence))
    deg_h = list(map(len, h.incidence))
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
