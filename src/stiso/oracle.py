"""Brute-force ground truth for both solvers, usable at desk scale.

Both oracles enumerate every k-subset of edges (arcs) outright, in
``itertools.combinations`` order, so they share no search structure with the
solvers; witness mappings are recovered by a plain backtracking bijection
search rather than through canonical codes.

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

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graphs import DiGraph, UGraph, Verdict, bfs
from .treecode import NotArborescenceError, TargetTree, arborescence_root, target_graph
from .treecode import unrooted_code

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
    tree isomorphic to the target."""
    ttree = target_graph(target)
    if g.n != ttree.n:
        raise ValueError(f"vertex counts differ: graph {g.n}, target {ttree.n}")
    if not g.is_connected():
        return Verdict("NO", note="graph is disconnected: no spanning tree exists")
    k = g.m - (g.n - 1)
    _guard(g.m, k)
    target_code = unrooted_code(ttree)
    fits = _degree_test(g.edges, list(map(len, g.incidence)), list(map(len, ttree.incidence)))
    for subset in combinations(range(g.m), k):
        if not fits(subset):
            continue
        removed = frozenset(subset)
        if not g.is_connected(skip_edges=removed):
            continue
        h = UGraph(g.n, [e for i, e in enumerate(g.edges) if i not in removed])
        if unrooted_code(h) != target_code:
            continue
        mapping = _bijection_search_undirected(ttree, h)
        if mapping is None:
            raise RuntimeError("equal tree codes but no bijection found")
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
        mapping = _bijection_search_directed(target, f, root)
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


def _bijection_search_undirected(t: UGraph, h: UGraph) -> dict[int, int] | None:
    """Adjacency-preserving bijection V(t) -> V(h) by degree-pruned backtracking."""
    n = t.n
    deg_t = [t.degree(v) for v in range(n)]
    deg_h = [h.degree(v) for v in range(n)]
    if sorted(deg_t) != sorted(deg_h):
        return None
    adj_t = [set(t.neighbors(v)) for v in range(n)]
    adj_h = [set(h.neighbors(v)) for v in range(n)]
    # order t vertices to keep the matched region connected
    order: list[int] = []
    seen = [False] * n
    stack = [max(range(n), key=lambda v: deg_t[v])]
    seen[stack[0]] = True
    while stack:
        x = stack.pop()
        order.append(x)
        for w in sorted(adj_t[x]):
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    mapping: dict[int, int] = {}
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        a = order[i]
        matched_nbrs = [w for w in adj_t[a] if w in mapping]
        for b in range(n):
            if used[b] or deg_h[b] != deg_t[a]:
                continue
            if any(mapping[w] not in adj_h[b] for w in matched_nbrs):
                continue
            mapping[a] = b
            used[b] = True
            if place(i + 1):
                return True
            del mapping[a]
            used[b] = False
        return False

    return mapping if place(0) else None


def _bijection_search_directed(target: TargetTree, f: DiGraph, root: int) -> dict[int, int] | None:
    """Arc-preserving bijection from the rooted target onto arborescence ``f``."""
    n = target.n
    kids_f: list[list[int]] = [[] for _ in range(n)]
    for tail, head in f.arcs:
        kids_f[tail].append(head)
    sizes_f = [0] * n
    stack = [(root, False)]
    while stack:
        x, done = stack.pop()
        if done:
            sizes_f[x] = 1 + sum(sizes_f[c] for c in kids_f[x])
            continue
        stack.append((x, True))
        for c in kids_f[x]:
            stack.append((c, False))

    def match(tv: int, fv: int) -> dict[int, int] | None:
        t_kids = list(target.children[tv])
        f_kids = kids_f[fv]
        if len(t_kids) != len(f_kids):
            return None
        if target.subtree_size[tv] != sizes_f[fv]:
            return None

        def assign(i: int, remaining: list[int], acc: dict[int, int]) -> dict[int, int] | None:
            if i == len(t_kids):
                return acc
            for j, fc in enumerate(remaining):
                sub = match(t_kids[i], fc)
                if sub is not None:
                    merged = dict(acc)
                    merged.update(sub)
                    out = assign(i + 1, remaining[:j] + remaining[j + 1 :], merged)
                    if out is not None:
                        return out
            return None

        return assign(0, f_kids, {tv: fv})

    return match(target.root, root)