"""Seeded random and planted instance generation.

Planted instances are built as a known spanning tree plus ``k`` extra edges
(arcs), so their answer is YES by construction and the planted extras form a
known redundant set.  The extras need no check against the kernel: each joins
two vertices of the spanning tree, so it closes a cycle of the underlying
multigraph, no leaf peel removes a cycle edge, and every core edge lies on an
anchor chain (:func:`~stiso.kernel.make_contractible` raises otherwise).
Random instances pair an independent tree-plus-extras graph with an
independent target, leaving the truth to the oracle.

The ``k`` extras are drawn uniformly from the pairs (arcs) the tree does not
use, without listing them: each pair has a rank in lexicographic pair order,
the tree's ranks are sorted once, and the i-th free rank is found by bisection
and unranked to a pair.  The draw takes O(n log n + k log n) time and O(n)
memory, and its output is byte-identical to drawing from the explicit list of
free pairs (the O(n^2) list earlier versions built).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from math import comb

from .directed import target_tree_from_digraph
from .graphs import DiGraph, UGraph
from .treecode import TargetTree, tree_centers

PLANTED = "planted-yes"
RANDOM = "random"


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance."""

    n: int
    k: int
    seed: int
    mode: str = PLANTED
    directed: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two vertices")
        if self.k < 0:
            raise ValueError("negative redundant size")
        if self.mode not in (PLANTED, RANDOM):
            raise ValueError(f"unknown mode {self.mode!r}")
        cap = (self.n - 1) ** 2 if self.directed else comb(self.n, 2) - (self.n - 1)
        if self.k > cap:
            raise ValueError(f"k={self.k} infeasible for n={self.n}")


@dataclass(frozen=True)
class GenInstance:
    """A generated instance: the graph, its target, and what is known about it.

    ``target`` is the rooted form used by the solvers, built once from
    ``target_graph``, the serializable form (a tree ``UGraph``, rooted at its
    first centre, or a ``DiGraph`` arborescence, rooted at its source).
    ``planted_extra_ids`` are edge/arc ids in ``graph`` forming the known
    redundant set of a planted instance (empty in random mode).
    """

    graph: UGraph | DiGraph
    target: TargetTree
    target_graph: UGraph | DiGraph
    truth: str  # "YES" | "UNKNOWN"
    planted_extra_ids: tuple[int, ...]


def _prufer_decode(seq: list[int], n: int) -> list[tuple[int, int]]:
    """The tree of the Prufer sequence ``seq`` (n >= 2): each entry, in turn,
    is joined to the lowest-id leaf left, and the last edge joins the last
    leaf to n - 1, the one vertex never the lowest leaf.

    The lowest leaf is found by a linear scan, as in
    :func:`~stiso.graphs.peel_leaves`: the scan stops at a leaf, and an entry
    that becomes a leaf below it is the lowest leaf next.
    """
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    scan = degree.index(1)
    leaf = scan
    edges: list[tuple[int, int]] = []
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if x < scan and degree[x] == 1:
            leaf = x
        else:
            scan += 1
            while degree[scan] != 1:
                scan += 1
            leaf = scan
    edges.append((leaf, n - 1))
    return edges


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return _prufer_decode(seq, n)


def gen_tree(n: int, seed: int) -> UGraph:
    """Uniform random labeled tree on ``n`` vertices, deterministic per seed."""
    if n < 2:
        raise ValueError("need at least two vertices")
    return UGraph(n, _random_tree_edges(n, random.Random(seed)))


def _orient_from_root(n: int, edges: list[tuple[int, int]], root: int) -> list[tuple[int, int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    arcs: list[tuple[int, int]] = []
    seen = [False] * n
    seen[root] = True
    stack = [root]
    while stack:
        x = stack.pop()
        for w in adj[x]:
            if not seen[w]:
                seen[w] = True
                arcs.append((x, w))
                stack.append(w)
    return arcs


def _pair_rank(n: int, u: int, v: int, directed: bool) -> int:
    """Rank of ``(u, v)`` in lexicographic order of all arcs, or of all pairs u < v."""
    if directed:
        return u * (n - 1) + v - (v > u)
    return u * n - u * (u + 1) // 2 + v - u - 1


def _pair_unrank(n: int, r: int, directed: bool) -> tuple[int, int]:
    """The pair (arc) of rank ``r``: the inverse of :func:`_pair_rank`."""
    if directed:
        u, j = divmod(r, n - 1)
        return u, j + (j >= u)
    # row u starts at rank u*n - u(u+1)/2, which grows with u
    u = bisect_right(range(n - 1), r, key=lambda x: x * n - x * (x + 1) // 2) - 1
    return u, r - (u * n - u * (u + 1) // 2) + u + 1


def _draw_free_pairs(
    n: int, tree: list[tuple[int, int]], k: int, rng: random.Random, directed: bool
) -> list[tuple[int, int]]:
    """``k`` distinct pairs (arcs) off ``tree``, drawn uniformly by ``rng``."""
    if directed:
        taken = sorted(_pair_rank(n, u, v, True) for u, v in tree)
        total = n * (n - 1)
    else:
        taken = sorted(_pair_rank(n, min(u, v), max(u, v), False) for u, v in tree)
        total = n * (n - 1) // 2
    # ``random.sample`` reads only ``len(population)`` and ``population[j]``
    # (also its small-population branch, which copies the population into a
    # pool), so sampling ``range`` draws the same indices, with the same RNG
    # calls, as sampling the explicit list of free pairs in rank order.
    picks = rng.sample(range(total - len(taken)), k)
    # free ranks below taken[m] number taken[m] - m, so the i-th free rank
    # skips every taken rank whose count is <= i
    below = [r - m for m, r in enumerate(taken)]
    return [_pair_unrank(n, i + bisect_right(below, i), directed) for i in picks]


def gen_instance(spec: GenSpec) -> GenInstance:
    """Generate the instance a spec describes (identical spec, identical bytes).

    The mode chooses only the target's pairs (arcs), and the target is built
    once: by :func:`~stiso.directed.target_tree_from_digraph`, as the CLI and
    perfbench build it, or rooted at its first centre, from which perfbench's
    scan-depth check and ``calibrate.py`` count the roots tried.
    """
    rng = random.Random(spec.seed)
    n, k = spec.n, spec.k
    tree = _random_tree_edges(n, rng)
    if spec.directed:
        tree = _orient_from_root(n, tree, rng.randrange(n))
    extras = _draw_free_pairs(n, tree, k, rng, spec.directed)
    graph: UGraph | DiGraph = (DiGraph if spec.directed else UGraph)(n, tree + extras)

    if spec.mode == PLANTED:
        perm = list(range(n))
        rng.shuffle(perm)
        pairs = [(perm[u], perm[v]) for u, v in tree]
        truth, extra_ids = "YES", tuple(range(n - 1, n - 1 + k))
    else:
        pairs = _random_tree_edges(n, rng)
        if spec.directed:
            pairs = _orient_from_root(n, pairs, rng.randrange(n))
        truth, extra_ids = "UNKNOWN", ()
    if spec.directed:
        target_graph: UGraph | DiGraph = DiGraph(n, pairs)
        target = target_tree_from_digraph(target_graph)
    else:
        target_graph = UGraph(n, pairs)
        target = TargetTree(target_graph, tree_centers(target_graph)[0])

    return GenInstance(
        graph=graph,
        target=target,
        target_graph=target_graph,
        truth=truth,
        planted_extra_ids=extra_ids,
    )
