"""The two solvers check each other past the oracle's scale.

A NO past n of about 12 has no oracle to agree with, so these tests use two
exact implications between the flavours instead, each of which tests one
solver's completeness on the other's YES:

* an undirected witness ``(mapping, R)`` and any target vertex ``r0`` give a
  directed YES: orient ``G - R`` away from the image of ``r0`` and the edges
  of ``R`` at will, and the target rooted at ``r0`` is a spanning
  arborescence of the result;
* a directed YES whose underlying graph is simple is an undirected YES on
  that graph, against the target's tree.

The instances are seeded and their number is fixed, so the checks cost a
bounded count of solves, not a time budget.
"""

import random

from stiso import (
    DiGraph,
    GenSpec,
    TargetTree,
    UGraph,
    gen_instance,
    solve_directed,
    solve_undirected,
)
from stiso.graphs import bfs


def _shuffled(inst, seed: int):
    """The instance's graph with its edge (arc) ids and vertex labels shuffled,
    so the planted tree is not the first edges listed."""
    rng = random.Random(seed)
    g = inst.graph
    pairs = list(g.arcs if isinstance(g, DiGraph) else g.edges)
    rng.shuffle(pairs)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return type(g)(g.n, pairs).relabeled(perm)


def _grid(directed: bool):
    for n in (10, 30, 200, 1000):
        for k in range(7):
            for mode in ("planted-yes", "random"):
                for s in range(6):
                    seed = 3000 + 100 * n + 10 * k + s
                    inst = gen_instance(GenSpec(n=n, k=k, seed=seed, mode=mode, directed=directed))
                    yield seed, _shuffled(inst, seed), inst.target


def _oriented(g: UGraph, removed: frozenset[int], root: int, rng: random.Random) -> DiGraph:
    """``g`` with every edge of ``g - removed`` directed away from ``root`` and
    every edge in ``removed`` directed at random; arc id == edge id."""
    parent = bfs(g.incidence, root, removed)[1]
    arcs = []
    for eid, (u, v) in enumerate(g.edges):
        if eid in removed:
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        else:
            arcs.append((u, v) if parent[v] == u else (v, u))
    return DiGraph(g.n, arcs)


def test_undirected_yes_is_a_directed_yes():
    yes = 0
    for seed, g, target in _grid(directed=False):
        v = solve_undirected(g, target.tree)
        if not v.is_yes:
            continue
        rng = random.Random(seed)
        r0 = rng.randrange(g.n)
        d = _oriented(g, v.removed, v.mapping[r0], rng)
        assert solve_directed(d, TargetTree(target.tree, r0)).is_yes, (seed, r0)
        yes += 1
    assert yes == 184


def test_directed_yes_with_simple_underlying_graph_is_an_undirected_yes():
    yes = skipped = 0
    for seed, d, target in _grid(directed=True):
        if not solve_directed(d, target).is_yes:
            continue
        if len({frozenset(a) for a in d.arcs}) < d.m:  # an antiparallel pair
            skipped += 1
            continue
        assert solve_undirected(UGraph(d.n, list(d.arcs)), target.tree).is_yes, seed
        yes += 1
    assert (yes, skipped) == (152, 17)
