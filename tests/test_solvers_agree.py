"""The two solvers check each other, and the oracle checks both, past desk scale.

The oracle enumerates one edge per kernel chain, so it gives ground truth at
n 30-300 for k up to 4, on YES and NO alike.  Past that, two exact
implications between the flavours stand in for it, each of which tests one
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
from collections import Counter

from stiso import (
    DiGraph,
    GenSpec,
    TargetTree,
    UGraph,
    certify_directed,
    certify_undirected,
    gen_instance,
    oracle_directed,
    oracle_undirected,
    solve_directed,
    solve_undirected,
    target_tree_from_digraph,
)
from stiso.graphs import bfs
from stiso.oracle import subsets_enumerated


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


def _rehung(t: UGraph | DiGraph, rng: random.Random) -> UGraph | DiGraph:
    """The tree (arborescence) ``t`` with one leaf cut from its neighbour
    (parent) and hung from another vertex, both drawn by ``rng``."""
    directed = isinstance(t, DiGraph)
    pairs = list(t.arcs if directed else t.edges)
    degree = Counter(v for pair in pairs for v in pair)
    # an arc's head is a leaf; an edge's leaf may be either end
    ends = [(v,) if directed else (u, v) for u, v in pairs]
    i = rng.choice([i for i, pair in enumerate(ends) if min(degree[x] for x in pair) == 1])
    u, v = pairs[i]
    leaf, old = (v, u) if degree[v] == 1 else (u, v)
    pairs[i] = (rng.choice([x for x in range(t.n) if x not in (leaf, old)]), leaf)
    return type(t)(t.n, pairs)


def _past_desk_scale(directed: bool):
    """Two planted instances per (n, k), n 30-300 and k 2-4, shuffled, as
    ``(seed, graph, planted target graph, re-hung target graph)``; None for an
    instance on which the oracle would enumerate over 30 000 subsets."""
    for n in (30, 60, 100, 200, 300):
        for k in (2, 3, 4):
            for s in range(2):
                seed = 8000 + 100 * k + n + s
                spec = GenSpec(n=n, k=k, seed=seed, mode="planted-yes", directed=directed)
                inst = gen_instance(spec)
                g = _shuffled(inst, seed)
                if subsets_enumerated(g) > 30_000:
                    yield None
                    continue
                yield seed, g, inst.target_graph, _rehung(inst.target_graph, random.Random(seed))


def test_solvers_agree_with_the_oracle_past_desk_scale():
    """Both solvers answer as the oracle does at n 30-300 and k 2-4, on each
    planted instance of a seeded grid against its target and against the
    target with one leaf re-hung.  Most re-hung targets are NOs that pass the
    degree screen, so the solver's search decides them.  Every YES of either
    side certifies."""
    seen: Counter = Counter()
    for directed in (False, True):
        if directed:
            solve, oracle, certify = solve_directed, oracle_directed, certify_directed
        else:
            solve, oracle, certify = solve_undirected, oracle_undirected, certify_undirected
        for case in _past_desk_scale(directed):
            if case is None:
                seen["skipped"] += 1
                continue
            seed, g, planted, rehung = case
            for kind, t in (("planted", planted), ("re-hung", rehung)):
                target = target_tree_from_digraph(t) if directed else t
                truth, verdict = oracle(g, target), solve(g, target)
                assert verdict.answer == truth.answer, (directed, seed, kind)
                if truth.is_yes:
                    assert certify(g, target, truth) and certify(g, target, verdict), seed
                decided_by = "screen" if "screen" in (verdict.note or "") else "search"
                seen["DU"[not directed], kind, truth.answer, decided_by] += 1
    assert seen == {
        "skipped": 8,
        ("U", "planted", "YES", "search"): 26,
        ("U", "re-hung", "NO", "search"): 24,
        ("U", "re-hung", "NO", "screen"): 2,
        ("D", "planted", "YES", "search"): 26,
        ("D", "re-hung", "NO", "search"): 21,
        ("D", "re-hung", "NO", "screen"): 5,
    }
