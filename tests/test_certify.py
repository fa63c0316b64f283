"""The certifiers against the earlier edge-set certifiers of ``util``.

Every YES the solvers give on a seeded grid, and a set of mutated
certificates built from each, must get the same accept or reject from
``certify_undirected`` / ``certify_directed`` as from
``reference_certify_undirected`` / ``reference_certify_directed``.
"""

import random
from collections import Counter

from stiso import (
    DiGraph,
    GenSpec,
    TargetTree,
    UGraph,
    Verdict,
    certify_directed,
    certify_undirected,
    gen_instance,
    solve_directed,
    solve_undirected,
)

from util import cycle, path, reference_certify_directed, reference_certify_undirected


def _grid():
    """1008 specs: both flavours, planted and random, n 5-200, k 0-6."""
    for seed in range(1008):
        n = 5 + seed * 37 % 196
        k = seed % 7
        mode = "planted-yes" if seed % 4 < 3 else "random"
        if mode == "random":
            n = 5 + n % 8  # a random instance is seldom YES unless it is small
        yield GenSpec(n=n, k=k, seed=seed, mode=mode, directed=bool(seed // 7 % 2))


def _relabeled_shuffled(g, rng):
    """``g`` under a random vertex permutation, its edges (arcs) in random order."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    pairs = [(perm[u], perm[v]) for u, v in (g.arcs if isinstance(g, DiGraph) else g.edges)]
    rng.shuffle(pairs)
    return DiGraph(g.n, pairs) if isinstance(g, DiGraph) else UGraph(g.n, pairs)


def _mutants(g, target, verdict, rng):
    """``(name, target, verdict)`` for each tampered form of a YES certificate."""
    mapping, removed = verdict.mapping, verdict.removed
    n, m = g.n, len(g.arcs if isinstance(g, DiGraph) else g.edges)
    a, b = rng.sample(range(n), 2)
    kept = [e for e in range(m) if e not in removed]
    out = []

    swapped = dict(mapping)
    swapped[a], swapped[b] = mapping[b], mapping[a]
    out.append(("swapped values", target, swapped, removed))
    out.append(("two keys on one vertex", target, {**mapping, a: mapping[b]}, removed))
    missing = dict(mapping)
    del missing[a]
    out.append(("missing key", target, missing, removed))
    if removed:
        gone = rng.choice(sorted(removed))
        swap = removed - {gone} | {rng.choice(kept)}
        out.append(("removed id for a kept one", target, mapping, swap))
        out.append(("out-of-range id", target, mapping, removed - {gone} | {rng.choice((-1, m))}))
        out.append(("one removed id too few", target, mapping, removed - {gone}))
    out.append(("one removed id too many", target, mapping, removed | {rng.choice(kept)}))
    tree = target.tree
    leaf = rng.choice([v for v in range(n) if len(tree.incidence[v]) == 1])
    out.append(("target rooted at a leaf", TargetTree(tree, leaf), mapping, removed))
    if not isinstance(g, DiGraph):
        out.append(("plain target", tree, mapping, removed))
    return [(name, t, Verdict("YES", mapping=mp, removed=frozenset(rm))) for name, t, mp, rm in out]


def test_certifiers_agree_with_the_edge_set_certifiers():
    outcomes = Counter()
    yes = 0
    for spec in _grid():
        rng = random.Random(spec.seed)
        inst = gen_instance(spec)
        g = _relabeled_shuffled(inst.graph, rng)
        if spec.directed:
            certify, reference = certify_directed, reference_certify_directed
            verdict = solve_directed(g, inst.target)
        else:
            certify, reference = certify_undirected, reference_certify_undirected
            verdict = solve_undirected(g, inst.target)
        if not verdict.is_yes:
            continue
        yes += 1
        assert certify(g, inst.target, verdict) and reference(g, inst.target, verdict), spec
        for name, target, mutant in _mutants(g, inst.target, verdict, rng):
            got = certify(g, target, mutant)
            assert got == reference(g, target, mutant), (spec, name)
            outcomes[name, got] += 1
    assert yes >= 800
    # every mutation but a swap, a leaf rooting or a plain target is always rejected
    assert {name for name, got in outcomes if got} <= {
        "swapped values", "target rooted at a leaf", "plain target"
    }
    assert outcomes["swapped values", False] and outcomes["swapped values", True]
    assert outcomes["plain target", True] and outcomes["target rooted at a leaf", False]


def test_non_tree_target_is_rejected_not_raised():
    # n - 1 edges but a triangle and an isolated vertex: no tree, so no certificate
    v = solve_undirected(cycle(4), path(4))
    triangle = UGraph(4, [(0, 1), (1, 2), (0, 2)])
    assert certify_undirected(cycle(4), triangle, v) is False
    assert reference_certify_undirected(cycle(4), triangle, v) is False
