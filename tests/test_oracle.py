import random
import time
from itertools import combinations
from math import comb

import pytest

import stiso.oracle
from stiso.oracle import subsets_enumerated
from stiso import (
    DiGraph,
    GenSpec,
    OracleScaleError,
    TargetTree,
    UGraph,
    certify_directed,
    certify_undirected,
    gen_instance,
    gen_tree,
    invalid_neighbors,
    oracle_directed,
    oracle_undirected,
    solve_directed,
    solve_undirected,
    target_tree_from_digraph,
    unrooted_code,
)

from util import (
    LEAFY_GRAPH_ARCS,
    LEAFY_TARGET_ARCS,
    THETA,
    brute_iso,
    complete,
    cycle,
    path,
    reference_oracle_directed,
    reference_oracle_undirected,
    star,
)


def test_oracle_undirected_examples():
    assert oracle_undirected(cycle(4), path(4)).is_yes
    assert not oracle_undirected(cycle(4), star(4)).is_yes


def test_oracle_theta_witness():
    v = oracle_undirected(THETA, path(5))
    assert v.is_yes
    assert certify_undirected(THETA, path(5), v)
    # {xb, az} = edge ids {1, 4} is among the witnesses
    h = UGraph(5, [e for i, e in enumerate(THETA.edges) if i not in (1, 4)])
    assert unrooted_code(h) == unrooted_code(path(5))


def test_oracle_directed_examples():
    c4 = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    p4 = target_tree_from_digraph(DiGraph(4, [(0, 1), (1, 2), (2, 3)]))
    s4 = target_tree_from_digraph(DiGraph(4, [(0, 1), (0, 2), (0, 3)]))
    assert oracle_directed(c4, p4).is_yes
    assert not oracle_directed(c4, s4).is_yes
    d = DiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    p3 = target_tree_from_digraph(DiGraph(3, [(0, 1), (1, 2)]))
    v = oracle_directed(d, p3)
    assert v.is_yes and certify_directed(d, p3, v)


def test_oracle_witnesses_certify():
    for seed in range(25):
        spec = GenSpec(n=5 + seed % 6, k=seed % 3, seed=seed, mode="random")
        inst = gen_instance(spec)
        v = oracle_undirected(inst.graph, inst.target)
        if v.is_yes:
            assert certify_undirected(inst.graph, inst.target, v)
        dspec = GenSpec(n=5 + seed % 6, k=seed % 3, seed=seed, mode="random", directed=True)
        dinst = gen_instance(dspec)
        dv = oracle_directed(dinst.graph, dinst.target)
        if dv.is_yes:
            assert certify_directed(dinst.graph, dinst.target, dv)


def test_oracle_invariant_under_relabeling():
    for seed in range(10):
        spec = GenSpec(n=8, k=2, seed=seed, mode="random")
        inst = gen_instance(spec)
        base = oracle_undirected(inst.graph, inst.target).answer
        rng = random.Random(seed)
        perm_g = list(range(8))
        perm_t = list(range(8))
        rng.shuffle(perm_g)
        rng.shuffle(perm_t)
        relabeled_t = TargetTree(inst.target.tree.relabeled(perm_t), perm_t[inst.target.root])
        assert oracle_undirected(inst.graph.relabeled(perm_g), relabeled_t).answer == base


def test_scale_guard():
    n = 60
    g = complete(n)
    with pytest.raises(OracleScaleError):
        oracle_undirected(g, path(n))


def test_scale_guard_counts_one_edge_per_chain():
    """The guard bounds the subsets the oracle enumerates, one edge on each of
    k chains, not comb(m, k): a planted n = 100, k = 5 instance, where
    C(104, 5) is about 9.2e7, is answered by both oracles, and each YES
    certifies and agrees with its solver."""
    for directed in (False, True):
        inst = gen_instance(GenSpec(n=100, k=5, seed=0, mode="planted-yes", directed=directed))
        g = inst.graph
        assert comb(g.m, 5) > stiso.oracle.SUBSET_GUARD >= subsets_enumerated(g)
        if directed:
            verdict = oracle_directed(g, inst.target)
            assert certify_directed(g, inst.target, verdict)
            assert solve_directed(g, inst.target).is_yes
        else:
            verdict = oracle_undirected(g, inst.target_graph)
            assert certify_undirected(g, inst.target_graph, verdict)
            assert solve_undirected(g, inst.target_graph).is_yes


def _surplus_graphs(count: int):
    """``count`` seeded connected graphs at n 5-30 and surplus k 2-6, as
    ``(g, k)``: alternately a simple graph and the underlying multigraph of a
    digraph with at least one antiparallel pair, each with its edge ids
    shuffled."""
    rng = random.Random(38)
    for i in range(count):
        n, k = rng.randint(5, 30), rng.randint(2, 6)
        tree = gen_tree(n, rng.randrange(10**6))
        pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in tree.edges]
        directed = i % 2 == 1
        if directed:
            u, v = rng.choice(pairs)
            pairs.append((v, u))
        present = set(pairs) if directed else {frozenset(p) for p in pairs}
        while len(pairs) < n - 1 + k:
            pair = tuple(rng.sample(range(n), 2))
            key = pair if directed else frozenset(pair)
            if key not in present:
                present.add(key)
                pairs.append(pair)
        rng.shuffle(pairs)
        yield (DiGraph(n, pairs).underlying() if directed else UGraph(n, pairs)), k


def _connected_deletions(g: UGraph, k: int) -> list[tuple[int, ...]]:
    """Every k-subset of ``g``'s edges whose removal leaves ``g`` connected,
    by brute force.  Removing more edges never reconnects a graph, so each
    such (j+1)-subset extends such a j-subset by a larger edge id."""
    level: list[tuple[int, ...]] = [()]
    for _ in range(k):
        level = [
            s + (e,)
            for s in level
            for e in range(s[-1] + 1 if s else 0, g.m)
            if g.is_connected(skip_edges=set(s + (e,)))
        ]
    return level


def test_chain_enumeration_keeps_every_spanning_tree():
    """On 60 seeded graphs, simple and the underlying multigraphs of digraphs
    with antiparallel pairs, at n 5-30 and k 2-6, the oracle's subsets are a
    subsequence of ``combinations(range(m), k)``, in order, and include every
    k-subset whose removal leaves a spanning tree.  A list is such a
    subsequence iff each entry is strictly increasing in ``range(m)`` and the
    entries strictly increase in lexicographic order."""
    graphs = enumerated = checked = 0
    for g, k in _surplus_graphs(60):
        got = list(stiso.oracle._subsets(g, k))
        assert all(len(s) == k and 0 <= s[0] and s[-1] < g.m for s in got)
        assert all(a < b for s in got for a, b in zip(s, s[1:]))
        assert all(a < b for a, b in zip(got, got[1:]))
        want = _connected_deletions(g, k)
        assert set(want) <= set(got), (g, k)
        graphs += g.is_multigraph
        enumerated += len(got)
        checked += len(want)
    assert (graphs, enumerated, checked) == (30, 64248, 37943)  # comb(m, k) sums to 2483979


def test_invalid_neighbors_tree():
    t = star(6)
    for v in range(6):
        report = invalid_neighbors(t, v)
        assert report.invalid == frozenset()


def test_invalid_neighbors_cycle():
    g = cycle(4)
    for v in range(4):
        report = invalid_neighbors(g, v)
        assert len(report.invalid) == 2  # k = 1


def test_invalid_neighbors_complete():
    g = complete(4)
    for v in range(4):
        report = invalid_neighbors(g, v)
        assert len(report.invalid) == 3 <= 2 * 3


def test_invalid_neighbors_bound_random():
    for seed in range(30):
        spec = GenSpec(n=6 + seed % 10, k=seed % 4, seed=seed, mode="random")
        g = gen_instance(spec).graph
        for v in range(g.n):
            report = invalid_neighbors(g, v)
            assert len(report.invalid) <= 2 * spec.k


def _chain(n: int):
    """The rooted directed path 0 -> 1 -> ... -> n - 1."""
    return target_tree_from_digraph(DiGraph(n, [(i, i + 1) for i in range(n - 1)]))


@pytest.mark.parametrize(
    "decide, error, note",
    [
        (lambda: solve_directed(DiGraph(3, [(0, 1), (1, 2)]), _chain(4)), "vertex counts differ", None),
        (lambda: oracle_undirected(cycle(3), path(4)), "vertex counts differ", None),
        (lambda: oracle_directed(DiGraph(3, [(0, 1), (1, 2)]), _chain(4)), "vertex counts differ", None),
        (
            lambda: oracle_undirected(UGraph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]), path(5)),
            None,
            "graph is disconnected: no spanning tree exists",
        ),
        (
            lambda: oracle_directed(DiGraph(4, [(0, 1), (1, 0), (2, 3)]), _chain(4)),
            None,
            "graph is weakly disconnected: no spanning tree exists",
        ),
        (lambda: invalid_neighbors(UGraph(4, [(0, 1), (2, 3)]), 0), "requires a connected graph", None),
    ],
    ids=[
        "solver-directed-counts",
        "oracle-undirected-counts",
        "oracle-directed-counts",
        "oracle-undirected-disconnected",
        "oracle-directed-disconnected",
        "invalid-neighbors-disconnected",
    ],
)
def test_refusals_and_disconnected_notes(decide, error, note):
    if error is not None:
        with pytest.raises(ValueError, match=error):
            decide()
    else:
        v = decide()
        assert (v.answer, v.note) == ("NO", note)


def test_degree_test_keeps_every_verdict():
    """Both oracles return the Verdict of the untested enumeration: answer,
    removed set, mapping and note, on a seeded grid of 424 instances."""
    count = 0
    for directed in (False, True):
        for n in range(4, 13):
            for k in range(6):
                if not directed and n - 1 + k > comb(n, 2):
                    continue  # more edges than a simple graph on n vertices has
                for mode in ("planted-yes", "random"):
                    for rep in range(2):
                        seed = 1000 * n + 100 * k + 10 * rep + directed
                        spec = GenSpec(n=n, k=k, seed=seed, mode=mode, directed=directed)
                        inst = gen_instance(spec)
                        if directed:
                            got = oracle_directed(inst.graph, inst.target)
                            want = reference_oracle_directed(inst.graph, inst.target)
                        else:
                            got = oracle_undirected(inst.graph, inst.target_graph)
                            want = reference_oracle_undirected(inst.graph, inst.target_graph)
                        assert got == want, spec
                        count += 1
    assert count == 424


def _count_builds(monkeypatch, name: str) -> list[int]:
    """Wrap the graph constructor ``name`` that ``stiso.oracle`` calls; the
    returned list grows by one entry per graph built."""
    real = getattr(stiso.oracle, name)
    built: list[int] = []

    def counted(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(stiso.oracle, name, counted)
    return built


@pytest.mark.parametrize("directed", [False, True])
def test_oracle_builds_only_degree_fitting_subsets(monkeypatch, directed):
    """A k = 5 NO builds a graph for no subset that fails the degree test,
    counted here by kept degrees, and so for far fewer than comb(m, k)."""
    k = 5
    inst = gen_instance(GenSpec(n=10, k=k, seed=0, mode="random", directed=directed))
    g = inst.graph
    pairs = g.arcs if directed else g.edges
    want = sorted(map(len, inst.target.tree.incidence))
    fitting = 0
    for subset in combinations(range(g.m), k):
        deg = [0] * g.n
        for i, (u, v) in enumerate(pairs):
            if i not in subset:
                deg[v] += 1
                if not directed:
                    deg[u] += 1
        fitting += max(deg) <= 1 if directed else sorted(deg) == want
    built = _count_builds(monkeypatch, "DiGraph" if directed else "UGraph")
    if directed:
        verdict = oracle_directed(g, inst.target)
    else:
        verdict = oracle_undirected(g, inst.target_graph)
    assert not verdict.is_yes
    assert 0 < len(built) <= fitting
    assert 20 * fitting < comb(g.m, k)


def test_oracles_answer_long_paths():
    """The bijection search keeps its state on an explicit stack: a 600-vertex
    directed path and a 1200-vertex path answer YES with certified witnesses,
    where a search that recursed once per vertex raised RecursionError."""
    d = DiGraph(600, [(i, i + 1) for i in range(599)])
    target = target_tree_from_digraph(d)
    verdict = oracle_directed(d, target)
    assert verdict.is_yes and certify_directed(d, target, verdict)
    g = path(1200)
    verdict = oracle_undirected(g, g)
    assert verdict.is_yes and certify_undirected(g, g, verdict)


def test_directed_oracle_never_builds_the_target_codes(monkeypatch):
    """With ``TargetTree.build`` raising, the directed oracle still answers
    every directed instance of the acceptance corpus as the solver does, and
    every YES certifies: a fault in the solvers' canonical codes cannot reach
    the oracle that judges them."""
    from test_acceptance import _corpus_specs

    from stiso import solve_directed

    cases = []
    for spec in _corpus_specs(directed=True):
        inst = gen_instance(spec)
        target = TargetTree(inst.target.tree, inst.target.root)
        cases.append((spec, inst, target, solve_directed(inst.graph, inst.target).answer))

    def refuse(tt):
        raise AssertionError("the oracle built the target's canonical codes")

    monkeypatch.setattr(TargetTree, "build", refuse)
    yes = 0
    for spec, inst, target, answer in cases:  # a fresh target: no canonical field is set
        verdict = oracle_directed(inst.graph, target)
        assert verdict.answer == answer, spec
        if verdict.is_yes:
            assert certify_directed(inst.graph, target, verdict), spec
            yes += 1
    assert yes >= len(cases) // 2


def test_oracles_answer_where_the_unpinned_search_blew_up():
    """Two instances that took seconds: a k = 0 directed NO whose root has
    eight leaves (16.6 s when each leaf tried every image), and a relabelled
    2400-vertex path (3.4 s when the search started from a vertex with no
    known image).  Both answer in well under a second."""
    d, target = DiGraph(20, LEAFY_GRAPH_ARCS), target_tree_from_digraph(DiGraph(20, LEAFY_TARGET_ARCS))
    start = time.perf_counter()
    assert not oracle_directed(d, target).is_yes
    assert time.perf_counter() - start < 1.0
    t = path(2400)
    perm = list(range(2400))
    random.Random(2400).shuffle(perm)
    g = t.relabeled(perm)
    start = time.perf_counter()
    verdict = oracle_undirected(g, t)
    assert time.perf_counter() - start < 1.0
    assert verdict.is_yes and certify_undirected(g, t, verdict)


def test_leaf_rule_keeps_the_pinned_search_exact():
    """On 72 seeded pairs of trees with equal degree multisets, isomorphic or
    not, and every pin pair ``(a, b)``, the search returns a mapping iff
    ``brute_iso`` finds an isomorphism with ``a -> b``, and each mapping is
    one: a leaf that tries only its first image loses no witness."""
    pairs = []
    for n in range(4, 10):
        by_degrees: dict[tuple[int, ...], list[UGraph]] = {}
        for seed in range(60):
            t = gen_tree(n, 100 * n + seed)
            by_degrees.setdefault(tuple(sorted(map(len, t.incidence))), []).append(t)
        groups = sorted(by_degrees.values(), key=len, reverse=True)
        pairs += [pair for group in groups for pair in zip(group, group[1:])][:12]
    assert len(pairs) == 72
    found = {True: 0, False: 0}
    iso_pairs = 0
    for t, h in pairs:
        edges_h = {frozenset(e) for e in h.edges}
        iso_pairs += brute_iso(t, h)
        for a in range(t.n):
            for b in range(h.n):
                mapping = stiso.oracle._bijection_search(t, h, a, b)
                assert (mapping is not None) == brute_iso(t, h, fixed=(a, b)), (t.edges, h.edges, a, b)
                found[mapping is not None] += 1
                if mapping is not None:
                    assert mapping[a] == b and sorted(mapping.values()) == list(range(h.n))
                    assert {frozenset((mapping[u], mapping[v])) for u, v in t.edges} == edges_h
    assert 0 < iso_pairs < len(pairs)
    assert found[True] > 0 and found[False] > 0
