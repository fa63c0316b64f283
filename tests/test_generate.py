import hashlib
import random
import tracemalloc
from math import comb

import pytest

from stiso import (
    DiGraph,
    GenSpec,
    TargetTree,
    UGraph,
    gen_instance,
    gen_tree,
    make_contractible,
    oracle_directed,
    oracle_undirected,
    tree_centers,
    unrooted_code,
)
from stiso.generate import PLANTED, GenInstance, _orient_from_root, _random_tree_edges


def test_gen_tree_small_shapes():
    assert gen_tree(2, 0).edges == ((0, 1),)
    for seed in range(10):
        t = gen_tree(3, seed)
        assert t.m == 2 and t.is_connected()
    with pytest.raises(ValueError):
        gen_tree(1, 0)


def test_gen_tree_deterministic():
    assert gen_tree(17, 42).edges == gen_tree(17, 42).edges
    assert gen_tree(17, 42).edges != gen_tree(17, 43).edges


def test_gen_tree_is_a_tree():
    for seed in range(20):
        t = gen_tree(12, seed)
        assert t.m == 11 and t.is_connected()


def test_instance_shape_and_connectivity():
    for seed in range(30):
        for directed in (False, True):
            spec = GenSpec(n=6 + seed % 7, k=seed % 4, seed=seed, mode="random", directed=directed)
            inst = gen_instance(spec)
            g = inst.graph
            assert g.m == spec.n + spec.k - 1
            und = g.underlying() if isinstance(g, DiGraph) else g
            assert und.is_connected()
            assert inst.target.n == spec.n


def test_planted_undirected_truth():
    for seed in range(15):
        spec = GenSpec(n=8, k=2, seed=seed, mode="planted-yes")
        inst = gen_instance(spec)
        assert inst.truth == "YES"
        assert len(inst.planted_extra_ids) == 2
        # removing the planted extras leaves a tree isomorphic to the target
        h = UGraph(
            spec.n,
            [e for i, e in enumerate(inst.graph.edges) if i not in inst.planted_extra_ids],
        )
        assert unrooted_code(h) == unrooted_code(inst.target.tree)
        assert oracle_undirected(inst.graph, inst.target).is_yes


def test_planted_k0_is_the_tree_itself():
    spec = GenSpec(n=7, k=0, seed=3, mode="planted-yes")
    inst = gen_instance(spec)
    assert inst.graph.m - (inst.graph.n - 1) == 0
    assert unrooted_code(inst.graph) == unrooted_code(inst.target.tree)


def test_planted_k1_is_unicyclic():
    inst = gen_instance(GenSpec(n=4, k=1, seed=0, mode="planted-yes"))
    assert inst.truth == "YES"
    assert inst.graph.m - (inst.graph.n - 1) == 1 and inst.graph.is_connected()
    h = UGraph(4, [e for i, e in enumerate(inst.graph.edges) if i not in inst.planted_extra_ids])
    assert unrooted_code(h) == unrooted_code(inst.target.tree)


def test_planted_directed_truth_and_extras_on_chains():
    for seed in range(15):
        spec = GenSpec(n=8, k=2, seed=seed, mode="planted-yes", directed=True)
        inst = gen_instance(spec)
        assert inst.truth == "YES"
        assert oracle_directed(inst.graph, inst.target).is_yes
        kern = make_contractible(inst.graph.underlying())
        on_chains = set()
        for chain in kern.chains:
            on_chains.update(chain.edge_ids)
        assert set(inst.planted_extra_ids) <= on_chains


def test_instance_determinism():
    spec = GenSpec(n=9, k=2, seed=11, mode="planted-yes", directed=True)
    a, b = gen_instance(spec), gen_instance(spec)
    assert a.graph.serialize() == b.graph.serialize()
    assert a.target_graph.serialize() == b.target_graph.serialize()
    assert a.planted_extra_ids == b.planted_extra_ids


def test_infeasible_k_rejected():
    with pytest.raises(ValueError):
        GenSpec(n=4, k=4, seed=0)  # C(4,2) - 3 = 3 < 4
    with pytest.raises(ValueError):
        GenSpec(n=3, k=5, seed=0, directed=True)  # (n-1)^2 = 4 < 5
    with pytest.raises(ValueError):
        GenSpec(n=1, k=0, seed=0)
    with pytest.raises(ValueError):
        GenSpec(n=5, k=1, seed=0, mode="bogus")


def _candidate_list_instance(spec: GenSpec) -> GenInstance:
    """The generator as it was before extras were drawn by rank: it lists every
    pair (arc) off the tree, O(n^2) of them, and samples ``k`` of that list."""
    rng = random.Random(spec.seed)
    n, k = spec.n, spec.k
    tree_edges = _random_tree_edges(n, rng)
    if spec.directed:
        root = rng.randrange(n)
        base = _orient_from_root(n, tree_edges, root)
        existing = set(base)
        candidates = [
            (u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in existing
        ]
        extras = rng.sample(candidates, k)
        graph = DiGraph(n, base + extras)
    else:
        existing = {(min(u, v), max(u, v)) for u, v in tree_edges}
        candidates = [
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in existing
        ]
        extras = rng.sample(candidates, k)
        graph = UGraph(n, tree_edges + extras)
    extra_ids = tuple(range(n - 1, n - 1 + k))
    if spec.mode == PLANTED:
        perm = list(range(n))
        rng.shuffle(perm)
        if spec.directed:
            target_graph = DiGraph(n, [(perm[u], perm[v]) for u, v in base])
            target = TargetTree(UGraph(n, list(target_graph.arcs)), perm[root])
        else:
            target_graph = UGraph(n, [(perm[u], perm[v]) for u, v in tree_edges])
            target = TargetTree(target_graph, tree_centers(target_graph)[0])
        truth = "YES"
        if spec.directed and k >= 2:  # every planted extra lies on an anchor chain
            chains = make_contractible(graph.underlying()).chains
            assert set(extra_ids) <= {eid for chain in chains for eid in chain.edge_ids}
    else:
        t_edges = _random_tree_edges(n, rng)
        if spec.directed:
            t_root = rng.randrange(n)
            t_arcs = _orient_from_root(n, t_edges, t_root)
            target_graph = DiGraph(n, t_arcs)
            target = TargetTree(UGraph(n, t_arcs), t_root)
        else:
            target_graph = UGraph(n, t_edges)
            target = TargetTree(target_graph, tree_centers(target_graph)[0])
        truth = "UNKNOWN"
        extra_ids = ()
    return GenInstance(graph, target, target_graph, truth, extra_ids)


def _cap(n: int, directed: bool) -> int:
    return (n - 1) ** 2 if directed else comb(n, 2) - (n - 1)


def _identity_specs():
    # ``random.sample`` copies a population of at most 21 items (k <= 5), or
    # 85 items (6 <= k <= 21), into a pool, and samples from a set otherwise.
    # The population is the cap(n) free pairs: 0..28 undirected and 1..64
    # directed for n <= 9, 78 and 91 undirected at n = 14 and 15.  So both
    # branches occur with small and large k, and k runs up to the cap, where
    # every free pair is drawn.
    for directed in (False, True):
        for n in range(2, 10):
            for k in range(_cap(n, directed) + 1):
                yield n, k, directed
        for n in (14, 15, 20, 44, 60, 100, 257):
            for k in [*range(7), _cap(n, directed)] if n <= 15 else range(7):
                yield n, k, directed


def test_rank_draw_matches_candidate_list():
    count = 0
    for n, k, directed in _identity_specs():
        for mode in ("planted-yes", "random"):
            for s in range(2):
                seed = 1000 * n + 10 * k + s
                spec = GenSpec(n=n, k=k, seed=seed, mode=mode, directed=directed)
                got, want = gen_instance(spec), _candidate_list_instance(spec)
                assert got.graph.serialize() == want.graph.serialize(), spec
                assert got.target_graph.serialize() == want.target_graph.serialize(), spec
                assert got.target.root == want.target.root, spec
                assert got.planted_extra_ids == want.planted_extra_ids, spec
                assert got.truth == want.truth, spec
                count += 1
    assert count == 1624


# SHA-256 of the serialized instances of the grid below, printed by the same
# grid on the generator that listed every free pair before sampling (the one
# ``_candidate_list_instance`` copies).  A byte-identical generator keeps it.
PINNED_INSTANCE_SHA256 = "aaa8d0d69ae4cccdb787043c66036113fa3639076dfcbecdb3eb867e3404653e"


def test_instance_hash_up_to_n_1000():
    h = hashlib.sha256()
    count = 0
    for n in (2, 3, 5, 10, 31, 100, 257, 1000):
        for directed in (False, True):
            for k in range(min(_cap(n, directed), 6) + 1):
                for mode in ("planted-yes", "random"):
                    for s in range(2):
                        seed = 5000 + 100 * n + 10 * k + s
                        spec = GenSpec(n=n, k=k, seed=seed, mode=mode, directed=directed)
                        inst = gen_instance(spec)
                        h.update(f"{spec} {inst.truth} {inst.target.root}\n".encode())
                        h.update(inst.graph.serialize().encode())
                        h.update(inst.target_graph.serialize().encode())
                        h.update(f"{inst.planted_extra_ids}\n".encode())
                        count += 1
    assert count == 376
    assert h.hexdigest() == PINNED_INSTANCE_SHA256


@pytest.mark.parametrize("directed", [False, True])
def test_generation_memory_is_linear_in_n(directed):
    # a list of every free pair at n = 1000 peaks at about 46 MB undirected
    # and 86 MB directed; the rank draw keeps O(n) state
    spec = GenSpec(n=1000, k=6, seed=4, mode="planted-yes", directed=directed)
    tracemalloc.start()
    try:
        gen_instance(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
