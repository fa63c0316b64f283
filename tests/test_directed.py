import hashlib
import random
import re
import sys
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

import stiso.directed
from stiso import (
    AnchorChain,
    DiGraph,
    DirectedStats,
    GenSpec,
    NotArborescenceError,
    UGraph,
    Verdict,
    certify_directed,
    chain_candidates,
    gen_instance,
    is_spanning_arborescence,
    make_contractible,
    oracle_directed,
    rooted_iso_mapping,
    solve_directed,
    target_tree_from_digraph,
)
from stiso.directed import _arborescence_without, _search
from stiso.graphs import degree_gap, degree_shift, degrees_cover, roots_reaching_all
from stiso.treecode import _ahu, _pair_children
from stiso.undirected import _preorder
from util import root_cycle_arborescence


def _chain(verts, eids):
    return AnchorChain(vertices=tuple(verts), edge_ids=tuple(eids))


def _digraph_for(arcs, n=None):
    n = n if n is not None else max(max(a) for a in arcs) + 1
    return DiGraph(n, arcs)


def test_chain_candidates_consistent_direction_root_off_chain():
    # u=0 -> v1=1 -> v2=2 -> w=3: only the arc into the far anchor is removable
    d = _digraph_for([(0, 1), (1, 2), (2, 3)], 4)
    cc = chain_candidates(d, _chain([0, 1, 2, 3], [0, 1, 2]), None)
    assert cc.candidates == {2}


def test_chain_candidates_one_reversal_root_off_chain():
    # 0 -> 1 <- 2 <- 3: vertex 1 has two incoming chain arcs, either may go
    d = _digraph_for([(0, 1), (2, 1), (3, 2)], 4)
    cc = chain_candidates(d, _chain([0, 1, 2, 3], [0, 1, 2]), None)
    assert cc.candidates == {0, 1}


def test_chain_candidates_root_entry_interior():
    # 0 -> 1 -> 2 with the root entering at interior vertex 1
    d = _digraph_for([(0, 1), (1, 2)], 3)
    cc = chain_candidates(d, _chain([0, 1, 2], [0, 1]), root_entry=1)
    assert cc.candidates == {0}


def test_chain_candidates_two_reversals_unsatisfiable_off_root():
    # 0 -> 1 <- 2 -> 3: interior 1 has in-degree 2 and interior 2 has 0
    d = _digraph_for([(0, 1), (2, 1), (2, 3)], 4)
    cc = chain_candidates(d, _chain([0, 1, 2, 3], [0, 1, 2]), None)
    assert cc.candidates == set()


def test_chain_candidates_single_hop():
    d = _digraph_for([(0, 1)], 2)
    cc = chain_candidates(d, _chain([0, 1], [0]), None)
    assert cc.candidates == {0}


def test_chain_candidates_validates_input():
    d = _digraph_for([(0, 1), (1, 2)], 3)
    with pytest.raises(ValueError):
        chain_candidates(d, _chain([0, 1, 2], [0, 1]), root_entry=0)
    with pytest.raises(ValueError):
        chain_candidates(d, _chain([0, 2, 1], [0, 1]), None)


def test_is_spanning_arborescence():
    assert is_spanning_arborescence(_digraph_for([(0, 1), (1, 2)], 3), 0)
    assert not is_spanning_arborescence(_digraph_for([(0, 1), (1, 2)], 3), 1)
    cyc = _digraph_for([(0, 1), (1, 2), (2, 0)], 3)
    assert all(not is_spanning_arborescence(cyc, r) for r in range(3))
    two_in = _digraph_for([(0, 2), (1, 2), (0, 3)], 4)
    assert not is_spanning_arborescence(two_in, 0)


def test_directed_cycle_vs_path_yes():
    c4 = _digraph_for([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    target = target_tree_from_digraph(_digraph_for([(0, 1), (1, 2), (2, 3)], 4))
    v = solve_directed(c4, target)
    assert v.is_yes and len(v.removed) == 1
    assert certify_directed(c4, target, v)


def test_directed_cycle_vs_out_star_no():
    c4 = _digraph_for([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    target = target_tree_from_digraph(_digraph_for([(0, 1), (0, 2), (0, 3)], 4))
    assert not solve_directed(c4, target).is_yes


def test_three_vertex_double_link_example():
    d = _digraph_for([(0, 1), (1, 2), (2, 0), (0, 2)], 3)
    target = target_tree_from_digraph(_digraph_for([(0, 1), (1, 2)], 3))
    v = solve_directed(d, target)
    assert v.is_yes
    assert {d.arcs[a] for a in v.removed} == {(2, 0), (0, 2)}
    assert certify_directed(d, target, v)


def test_non_arborescence_target_rejected():
    with pytest.raises(NotArborescenceError):
        target_tree_from_digraph(_digraph_for([(0, 1), (2, 1)], 3))


def test_disconnected_is_no():
    d = DiGraph(4, [(0, 1), (2, 3), (3, 2)])
    target = target_tree_from_digraph(_digraph_for([(0, 1), (1, 2), (2, 3)], 4))
    v = solve_directed(d, target)
    assert not v.is_yes and v.note is not None


def test_certify_rejects_tampering():
    c4 = _digraph_for([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    target = target_tree_from_digraph(_digraph_for([(0, 1), (1, 2), (2, 3)], 4))
    v = solve_directed(c4, target)
    assert certify_directed(c4, target, v)
    mapping = dict(v.mapping)
    ks = sorted(mapping)
    mapping[ks[0]], mapping[ks[1]] = mapping[ks[1]], mapping[ks[0]]
    assert not certify_directed(c4, target, Verdict("YES", mapping=mapping, removed=v.removed))
    assert not certify_directed(c4, target, Verdict("NO"))
    # removing another arc, none, or one out of range breaks the certificate
    for removed in ({(a + 1) % 4 for a in v.removed}, set(), {7}, {0, 1}):
        tampered = Verdict("YES", mapping=v.mapping, removed=frozenset(removed))
        assert not certify_directed(c4, target, tampered), removed


def test_one_redundant_arc_per_chain():
    for seed in range(30):
        k = 2 + seed % 2
        spec = GenSpec(n=6 + seed % 6, k=k, seed=seed, mode="planted-yes", directed=True)
        inst = gen_instance(spec)
        v = solve_directed(inst.graph, inst.target)
        assert v.is_yes
        kern = make_contractible(inst.graph.underlying())
        chain_of_arc = {}
        for cid, chain in enumerate(kern.chains):
            for a in chain.edge_ids:
                chain_of_arc[a] = cid
        chains_hit = [chain_of_arc[a] for a in v.removed]
        assert len(set(chains_hit)) == k


def test_plan_work_bound():
    for seed in range(30):
        k = 2 + seed % 2
        mode = "planted-yes" if seed % 2 == 0 else "random"
        spec = GenSpec(n=7 + seed % 5, k=k, seed=seed, mode=mode, directed=True)
        inst = gen_instance(spec)
        stats = DirectedStats()
        solve_directed(inst.graph, inst.target, stats=stats)
        assert stats.plans_max_per_root <= comb(3 * k - 3, k) * 2**k


def test_candidate_soundness_against_exhaustive_deletions():
    """Any deletion on a chain that completes to a spanning arborescence must
    be one of the chain's candidates for that root."""
    for seed in range(12):
        spec = GenSpec(n=7, k=2, seed=seed, mode="random", directed=True)
        d = gen_instance(spec).graph
        kern = make_contractible(d.underlying())
        chain_of_arc = {}
        for cid, chain in enumerate(kern.chains):
            for a in chain.edge_ids:
                chain_of_arc[a] = cid
        interiors = {}
        for cid, chain in enumerate(kern.chains):
            for pos in range(1, len(chain.vertices) - 1):
                interiors[chain.vertices[pos]] = (cid, pos)
        for subset in combinations(range(d.m), 2):
            kept = [a for i, a in enumerate(d.arcs) if i not in subset]
            f = DiGraph(d.n, kept)
            roots = [v for v in range(f.n) if f.in_degree(v) == 0]
            if len(roots) != 1 or not is_spanning_arborescence(f, roots[0]):
                continue
            r = roots[0]
            entry = _entry_for_root(d, kern, interiors, r)
            for aid in subset:
                cid = chain_of_arc.get(aid)
                if cid is None:
                    continue
                pos = entry[1] if entry is not None and entry[0] == cid else None
                cc = chain_candidates(d, kern.chains[cid], pos)
                assert aid in cc.candidates, (seed, subset, r, cid)


def _entry_for_root(d, kern, interiors, r):
    from collections import deque

    core = set(kern.anchors) | set(interiors)
    if r in kern.anchors:
        return None
    if r in interiors:
        return interiors[r]
    und = d.underlying()
    seen = {r}
    queue = deque([r])
    while queue:
        x = queue.popleft()
        if x in core:
            return interiors.get(x)
        for _, w in und.incidence[x]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    raise AssertionError("no core vertex reachable")


def test_planted_directed_always_yes():
    for seed in range(30):
        spec = GenSpec(n=5 + seed % 8, k=seed % 4, seed=seed, mode="planted-yes", directed=True)
        inst = gen_instance(spec)
        v = solve_directed(inst.graph, inst.target)
        assert v.is_yes and certify_directed(inst.graph, inst.target, v)


def test_root_in_pendant_tree_off_chain_interior():
    # anchors 0 and 1 joined by three chains (through 2, 3, 4); a pendant
    # path 2-5-6 hangs off chain interior 2 and the only viable root is the
    # pendant leaf 6, exercising the root-entry handling for interiors
    arcs = [(6, 5), (5, 2), (2, 0), (2, 1), (0, 3), (1, 4), (3, 1), (4, 0)]
    d = DiGraph(7, arcs)
    target = target_tree_from_digraph(
        DiGraph(7, [(6, 5), (5, 2), (2, 0), (2, 1), (0, 3), (1, 4)])
    )
    v = solve_directed(d, target)
    assert v.is_yes
    assert {d.arcs[a] for a in v.removed} == {(3, 1), (4, 0)}
    assert certify_directed(d, target, v)
    assert oracle_directed(d, target).is_yes


def test_antiparallel_pair_instances():
    # 2-cycle plus pendant arcs; the pair is two parallel underlying edges
    d = _digraph_for([(0, 1), (1, 0), (0, 2), (1, 3)], 4)
    target = target_tree_from_digraph(_digraph_for([(0, 1), (1, 2), (2, 3)], 4))
    v = solve_directed(d, target)
    assert v.is_yes == oracle_directed(d, target).is_yes


@pytest.mark.parametrize(
    "und_edges",
    [
        [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)],  # three parallel chains
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],  # two cycles sharing vertex 0
    ],
    ids=["parallel-chains", "shared-vertex-cycles"],
)
def test_exhaustive_orientations_agree_with_oracle(und_edges):
    """All 64 orientations of each k=2 shape against a path and an out-star,
    covering every arc-reversal pattern on chains, including self-loop chains."""
    from itertools import product

    targets = [
        target_tree_from_digraph(_digraph_for([(0, 1), (1, 2), (2, 3), (3, 4)], 5)),
        target_tree_from_digraph(_digraph_for([(0, 1), (0, 2), (0, 3), (0, 4)], 5)),
    ]
    for bits in product((0, 1), repeat=6):
        arcs = [(u, v) if b == 0 else (v, u) for (u, v), b in zip(und_edges, bits)]
        d = DiGraph(5, arcs)
        for target in targets:
            v = solve_directed(d, target)
            assert v.answer == oracle_directed(d, target).answer, (arcs, target.root)
            if v.is_yes:
                assert certify_directed(d, target, v)


def test_integer_code_hit_test_is_exact(monkeypatch):
    """For every plan whose kept arcs span, the integer-code check against
    the target passes iff the string-code mapping exists."""
    spans = []
    search = stiso.directed._arborescence_without

    def recording(d, r, deleted):
        witness = search(d, r, deleted)
        if witness is not None:
            spans.append((d, r, frozenset(deleted), witness))
        return witness

    monkeypatch.setattr(stiso.directed, "_arborescence_without", recording)
    outcomes = set()
    for seed in range(80):
        k = 2 + seed % 4
        mode = "planted-yes" if seed % 2 == 0 else "random"
        spec = GenSpec(n=max(k + 4, 8 + seed % 23), k=k, seed=seed, mode=mode, directed=True)
        inst = gen_instance(spec)
        target = inst.target.build()
        spans.clear()
        solve_directed(inst.graph, target)
        table, target_id = target.table, target.ids[target.root]
        size = len(table)
        for d, r, deleted, (order, parent) in spans:
            hit = _ahu(reversed(order), parent, table)[0][r] == target_id
            kept = [a for i, a in enumerate(d.arcs) if i not in deleted]
            witness = UGraph.multigraph(d.n, kept)
            assert hit == (rooted_iso_mapping(target.tree, target.root, witness, r) is not None)
            outcomes.add(hit)
        assert len(table) == size
    assert outcomes == {True, False}



def _plan_bound(d: DiGraph, r: int) -> int:
    """Plans the in-arc choice can form at root ``r``: 2^(k - indeg r) at most."""
    return 2 ** (d.m - (d.n - 1) - d.in_degree(r))


def test_in_arc_plans_per_root_bound():
    """Over test_plan_work_bound's corpus, every root forms at most
    2^(k - indeg r) plans, so no root forms more than 2^k.  The plans are
    formed below the out-degree screen, which decides some of these NOs."""
    for seed in range(30):
        k = 2 + seed % 2
        mode = "planted-yes" if seed % 2 == 0 else "random"
        spec = GenSpec(n=7 + seed % 5, k=k, seed=seed, mode=mode, directed=True)
        inst = gen_instance(spec)
        stats = DirectedStats()
        lines = []
        _unscreened(inst.graph, inst.target, stats=stats, trace=lines.append)
        for line in lines:
            m = re.fullmatch(r"root=(\d+) plans=(\d+) surviving=\d+ (yes|no)", line)
            if m is None:
                assert re.fullmatch(r"root=\d+ unreachable", line), line
                continue
            assert int(m[2]) <= _plan_bound(inst.graph, int(m[1])), (spec, line)
        assert stats.plans_max_per_root <= 2**k
        assert stats.subsets_examined == 0


def test_two_sources_is_no_without_plans():
    # 0 and 4 both have in-degree 0: no vertex reaches both
    d = DiGraph(5, [(0, 1), (1, 2), (2, 1), (4, 3), (3, 2)])
    target = target_tree_from_digraph(_digraph_for([(0, 1), (1, 2), (2, 3), (3, 4)], 5))
    stats = DirectedStats()
    v = solve_directed(d, target, stats=stats)
    assert not v.is_yes and v.note is None
    assert stats.plans_examined == 0 and stats.roots_reachable == 0
    assert not oracle_directed(d, target).is_yes


def test_extra_arcs_all_into_the_root():
    """A planted arborescence with every extra arc into its root: the root
    keeps none of them, so it forms one plan, and each other root at most
    2^(k - indeg r)."""
    n, k = 500, 6
    rng = random.Random(546)
    arcs = [(rng.randrange(v), v) for v in range(1, n)]
    arcs += [(v, 0) for v in rng.sample(range(1, n), k)]
    d = DiGraph(n, arcs)
    perm = list(range(n))
    rng.shuffle(perm)
    target = target_tree_from_digraph(DiGraph(n, arcs[: n - 1]).relabeled(perm))
    stats = DirectedStats()
    v = solve_directed(d, target, stats=stats)
    assert v.is_yes and certify_directed(d, target, v)
    assert stats.k == k
    admissible = roots_reaching_all(d)
    assert stats.plans_examined <= sum(_plan_bound(d, r) for r in range(n) if admissible[r])


def test_solve_needs_no_kernel_and_no_string_mapping(monkeypatch):
    instances = [
        gen_instance(GenSpec(n=8 + 3 * k + seed, k=k, seed=seed, mode=mode, directed=True))
        for k in range(6)
        for seed in range(4)
        for mode in ("planted-yes", "random")
    ]

    def boom(*args, **kwargs):
        raise AssertionError("not on the directed solve path")

    for name, module in list(sys.modules.items()):
        if name == "stiso" or name.startswith("stiso."):
            for attr in ("make_contractible", "rooted_iso_mapping"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, boom)
    answers = set()
    for inst in instances:
        v = solve_directed(inst.graph, inst.target)
        answers.add(v.answer)
        if inst.truth == "YES":
            assert v.is_yes and certify_directed(inst.graph, inst.target, v)
    assert answers == {"YES", "NO"}


# SHA-256 of the grid's answer lines, recorded with the C(3k-3, k) chain-subset
# solver that the in-arc choice replaced; an exact solver keeps it unchanged.
# To re-record, run this grid with that solver and print ``h.hexdigest()``.
PINNED_VERDICT_SHA256 = "0d7ba850c8f3a1fe128a157403d412bdff88704e922217af6eae29663597e358"


def test_verdict_hash_past_oracle_scale():
    h = hashlib.sha256()
    count = 0
    for n in (20, 50, 100, 200):
        for k in range(7):
            for mode in ("planted-yes", "random"):
                for s in range(6):
                    seed = 7000 + 100 * n + 10 * k + s
                    inst = gen_instance(GenSpec(n=n, k=k, seed=seed, mode=mode, directed=True))
                    # shuffle arc ids and vertex labels, so that the planted
                    # tree's arcs are not always the first ones listed
                    rng = random.Random(seed)
                    arcs = list(inst.graph.arcs)
                    rng.shuffle(arcs)
                    perm = list(range(n))
                    rng.shuffle(perm)
                    d = DiGraph(n, arcs).relabeled(perm)
                    v = solve_directed(d, inst.target)
                    h.update(f"{n} {k} {mode} {seed} {v.answer}\n".encode())
                    count += 1
    assert count == 336
    assert h.hexdigest() == PINNED_VERDICT_SHA256


def _plans_unfiltered(d: DiGraph, target):
    """Every in-arc plan in the solver's order, checked in full whether or not
    its out-degrees fit: yields (root, deleted arcs, passes the degree test,
    witness children by ``(id, vertex)`` or None, root id equals the target's)."""
    table, root_id = target.table, target.ids[target.root]
    out_deg, gap = _out_gap(d, target)
    admissible = roots_reaching_all(d)
    multi = [v for v in range(d.n) if d.in_degree(v) >= 2]
    for r in range(d.n):
        if not admissible[r]:
            continue
        choices = [[a for a, _ in d.in_inc[v]] for v in multi if v != r]
        pool = {a for a, _ in d.in_inc[r]}.union(*choices)
        for kept in product(*choices):
            deleted = pool.difference(kept)
            passes = degree_shift(out_deg, [d.arcs[a][0] for a in deleted]) == gap
            witness = _arborescence_without(d, r, deleted)
            kids, hit = None, False
            if witness is not None:
                order, parent = witness
                ids, kids = _ahu(reversed(order), parent, table)
                hit = ids[r] == root_id
            yield r, deleted, passes, kids, hit


def _small_directed_grid():
    for seed in range(60):
        k = 2 + seed % 5
        mode = "planted-yes" if seed % 2 == 0 else "random"
        n = min(40, k + 4 + seed % 31)
        spec = GenSpec(n=n, k=k, seed=4000 + seed, mode=mode, directed=True)
        yield spec, gen_instance(spec)


def test_out_degree_filter_is_exact():
    """A plan the out-degree test rejects never spans a copy of the target, and
    the O(k) test agrees with comparing the sorted out-degrees in full."""
    rejected = passed = 0
    for spec, inst in _small_directed_grid():
        d, target = inst.graph, inst.target.build()
        want = sorted(len(c) for c in target.children)
        for r, deleted, passes, _, hit in _plans_unfiltered(d, target):
            out = [0] * d.n
            for a, (u, _) in enumerate(d.arcs):
                out[u] += a not in deleted
            assert passes == (sorted(out) == want), (spec, r, deleted)
            assert passes or not hit, (spec, r, deleted)
            rejected += not passes
            passed += passes
    assert rejected > passed > 0


def test_filtered_search_matches_unfiltered_reference():
    """The answer, mapping and removed set equal those of the first plan, in
    product order, that passes the full check without the out-degree test."""
    answers = set()
    for spec, inst in _small_directed_grid():
        d, target = inst.graph, inst.target.build()
        expected = Verdict("NO")
        # the target's children by this test's own lookup, not read off
        # ``target.children``, which only fix a bottom-up order here
        top_down = _preorder(target.root, target.children)
        target_kids = _ahu(reversed(top_down), target.parent, target.table)[1]
        for r, deleted, _, kids, hit in _plans_unfiltered(d, target):
            if hit:
                mapping = dict(zip(*_pair_children(target.root, target_kids, r, kids)))
                expected = Verdict("YES", mapping=mapping, removed=frozenset(deleted))
                break
        stats = DirectedStats()
        v = solve_directed(d, target, stats=stats)
        assert (v.answer, v.mapping, v.removed) == (expected.answer, expected.mapping, expected.removed)
        assert stats.arborescence_hits <= stats.plans_examined
        answers.add(v.answer)
    assert answers == {"YES", "NO"}


def test_root_out_degree_test_is_exact():
    """A plan that leaves the root another out-degree than the target root's
    never spans a copy of the target, and ``arborescence_hits`` counts, up to
    the first plan that does, exactly the plans that pass both out-degree
    tests and span."""
    rejected = 0
    for spec, inst in _small_directed_grid():
        d, target = inst.graph, inst.target.build()
        root_out = len(target.children[target.root])
        hits = 0
        for r, deleted, passes, kids, hit in _plans_unfiltered(d, target):
            keeps = len(d.out_inc[r]) - sum(d.arcs[a][0] == r for a in deleted) == root_out
            assert keeps or not hit, (spec, r, deleted)
            rejected += passes and not keeps
            hits += passes and keeps and kids is not None
            if hit:
                break
        stats = DirectedStats()
        solve_directed(d, target, stats=stats)
        assert stats.arborescence_hits == hits, spec
    assert rejected > 0


def test_root_cycle_family_matches_few_plans():
    """On the root-cycle family every vertex of the root's cycle is a root,
    and at each most plans that pass the histogram test span.  The root's
    out-degree test keeps 89 of them from the walk and the match (263 pass
    without it), and it changes no plan count."""
    d, target = root_cycle_arborescence(4000, 6, 2)
    stats, lines = DirectedStats(), []
    v = solve_directed(d, target, stats=stats, trace=lines.append)
    assert v.is_yes and certify_directed(d, target, v)
    assert (stats.roots_reachable, stats.plans_examined, stats.plans_max_per_root) == (163, 5185, 32)
    assert stats.arborescence_hits == 89
    surviving = [int(m[1]) for line in lines if (m := re.search(r"surviving=(\d+)", line))]
    assert len(surviving) == stats.roots_reachable and sum(surviving) == stats.arborescence_hits


def test_rare_giant_searches_no_plan():
    """Every plan of this instance spans (the extra arcs feed the admissible
    roots); below the screen, the out-degree test rejects all of them before
    the search, and the solver's out-degree screen forms no plan at all."""
    inst = gen_instance(GenSpec(n=500, k=6, seed=546, mode="random", directed=True))
    stats = DirectedStats()
    lines = []
    v = _unscreened(inst.graph, inst.target, stats=stats, trace=lines.append)
    assert not v.is_yes
    assert stats.plans_examined == 1088
    assert stats.arborescence_hits == 0
    assert all("surviving=0 no" in line for line in lines if "plans=" in line)
    assert _screened(inst.graph, inst.target)


SCREEN_LINE = "screen=out-degrees fail:uncovered"


def _out_gap(d: DiGraph, target) -> tuple[list[int], dict[int, int]]:
    """``d``'s out-degrees, and their gap to the target's child counts."""
    out_deg = list(map(len, d.out_inc))
    return out_deg, degree_gap(out_deg, [len(c) for c in target.build().children])


def _unscreened(d: DiGraph, target, *, stats=None, trace=None) -> Verdict:
    """``solve_directed`` without its out-degree screen and certifier: the
    plan search over every root that reaches all."""
    out_deg, gap = _out_gap(d, target)
    stats = stats if stats is not None else DirectedStats()
    return _search(d, target, roots_reaching_all(d), out_deg, gap, stats, trace)


def _screened(d: DiGraph, target) -> bool:
    """Whether ``solve_directed`` decides the instance by its out-degree
    screen: then the verdict is a NO with the screen's note, the screen's
    trace line alone and every counter but ``k`` at 0."""
    stats, lines = DirectedStats(), []
    v = solve_directed(d, target, stats=stats, trace=lines.append)
    if lines != [SCREEN_LINE]:
        return False
    assert v.answer == "NO" and v.note.startswith("out-degree screen")
    assert stats == DirectedStats(k=d.m - (d.n - 1))
    return True


def _out_covers(d: DiGraph, target) -> bool:
    return degrees_cover(_out_gap(d, target)[1])


def test_out_degree_screen_passes_every_planted_instance():
    for n in (5, 12, 60, 250, 1000):
        for k in range(7):
            for s in range(2):
                seed = 7000 + 100 * n + 10 * k + s
                inst = gen_instance(GenSpec(n=n, k=k, seed=seed, mode="planted-yes", directed=True))
                assert _out_covers(inst.graph, inst.target), seed


def test_out_degree_screen_rejects_only_oracle_nos():
    """Over every orientation of two k = 2 shapes and seeded random desk
    instances, every instance the screen rejects is an oracle NO, so it
    passes every YES; each rejected one is decided by the screen alone."""
    shapes = [
        [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)],
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
    ]
    targets = [
        target_tree_from_digraph(_digraph_for([(0, 1), (1, 2), (2, 3), (3, 4)], 5)),
        target_tree_from_digraph(_digraph_for([(0, 1), (0, 2), (0, 3), (0, 4)], 5)),
    ]
    cases = []
    for edges in shapes:
        for bits in product((0, 1), repeat=6):
            d = DiGraph(5, [(u, v) if b == 0 else (v, u) for (u, v), b in zip(edges, bits)])
            cases += [(d, t) for t in targets]
    for seed in range(300):
        rng = random.Random(seed)
        n, k = rng.randint(5, 10), rng.randint(0, 5)
        inst = gen_instance(GenSpec(n=n, k=k, seed=seed, mode="random", directed=True))
        cases.append((inst.graph, inst.target))
    counts = Counter()
    for d, t in cases:
        answer, passes = oracle_directed(d, t).answer, _out_covers(d, t)
        assert passes or answer == "NO", (d.arcs, t.root)
        assert passes or _screened(d, t), (d.arcs, t.root)
        counts[answer, passes] += 1
    assert counts == {("YES", True): 114, ("NO", True): 193, ("NO", False): 249}


def test_out_degree_screen_keeps_every_verdict():
    """Shuffled and relabelled as in test_verdict_hash_past_oracle_scale, every
    answer, mapping and removed set equals that of the unscreened search."""
    answers = Counter()
    for n in (10, 20, 50, 100):
        for k in range(7):
            for mode in ("planted-yes", "random"):
                for s in range(18):
                    seed = 9000 + 100 * n + 20 * k + s
                    inst = gen_instance(GenSpec(n=n, k=k, seed=seed, mode=mode, directed=True))
                    rng = random.Random(seed)
                    arcs = list(inst.graph.arcs)
                    rng.shuffle(arcs)
                    perm = list(range(n))
                    rng.shuffle(perm)
                    d = DiGraph(n, arcs).relabeled(perm)
                    v, ref = solve_directed(d, inst.target), _unscreened(d, inst.target)
                    assert (v.answer, v.mapping, v.removed) == (ref.answer, ref.mapping, ref.removed)
                    answers[v.answer, _screened(d, inst.target)] += 1
    assert answers == {("YES", False): 508, ("NO", False): 137, ("NO", True): 363}
