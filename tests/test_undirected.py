import hashlib
import random
import sys
from collections import Counter

import pytest

from stiso import (
    GenSpec,
    SolveStats,
    TargetTree,
    UGraph,
    Verdict,
    certify_undirected,
    gen_instance,
    gen_tree,
    oracle_undirected,
    solve_undirected,
    tree_centers,
    unrooted_code,
)
from stiso.graphs import degree_gap, degrees_cover, peel_leaves

from util import (
    THETA,
    chorded_cycle_and_spider,
    chorded_path,
    code_key,
    complete,
    cycle,
    end_chord_path,
    hub_with_leaves,
    path,
    reference_oracle_undirected,
    star,
    subtree_codes,
)


SCREEN_LINE = "screen=degrees fail:uncovered"


def _screened(g, target):
    """Whether ``solve_undirected`` decides the instance by its degree screen:
    then the verdict is a NO with the screen's note, the screen's trace line
    alone and zero search counters."""
    stats, lines = SolveStats(), []
    v = solve_undirected(g, target, stats=stats, trace=lines.append)
    if lines != [SCREEN_LINE]:
        return False
    assert v.answer == "NO" and v.note.startswith("degree screen")
    assert (stats.roots_tried, stats.attempts, stats.nodes_opened) == (0, 0, 0)
    return True


def _centre_rooted(t):
    """``t`` rooted at its first centre.  The tests that pin per-node work
    (counters, trace lines, a hash) pass it: their numbers were taken there."""
    return TargetTree(t, tree_centers(t)[0])


def test_cycle_vs_path_yes():
    v = solve_undirected(cycle(4), path(4))
    assert v.is_yes and len(v.removed) == 1
    assert certify_undirected(cycle(4), path(4), v)


def test_cycle_vs_star_no():
    assert not solve_undirected(cycle(4), star(4)).is_yes


def test_k4_cases():
    k4 = complete(4)
    for target in (star(4), path(4)):
        v = solve_undirected(k4, target, fallback=True)
        assert v.is_yes
        assert certify_undirected(k4, target, v)


def test_theta_vs_path_yes():
    p5 = path(5)
    v = solve_undirected(THETA, p5, fallback=True)
    assert v.is_yes and certify_undirected(THETA, p5, v)
    # the specific removal {xb, az} leaves the path x-a-y-b-z
    witness = UGraph(5, [e for i, e in enumerate(THETA.edges) if i not in (1, 4)])
    assert unrooted_code(witness) == unrooted_code(p5)


def test_identical_trees_k0():
    t = gen_tree(9, 3)
    perm = list(range(9))
    random.Random(0).shuffle(perm)
    v = solve_undirected(t, t.relabeled(perm))
    assert v.is_yes and v.removed == frozenset()
    assert certify_undirected(t, t.relabeled(perm), v)
    assert not solve_undirected(path(4), star(4)).is_yes


def test_single_vertex():
    g = UGraph(1, [])
    v = solve_undirected(g, g)
    assert v.is_yes and v.mapping == {0: 0}


def test_unicyclic_cases():
    v = solve_undirected(cycle(5), path(5))
    assert v.is_yes and len(v.removed) == 1
    assert certify_undirected(cycle(5), path(5), v)
    # triangle with two pendant leaves on distinct triangle vertices vs P5
    g = UGraph(5, [(0, 1), (1, 2), (2, 0), (1, 3), (2, 4)])
    assert solve_undirected(g, path(5)).is_yes
    # C4 with one pendant leaf vs the 5-star
    g2 = UGraph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    assert not solve_undirected(g2, star(5)).is_yes


def test_unicyclic_degree_test_skips_every_tree():
    """A cycle against a star: the degree screen says NO before any tree is
    looked up; against a path the search finds a certified YES."""
    n = 1000
    assert _screened(cycle(n), star(n))
    v = solve_undirected(cycle(n), path(n))
    assert v.is_yes and certify_undirected(cycle(n), path(n), v)


def test_low_k_matches_the_code_reference():
    """k = 0 and 1 against ``reference_oracle_undirected``, which at these k
    compares unrooted codes alone: of the graph itself at k = 0, and of the
    graph less each edge that keeps it connected at k = 1."""
    cases = []
    for seed in range(200):
        rng = random.Random(seed)
        n, k = rng.randint(5, 200), seed % 2
        mode = "planted-yes" if seed % 4 < 2 else "random"
        inst = gen_instance(GenSpec(n=n, k=k, seed=seed, mode=mode))
        perm = list(range(n))
        rng.shuffle(perm)
        cases.append((inst.graph.relabeled(perm), inst.target.tree))
    rng = random.Random(0)
    for n in range(5, 61):
        spider = chorded_cycle_and_spider(n, 1, n)[1]  # at k = 1 the cycle has no chord
        cases += [(cycle(n), path(n)), (cycle(n), spider)]
        leg = next(v for v in range(1, n) if spider.degree(v) == 1)  # the first leg is 1..leg
        for tail in (leg, rng.randint(1, n - 3)):  # a tadpole: the cycle 0..c-1, the tail c..n-1
            c = n - tail
            cases.append((UGraph(n, [*path(n).edges, (0, c - 1)]), spider))
    answers = Counter()
    for g, t in cases:
        want, v = reference_oracle_undirected(g, t), solve_undirected(g, t)
        assert v.answer == want.answer, (g.edges, t.edges)
        assert not v.is_yes or certify_undirected(g, t, v) and certify_undirected(g, t, want)
        answers[g.m - g.n + 1, v.answer] += 1
    assert set(answers) == {(0, "YES"), (0, "NO"), (1, "YES"), (1, "NO")}, answers


def test_low_k_reports_effort_and_trace():
    for k in (0, 1):
        inst = gen_instance(GenSpec(n=30, k=k, seed=k, mode="planted-yes"))
        stats, lines = SolveStats(), []
        v = solve_undirected(inst.graph, inst.target, stats=stats, trace=lines.append)
        assert v.is_yes and stats.k == k
        assert stats.roots_tried >= stats.attempts >= 1 and stats.nodes_opened >= 1
        assert lines and all(line.startswith("troot=") for line in lines), lines


def test_search_runs_under_the_default_recursion_limit():
    # the search is one loop, so the path target, rooted at its vertex 1 and
    # 2999 deep, needs no deeper Python stack, and nothing in the solve raises
    # the limit
    n = 3001
    g, target = end_chord_path(n), path(n)
    seen = set()

    def tracer(frame, event, arg):
        seen.add(sys.getrecursionlimit())

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    sys.settrace(tracer)
    try:
        v = solve_undirected(g, target)
    finally:
        sys.settrace(None)
        sys.setrecursionlimit(limit)
    assert seen == {1000}
    assert v.is_yes and certify_undirected(g, target, v)


def test_failed_attempt_leaves_the_engine_as_built():
    """Every failed attempt rolls back to the engine's start, in the same
    objects: no target or graph vertex matched, no edge removed, no trail."""
    from stiso.graphs import peel_leaves
    from stiso.undirected import _Engine, _Forest

    g, target = chorded_cycle_and_spider(60, 3, 0)
    assert not _screened(g, target)
    tt = _centre_rooted(target).build()
    order, parent, _ = peel_leaves(g)
    stats = SolveStats()
    engine = _Engine(g, tt, g.m - g.n + 1, stats, _Forest(order, parent, tt.table))
    state = (engine.t2g, engine.g2t, engine.removed, engine.trail)
    for v in range(g.n):
        assert engine.attempt(v) is None, v
        assert state == ([-1] * g.n, [-1] * g.n, set(), []), v
        now = (engine.t2g, engine.g2t, engine.removed, engine.trail)
        assert all(a is b for a, b in zip(state, now)), v
    assert stats.attempts == g.n and stats.branches_examined > g.n


def test_vertex_count_mismatch_is_an_error():
    with pytest.raises(ValueError):
        solve_undirected(cycle(4), path(5))


def test_disconnected_graph_is_no_with_note():
    g = UGraph(4, [(0, 1), (2, 3)])
    v = solve_undirected(g, path(4))
    assert not v.is_yes and v.note is not None


def test_disconnected_graph_is_screened_first():
    # degrees 1, 1, 1, 1 do not cover path(4)'s two 2s; a triangle and an
    # edge have path(5)'s degrees, so the connectivity check decides
    assert _screened(UGraph(4, [(0, 1), (2, 3)]), path(4))
    lines = []
    g = UGraph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    v = solve_undirected(g, path(5), trace=lines.append)
    assert (v.answer, v.note, lines) == ("NO", "graph is disconnected: no spanning tree exists", [])


@pytest.mark.parametrize(
    "g",
    [star(4), UGraph(4, [(0, 1), (2, 3)]), cycle(4)],
    ids=["screened", "disconnected", "passes-the-screen"],
)
@pytest.mark.parametrize("decide", [solve_undirected, oracle_undirected])
def test_target_that_is_not_a_tree_is_refused(g, decide):
    # a triangle plus an isolated vertex is refused before any answer, whether
    # the degree screen, the connectivity check or neither would decide; so is
    # the empty graph, which has no vertex to root at, before the vertex counts
    # are compared
    from stiso import NotATreeError

    for target in (UGraph(4, [(0, 1), (1, 2), (2, 0)]), UGraph(0, [])):
        with pytest.raises(NotATreeError):
            decide(g, target)


def test_multigraph_input_rejected():
    g = UGraph.multigraph(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        solve_undirected(g, path(3))


def test_certify_rejects_tampering():
    v = solve_undirected(cycle(4), path(4))
    assert certify_undirected(cycle(4), path(4), v)
    swapped = dict(v.mapping)
    ks = sorted(swapped)
    swapped[ks[0]], swapped[ks[1]] = swapped[ks[1]], swapped[ks[0]]
    bad = Verdict("YES", mapping=swapped, removed=v.removed)
    # swapping a path endpoint with its interior neighbor breaks edge preservation
    if swapped != v.mapping:
        assert not certify_undirected(cycle(4), path(4), bad)
    assert not certify_undirected(cycle(4), path(4), Verdict("NO"))
    assert not certify_undirected(
        cycle(4), path(4), Verdict("YES", mapping=v.mapping, removed=frozenset({0, 1}))
    )


def test_strict_mode_misses_fan_instance():
    """Regression for the gap of the retired strict mode: the fan is YES.

    In the star-plus-two-edges fan every neighbor of the hub reaches the same
    core vertex through the not-yet-dropped extra edges, so the strict
    anchor-order search rejected it, although removing both extras leaves the
    star.  The default solve answers YES, with or without ``fallback``.
    """
    fan = UGraph(4, [(0, 3), (1, 3), (2, 3), (0, 1), (0, 2)])
    target = star(4)
    assert oracle_undirected(fan, target).is_yes
    for kwargs in ({}, {"fallback": False}, {"fallback": True}):
        v = solve_undirected(fan, target, **kwargs)
        assert v.is_yes and certify_undirected(fan, target, v)


def test_planted_instances_always_yes():
    for seed in range(40):
        spec = GenSpec(n=5 + seed % 8, k=seed % 4, seed=seed, mode="planted-yes")
        inst = gen_instance(spec)
        v = solve_undirected(inst.graph, inst.target, fallback=True)
        assert v.is_yes
        assert certify_undirected(inst.graph, inst.target, v)


def test_isomorphic_targets_agree():
    # if the solver accepts a target it accepts any relabeling of it
    for seed in range(20):
        spec = GenSpec(n=9, k=2, seed=seed, mode="random")
        inst = gen_instance(spec)
        first = solve_undirected(inst.graph, inst.target, fallback=True)
        perm = list(range(9))
        random.Random(seed).shuffle(perm)
        relabeled = TargetTree(inst.target.tree.relabeled(perm), perm[inst.target.root])
        second = solve_undirected(inst.graph, relabeled, fallback=True)
        assert first.is_yes == second.is_yes


def test_trace_lines_mention_attempts():
    lines = []
    solve_undirected(THETA, path(5), fallback=False, trace=lines.append)
    assert lines and all("root=" in line for line in lines)


def test_exhaustive_oracle_agreement_n5():
    """Every connected 5-vertex graph at k in {2,3} against every 5-vertex tree."""
    from itertools import combinations

    from util import all_free_trees

    targets = all_free_trees(5)[5]
    pairs = list(combinations(range(5), 2))
    solves = 0
    for k in (2, 3):
        for sub in combinations(pairs, 4 + k):
            g = UGraph(5, list(sub))
            if not g.is_connected():
                continue
            for t in targets:
                verdict = solve_undirected(g, t, fallback=True)
                assert verdict.answer == oracle_undirected(g, t).answer, (sub, t.edges)
                solves += 1
    assert solves == (205 + 120) * 3


def _covers(g, target):
    return degrees_cover(degree_gap(map(len, g.incidence), map(len, target.incidence)))


def test_degree_screen_passes_every_planted_instance():
    for n in (5, 12, 60, 250, 1000):
        for k in range(7):
            for s in range(2):
                seed = 7000 + 100 * n + 10 * k + s
                inst = gen_instance(GenSpec(n=n, k=k, seed=seed, mode="planted-yes"))
                assert _covers(inst.graph, inst.target.tree), seed


def test_degree_screen_rejects_only_oracle_nos():
    """Over the exhaustive 5-vertex set and seeded random desk instances, every
    instance the screen rejects is an oracle NO, so it passes every YES."""
    from itertools import combinations

    from util import all_free_trees

    targets = all_free_trees(5)[5]
    pairs = list(combinations(range(5), 2))
    cases = []
    for k in (2, 3):
        for sub in combinations(pairs, 4 + k):
            g = UGraph(5, list(sub))
            if g.is_connected():
                cases += [(g, t) for t in targets]
    for seed in range(300):
        rng = random.Random(seed)
        n, k = rng.randint(5, 10), rng.randint(0, 5)
        inst = gen_instance(GenSpec(n=n, k=k, seed=seed, mode="random"))
        cases.append((inst.graph, inst.target.tree))
    counts = Counter()
    for g, t in cases:
        answer, passes = oracle_undirected(g, t).answer, _covers(g, t)
        assert passes or answer == "NO", (g.edges, t.edges)
        counts[answer, passes] += 1
    assert counts == {("YES", True): 1002, ("NO", True): 49, ("NO", False): 224}


def test_degree_screen_rejects_a_missing_high_degree():
    # K4 less (2, 3), with a leaf on 2: its degrees 3, 3, 3, 2, 1 have no 4 for
    # the star's centre, though the histograms differ by only 8 = 4k in L1
    g = UGraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)])
    gap = degree_gap(map(len, g.incidence), map(len, star(5).incidence))
    assert sum(map(abs, gap.values())) == 4 * 2
    assert oracle_undirected(g, star(5)).answer == "NO"
    assert _screened(g, star(5))


def test_root_prune_is_exact():
    """A root the scan tries is rejected iff its attempt fails pendant-unmatched
    at the first open.  A root with fewer neighbours than the target root has
    children, which the scan never tries, fails its room check with no reason."""
    from stiso.undirected import _Engine, _Forest

    rejected_total = kept_total = roomless_total = 0
    for seed in range(60):
        rng = random.Random(seed)
        n, k = rng.randint(6, 30), rng.randint(2, 5)
        mode = "planted-yes" if seed % 2 else "random"
        inst = gen_instance(GenSpec(n=n, k=k, seed=seed, mode=mode))
        g = inst.graph
        order, parent, _ = peel_leaves(g)
        t = inst.target.tree
        for tt in (TargetTree(t, c).build() for c in tree_centers(t)):
            trim = _Forest(order, parent, tt.table)
            scan = _Engine(g, tt, k, SolveStats(), trim)
            rejected = {v for v in range(n) if not scan.root_fits(v)}
            for v in range(n):
                stats = SolveStats()
                engine = _Engine(g, tt, k, stats, trim)
                verdict = engine.attempt(v)
                if len(g.incidence[v]) < len(tt.children[tt.root]):
                    got = (verdict, stats.nodes_opened, engine.fail_reason)
                    assert got == (None, 0, ""), (seed, tt.root, v)
                    roomless_total += 1
                    continue
                fails_at_root = (
                    verdict is None
                    and engine.fail_reason == "pendant-unmatched"
                    and stats.nodes_opened == 1
                )
                assert (v in rejected) == fails_at_root, (seed, tt.root, v)
                rejected_total += v in rejected
                kept_total += v not in rejected
    assert rejected_total > 0 and kept_total > 0 and roomless_total > 0


def test_trim_forest_lists_children_by_id_at_every_vertex():
    """The trim forest's ids are the table's for each vertex's sorted child ids
    (-1 when missing), and every vertex, 2-core vertices too, lists its trim
    children by ``(id, vertex)``."""
    from stiso.graphs import peel_leaves
    from stiso.undirected import _Forest

    # the 2-core vertex 0 gets leaf 4, then the two-vertex path 5-6, then leaf 7
    hand = UGraph(8, list(complete(4).edges) + [(0, 4), (0, 5), (5, 6), (0, 7)])
    spider = UGraph(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
    cases = [(hand, TargetTree(spider, 0).build())]
    for seed in range(40):
        mode = "planted-yes" if seed % 2 else "random"
        inst = gen_instance(GenSpec(n=8 + seed, k=2 + seed % 4, seed=seed, mode=mode))
        cases.append((inst.graph, TargetTree(inst.target.tree, 0).build()))
    forests = []
    for g, tt in cases:
        order, parent, _ = peel_leaves(g)
        trim = _Forest(order, parent, tt.table)
        forests.append(trim)
        for v in range(g.n):
            below = [c for c in range(g.n) if parent[c] == v]
            assert trim.kids[v] == sorted(below, key=lambda c: (trim.ids[c], c)), (g.edges, v)
            if parent[v] != -1:
                assert trim.ids[v] == tt.table.get(tuple(sorted(trim.ids[c] for c in below)), -1)
    assert forests[0].kids[0] == [4, 7, 5]  # the two leaves share an id


def test_root_prune_two_equal_pendants_at_core_root():
    # K4 with two leaves on vertex 0; the target's center 0 has one leaf child
    # and two two-vertex paths, so root 0 cannot place its second leaf
    g = UGraph(6, list(complete(4).edges) + [(0, 4), (0, 5)])
    target = UGraph(6, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)])
    lines = []
    stats = SolveStats()
    v = solve_undirected(g, target, fallback=True, stats=stats, trace=lines.append)
    assert v.answer == oracle_undirected(g, target).answer == "NO"
    root0 = [line for line in lines if line.startswith("troot=0 root=0 ")]
    assert root0 == ["troot=0 root=0 pi=- fail:pendant-unmatched"]
    # one attempt per root, and only root 0 is rejected
    assert stats.attempts == stats.roots_tried - 1


def test_root_prune_inside_a_pendant_tree():
    # K4 with the pendant tree 0-4-5 and leaves 6, 7, 8 on 5: root 5's pendant
    # components are its three leaves, the side toward the core is cyclic
    from stiso.undirected import _Engine, _Forest, _solve_core

    g = UGraph(9, list(complete(4).edges) + [(0, 4), (4, 5), (5, 6), (5, 7), (5, 8)])
    order, parent, _ = peel_leaves(g)
    tt = TargetTree(path(9), 4).build()
    trim = _Forest(order, parent, tt.table)
    leaf = tt.table[()]
    assert [trim.ids[c] for c in trim.kids[5]] == [leaf] * 3
    assert len(trim.kids[4]) == len(trim.kids[0]) == 1
    # the path's center 4 has two P4 children: no leaf, and no star at 4 or 0
    scan = _Engine(g, tt, 3, SolveStats(), trim)
    assert [v for v in range(9) if not scan.root_fits(v)] == [0, 4, 5]
    lines = []
    stats = SolveStats()
    v = _solve_core(g, tt, 3, stats, lines.append)
    assert not v.is_yes
    assert "troot=4 root=5 pi=- fail:pendant-unmatched" in lines
    # roots 0-5 have degree >= 2; 0, 4 and 5 hang a pendant tree that is no P4
    assert (stats.roots_tried, stats.attempts) == (6, 3)
    assert _screened(g, path(9))  # six vertices of degree >= 2 against the path's seven


# ROADMAP item 5's hunted worst case, a NO at n = 12, k = 6: rooted at vertex
# 2, one attempt examines 173 668 branches
HUNTED_NO = (
    UGraph(12, [(0, 5), (1, 3), (5, 9), (6, 3), (3, 7), (8, 10), (9, 4), (4, 7), (10, 7), (7, 2),
                (2, 11), (1, 7), (7, 11), (0, 7), (6, 7), (7, 9), (7, 8)]),
    UGraph(12, [(0, 2), (1, 6), (3, 2), (4, 2), (7, 2), (8, 6), (6, 5), (10, 5), (5, 2), (2, 9),
                (9, 11)]),
)


def test_answer_does_not_depend_on_the_target_root():
    """The search starts at the root it is given, and the answer is the
    unrooted tree's.  At n <= 12 every root, and the plain form, agrees with
    the oracle; at larger n sampled roots agree with the centre-rooted answer;
    the hunted NO is a NO at all 12 roots.  Every YES is certified; the
    witness may depend on the root."""
    answers = Counter()

    def decide(g, target):
        v = solve_undirected(g, target)
        assert not v.is_yes or certify_undirected(g, target, v), (g.edges, target)
        answers[v.answer, "searched" if v.note is None else "screened"] += 1
        return v.answer

    small = [chorded_cycle_and_spider(n, k, seed) for n in (6, 9, 12) for k in (2, 3) for seed in range(3)]
    large = [chorded_cycle_and_spider(60, k, seed) for k in (2, 4) for seed in range(2)]
    for seed in range(48):
        rng = random.Random(seed)
        n = rng.randint(5, 12) if seed < 36 else rng.choice((30, 80, 150))
        k = rng.randint(0, 4) if seed < 36 else rng.randint(2, 6)
        inst = gen_instance(GenSpec(n=n, k=k, seed=seed, mode="planted-yes" if seed % 2 else "random"))
        perm = list(range(n))
        rng.shuffle(perm)
        (small if seed < 36 else large).append((inst.graph, inst.target.tree.relabeled(perm)))
    for g, t in small:
        want = oracle_undirected(g, t).answer
        for target in (t, *(TargetTree(t, r) for r in range(t.n))):
            assert decide(g, target) == want, (g.edges, t.edges, target)
    rng = random.Random(1)
    for g, t in large:
        want = decide(g, _centre_rooted(t))
        for target in (t, *(TargetTree(t, r) for r in rng.sample(range(t.n), 3))):
            assert decide(g, target) == want, (g.edges, t.edges, target)
    g, t = HUNTED_NO
    for r in range(t.n):
        assert decide(g, TargetTree(t, r)) == "NO", r
    want = {("YES", "searched"): 389, ("NO", "searched"): 170, ("NO", "screened"): 49}
    assert answers == want


def test_plain_target_is_rooted_at_a_maximum_degree_vertex():
    """A plain target is rooted at its smallest-id vertex of maximum degree,
    so the scan tries only the graph vertices with at least that many
    neighbours.  Rooted at a centre of degree 2, each of these tried nearly
    every graph vertex: the chorded path took 3334 attempts at n = 10 001."""

    def solve(g, t):
        stats, lines = SolveStats(), []
        v = solve_undirected(g, t, stats=stats, trace=lines.append)
        assert not v.is_yes or certify_undirected(g, t, v)
        top = max(range(t.n), key=t.degree)
        assert {line.split()[0] for line in lines} == {f"troot={top}"}
        return v.answer, stats

    n = 10_001
    answer, stats = solve(chorded_path(n), path(n))
    assert answer == "YES" and stats.attempts <= 2
    answer, stats = solve(*chorded_cycle_and_spider(400, 6, 0))  # the spider's legs meet at 0
    assert answer == "NO" and stats.roots_tried <= 10
    n = 20_001
    answer, stats = solve(end_chord_path(n), path(n))
    assert answer == "YES" and stats.attempts == 1


def test_unfinished_search_raises_under_any_optimisation_level(monkeypatch):
    # the post-condition is an explicit raise, so ``python -O`` keeps it
    from stiso.undirected import _Engine

    monkeypatch.setattr(_Engine, "_search", lambda self: True)
    with pytest.raises(RuntimeError, match="unmatched target vertex"):
        solve_undirected(THETA, path(5), fallback=True)


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so no invariant of the package may be one
    import ast
    from pathlib import Path

    import stiso

    files = sorted(Path(stiso.__file__).parent.glob("*.py"))
    assert len(files) > 5
    for f in files:
        tree = ast.parse(f.read_text(), filename=str(f))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)], f


def test_benchmark_counters_are_stats_fields():
    # perfbench reads its counters by name and reports a missing field as null,
    # so a counter deleted here would otherwise go unnoticed there
    import ast
    from dataclasses import fields
    from pathlib import Path

    from stiso import DirectedStats

    source = Path(__file__).parents[1] / "perfbench" / "decide.py"
    tree = ast.parse(source.read_text(), filename=str(source))
    [value] = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["STATS_FIELDS"]
    ]
    read = ast.literal_eval(value)
    assert set(read) == {"U", "D"}
    for flavour, cls in (("U", SolveStats), ("D", DirectedStats)):
        names = {f.name for f in fields(cls)}
        assert read[flavour] and set(read[flavour]) <= names, (flavour, read[flavour])


def test_each_solver_leaves_the_other_solvers_counters_at_zero():
    # ``stiso bench`` reports branches plus plans as one solve's work
    from stiso import DirectedStats, solve_directed

    assert DirectedStats is SolveStats
    for seed in range(10):
        spec = GenSpec(n=12, k=3, seed=seed)
        inst = gen_instance(spec)
        stats = SolveStats()
        assert solve_undirected(inst.graph, inst.target, stats=stats).is_yes
        assert stats.branches_examined > 0
        assert (stats.roots_reachable, stats.plans_examined) == (0, 0)
        assert (stats.plans_max_per_root, stats.arborescence_hits) == (0, 0)
        inst = gen_instance(GenSpec(n=12, k=3, seed=seed, directed=True))
        stats = SolveStats()
        assert solve_directed(inst.graph, inst.target, stats=stats).is_yes
        assert stats.plans_examined > 0
        assert (stats.attempts, stats.nodes_opened, stats.branches_examined) == (0, 0, 0)


# SHA-256 of answers, witnesses, removed sets, SolveStats and trace lines over
# the grid below, printed by the search that binds only trim-forest pendants
# and branches on every other neighbour.  Made by running this grid on that
# search and on the one before it, which also bound the tree components it
# found by walking the 2-core remainder, and comparing row by row: every
# answer and every trace line is equal (hashed as "<n> <k> <mode> <seed>
# <answer>" plus the trace lines, both give bfcc0e62c48467e251e3855ed4c66246
# 9965f354285ae6b3d4180a563f6e585e).  Only counters changed, in 45 rows, and
# 5 YES witnesses, each certified.  Each target is passed rooted at its first
# centre, the rooting the solver chose for itself when the hash was made.
PINNED_SEARCH_SHA256 = "40bc968010163c417989258f8618780bcd7e49034ff86b81608fe2edfc89bee2"


def test_search_hash_pinned():
    h = hashlib.sha256()
    count = 0
    for n in (5, 10, 20, 50, 100, 200):
        for k in range(7):
            for mode in ("planted-yes", "random"):
                for s in range(3):
                    seed = 5000 + 100 * n + 10 * k + s
                    inst = gen_instance(GenSpec(n=n, k=k, seed=seed, mode=mode))
                    rng = random.Random(seed)
                    edges = list(inst.graph.edges)
                    rng.shuffle(edges)
                    perm = list(range(n))
                    rng.shuffle(perm)
                    g = UGraph(n, edges).relabeled(perm)
                    rng.shuffle(perm)
                    t = inst.target.tree.relabeled(perm)
                    target = _centre_rooted(t)
                    stats = SolveStats()
                    lines = []
                    v = solve_undirected(g, target, stats=stats, trace=lines.append)
                    mapping = sorted(v.mapping.items()) if v.is_yes else None
                    removed = sorted(v.removed) if v.is_yes else None
                    counters = (
                        stats.k,
                        stats.roots_tried,
                        stats.attempts,
                        stats.nodes_opened,
                        stats.branches_examined,
                        # the anchor count SolveStats kept when the hash was made
                        sum(d >= 3 for d in peel_leaves(g)[2]) if v.note is None else 0,
                    )
                    h.update(f"{n} {k} {mode} {seed} {v.answer} {mapping} {removed}\n".encode())
                    h.update(f"{counters}\n".encode())
                    h.update("".join(line + "\n" for line in lines).encode())
                    count += 1
    assert count == 252
    assert h.hexdigest() == PINNED_SEARCH_SHA256


def _full_walk(engine, rg):
    """Components of the unvisited remainder next to ``rg``, found by walking all of it."""
    g2t, removed = engine.g2t, engine.removed
    comp_of, comps = {}, []
    for eid, u in engine.g.incidence[rg]:
        if eid in removed or g2t[u] >= 0:
            continue
        if u in comp_of:
            comps[comp_of[u]]["edges"].append((u, eid))
            continue
        comp_of[u] = len(comps)
        members, half, attach, stack = [u], 0, 0, [u]
        while stack:
            x = stack.pop()
            for e2, w in engine.g.incidence[x]:
                if e2 in removed:
                    continue
                if g2t[w] >= 0:
                    attach += w != rg
                    continue
                half += 1
                if w not in comp_of:
                    comp_of[w] = comp_of[u]
                    members.append(w)
                    stack.append(w)
        acyclic = half // 2 == len(members) - 1
        edges = [(u, eid)]
        comps.append({"members": members, "acyclic": acyclic, "attach": attach, "edges": edges})
    return comps


def _reference_open(engine, rg, rt):
    """The opening of ``rg`` for ``rt`` in ``_place``, by a full walk and string codes.

    A pendant is a component of the unvisited remainder that is a tree, meets
    the matched region only by one edge at ``rg`` and hangs from a trim child
    of ``rg``; every other component's edges go on the branch list.  Pendants
    bind in neighbour order to the first unmatched target child of equal code.  Children pair in the target's order: a graph vertex's children
    by the target id of their code, then by vertex.
    """
    tt = engine.tt
    tcodes = subtree_codes(tt.tree, tt.root)
    tid = {code: tt.ids[v] for v, code in enumerate(tcodes)}
    comps = _full_walk(engine, rg)
    trim_parent = engine.trim.parent
    pendants, avail = [], []
    for c in comps:
        u = c["edges"][0][0]
        if c["acyclic"] and c["attach"] == 0 and len(c["edges"]) == 1 and trim_parent[u] == rg:
            pendants.append((u, c["members"]))
        else:
            avail.extend(c["edges"])
    avail.sort()
    for u, members in sorted(pendants):
        member_set = set(members)
        parent, order = {u: -1}, [u]
        for x in order:
            for eid, w in engine.g.incidence[x]:
                if eid not in engine.removed and w in member_set and w not in parent:
                    parent[w] = x
                    order.append(w)
        codes, kids = {}, {x: [] for x in order}
        for x in reversed(order):
            codes[x] = "(" + "".join(sorted((codes[w] for w in kids[x]), key=code_key)) + ")"
            kids[x].sort(key=lambda w: (tid.get(codes[w], -1), w))
            if parent[x] != -1:
                kids[parent[x]].append(x)
        w = next(
            (c for c in tt.children[rt] if engine.t2g[c] < 0 and tcodes[c] == codes[u]), None
        )
        if w is None:
            engine._fail("pendant-unmatched")
            return None
        stack = [(u, w)]
        while stack:
            gx, tx = stack.pop()
            engine._bind(tx, gx)
            stack.extend(zip(kids[gx], tt.children[tx]))
    need = sum(engine.t2g[c] < 0 for c in tt.children[rt])
    if len(avail) < need:
        engine._fail("fewer-neighbors-than-children")
        return None
    if need == 0:
        for _, eid in avail:
            if not engine._drop(eid):
                return None
    return avail


def test_open_matches_full_walk(monkeypatch):
    """At every placement a search makes, the one-scan ``_place`` agrees with
    a placement in three steps: drop the edges back into the matched region,
    check room for the children, then open by a full walk.

    Compared: the result, the branch list, the bound pendants, the edges
    dropped, the fail reason and ``nodes_opened``.  A component of the
    remainder that is a tree hanging from one edge at a 2-core vertex (a core
    pendant) goes on the branch list.
    """
    from stiso.undirected import _Engine, _solve_core

    real_place = _Engine._place
    seen = {"trim child": 0, "trim parent": 0, "core pendant": 0, "core branch": 0}
    branched = []  # the edges of core pendants at nodes that opened
    opened = []

    def reference_place(engine, tv, gv, parent_eid):
        engine._bind(tv, gv)
        for eid, w in engine.g.incidence[gv]:
            if eid != parent_eid and engine.g2t[w] >= 0 and not engine._drop(eid):
                return False
        children = engine.tt.children[tv]
        if not children:
            return True
        kept = [w for eid, w in engine.g.incidence[gv] if eid not in engine.removed]
        if sum(engine.g2t[w] < 0 for w in kept) < len(children):  # no room
            return False
        engine.stats.nodes_opened += 1
        opened.append(gv)
        core_pendants = []
        for c in _full_walk(engine, gv):
            u = c["edges"][0][0]
            is_tree = c["acyclic"] and c["attach"] == 0
            if engine.trim.parent[u] == gv:
                assert is_tree and len(c["edges"]) == 1
                seen["trim child"] += 1
            elif engine.trim.parent[gv] == u:
                assert not c["acyclic"]
                seen["trim parent"] += 1
            elif is_tree and len(c["edges"]) == 1:
                core_pendants.append(c["edges"][0])
                seen["core pendant"] += 1
            else:
                seen["core branch"] += 1
        avail = _reference_open(engine, gv, tv)
        if avail is None:
            return False
        assert all(edge in avail for edge in core_pendants)
        branched.extend(core_pendants)
        engine.slots[tv] = avail
        return True

    def checked_place(engine, tv, gv, parent_eid):
        ck, reason, opens = len(engine.trail), engine.fail_reason, engine.stats.nodes_opened
        engine.slots[tv] = None
        want = reference_place(engine, tv, gv, parent_eid)
        state = (
            want,
            engine.slots[tv],
            list(engine.t2g),
            set(engine.removed),
            engine.fail_reason,
            engine.stats.nodes_opened,
        )
        engine._rollback(ck)
        engine.fail_reason, engine.stats.nodes_opened, engine.slots[tv] = reason, opens, None
        got = real_place(engine, tv, gv, parent_eid)
        assert (
            got,
            engine.slots[tv],
            engine.t2g,
            engine.removed,
            engine.fail_reason,
            engine.stats.nodes_opened,
        ) == state
        return got

    monkeypatch.setattr(_Engine, "_place", checked_place)
    cases = []
    for seed in range(120):
        rng = random.Random(seed)
        n, k = rng.randint(6, 60), rng.randint(2, 6)
        mode = "planted-yes" if seed % 2 else "random"
        inst = gen_instance(GenSpec(n=n, k=k, seed=seed, mode=mode))
        cases.append((inst.graph, inst.target.tree))
    for n in (12, 40):
        cases += [(end_chord_path(n), path(n)), (hub_with_leaves(n), gen_tree(n, n))]
    for g, target in cases:  # below the degree screen, which rejects many random ones
        _solve_core(g, _centre_rooted(target), g.m - g.n + 1, SolveStats(), None)
    assert all(seen.values()) and branched, seen
    assert len(opened) == 6626


def test_one_incidence_read_per_placement():
    """Placing a vertex reads its incidence list once: the root once per
    attempt, and each branch examined once."""
    from stiso.graphs import peel_leaves
    from stiso.undirected import _Engine, _Forest

    class CountedReads(tuple):
        reads = 0

        def __getitem__(self, i):
            CountedReads.reads += 1
            return tuple.__getitem__(self, i)

    cases = [chorded_cycle_and_spider(60, 3, 0), (chorded_path(61), path(61))]
    for g, target in cases:
        tt = _centre_rooted(target).build()
        order, parent, _ = peel_leaves(g)
        stats = SolveStats()
        engine = _Engine(g, tt, g.m - g.n + 1, stats, _Forest(order, parent, tt.table))
        min_children = len(tt.children[tt.root])
        roots = [v for v, pairs in enumerate(g.incidence) if len(pairs) >= min_children]
        g.incidence = CountedReads(g.incidence)
        CountedReads.reads = 0
        for v in roots:
            if engine.root_fits(v) and engine.attempt(v) is not None:
                break
        assert stats.attempts > 1
        assert CountedReads.reads == stats.attempts + stats.branches_examined


def test_chorded_path_walks_nothing():
    # every opened node walked the remainder, which made this cubic in n
    n = 401
    g, target = chorded_path(n), _centre_rooted(path(n))
    stats = SolveStats()
    v = solve_undirected(g, target, stats=stats)
    assert v.is_yes and certify_undirected(g, target, v)
    assert (stats.attempts, stats.nodes_opened) == (134, 175830)
    assert solve_undirected(end_chord_path(n), path(n)).is_yes


def test_chorded_cycle_against_a_spider():
    # every vertex is a root candidate and each attempt opens Theta(n) nodes;
    # only the answers are checked here, not the effort
    answers = Counter()
    for n in range(5, 11):
        for k in range(2, 5):
            for seed in range(4):
                g, target = chorded_cycle_and_spider(n, k, seed)
                v = solve_undirected(g, target)
                assert v.answer == oracle_undirected(g, target).answer, (n, k, seed)
                answers[v.answer] += 1
    assert answers["YES"] > 0 and answers["NO"] > 0
    for k in (2, 3, 4):
        for seed in range(3):
            assert not solve_undirected(*chorded_cycle_and_spider(60, k, seed)).is_yes, (k, seed)


def test_end_chord_path_at_twenty_thousand():
    # a walk of the remainder at every opened node made this quadratic in n
    n = 20_001
    g, target = end_chord_path(n), _centre_rooted(path(n))
    stats = SolveStats()
    v = solve_undirected(g, target, stats=stats)
    assert v.is_yes and certify_undirected(g, target, v)
    assert stats.attempts == 4


def test_hub_with_ten_thousand_leaves():
    # matching each leaf by scanning the hub's target children was quadratic
    n = 10_000
    g = hub_with_leaves(n)
    target = UGraph(n, [(0, 1), (1, 2), (2, 3)] + [(0, v) for v in range(4, n)])
    stats = SolveStats()
    v = solve_undirected(g, target, stats=stats)
    assert v.is_yes and certify_undirected(g, target, v)
    assert stats.attempts == 1


def test_connectivity_checked_once_per_solve(monkeypatch):
    # k >= 2 and k = 1
    from stiso import graphs, treecode

    hub = UGraph(30, [(0, 1), (1, 2), (2, 3)] + [(0, v) for v in range(4, 30)])
    real, real_bfs = UGraph.is_connected, graphs.bfs
    for g, target in ((hub_with_leaves(30), hub), (cycle(30), path(30))):
        calls, walks = [], []

        def counted(self, *args, **kwargs):
            if self is g:
                calls.append(bool(args or kwargs))
            return real(self, *args, **kwargs)

        def counted_bfs(adjacency, root, skip=frozenset()):
            if adjacency is g.incidence:
                walks.append(len(skip))
            return real_bfs(adjacency, root, skip)

        monkeypatch.setattr(UGraph, "is_connected", counted)
        for module in (graphs, treecode):  # is_connected walks by graphs.bfs
            monkeypatch.setattr(module, "bfs", counted_bfs)
        assert solve_undirected(g, target).is_yes
        # once by the solver, over all of g; the certifier walks g - R once, R of k edges
        assert calls == [False], g.edges
        assert walks == [0, g.m - g.n + 1], g.edges


def test_target_tree_not_revalidated_per_solve(monkeypatch):
    # k = 0, 1, and >= 2.  A TargetTree, rooted at vertex 1 or at a centre, is
    # searched from its root as given: the solve neither roots it again nor
    # walks it (no rooting, no centre walk, no connectivity check, no printed
    # code).  A plain target costs one rooting, at its smallest-id vertex of
    # maximum degree, and no centre walk
    from stiso import treecode
    from stiso.undirected import _solve_core

    cases = [
        (path(4), path(4), True),
        (cycle(4), path(4), True),
        (cycle(4), star(4), False),
        (complete(4), path(4), True),
        (hub_with_leaves(30), path(30), False),
    ]
    real, real_code, real_order = UGraph.is_connected, treecode.rooted_code, treecode._rooted_order
    real_centers = treecode.tree_centers
    for g, tree, answer in cases:
        top = max(range(tree.n), key=tree.degree)
        for target in (TargetTree(tree, 1), _centre_rooted(tree), tree):
            rooted = isinstance(target, TargetTree)
            calls, codes, rootings, walks = [], [], [], []

            def counted(self, *args, **kwargs):
                if self is tree:
                    calls.append(self)
                return real(self, *args, **kwargs)

            def counted_code(*args):
                codes.append(args)
                return real_code(*args)

            def counted_order(t, r):
                if t is tree:
                    rootings.append(r)
                return real_order(t, r)

            def counted_centers(t):
                walks.append(t)
                return real_centers(t)

            monkeypatch.setattr(UGraph, "is_connected", counted)
            monkeypatch.setattr(treecode, "rooted_code", counted_code)
            monkeypatch.setattr(treecode, "_rooted_order", counted_order)
            monkeypatch.setattr(treecode, "tree_centers", counted_centers)
            lines = []
            k = g.m - g.n + 1
            if answer or not rooted:
                verdict = solve_undirected(g, target, trace=lines.append)
            else:  # the degree screen rejects both NOs: search below it
                verdict = _solve_core(g, target, k, SolveStats(), lines.append)
            assert verdict.is_yes is answer
            monkeypatch.setattr(UGraph, "is_connected", real)
            monkeypatch.setattr(treecode, "rooted_code", real_code)
            monkeypatch.setattr(treecode, "_rooted_order", real_order)
            monkeypatch.setattr(treecode, "tree_centers", real_centers)
            assert calls == [] and codes == [] and walks == []
            assert answer or _screened(g, target)
            assert rootings == ([] if rooted else [top]), (tree.n, target)
            if rooted or answer:  # searched from the root given, or from the top one
                root = target.root if rooted else top
                assert all(line.startswith(f"troot={root} ") for line in lines), lines
            else:
                assert lines == [SCREEN_LINE]
