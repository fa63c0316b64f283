import copy
import random

import pytest
from hypothesis import given, strategies as st

from stiso import (
    DiGraph,
    NotArborescenceError,
    NotATreeError,
    TargetTree,
    UGraph,
    arborescence_root,
    gen_tree,
    rooted_code,
    rooted_iso_mapping,
    tree_centers,
    unrooted_code,
)

from stiso.treecode import _ahu, _rooted_order
from util import (
    all_free_trees,
    brute_centers,
    brute_iso,
    complete,
    path,
    reference_unrooted_code,
    star,
    subtree_codes,
)


def test_rooted_code_base_cases():
    assert rooted_code(UGraph(1, []), 0) == "()"
    p3 = path(3)
    assert rooted_code(p3, 0) == "((()))"
    assert rooted_code(p3, 1) == "(()())"
    assert rooted_code(star(4), 0) == "(()()())"


def test_rooted_code_rejects_non_tree():
    with pytest.raises(NotATreeError):
        rooted_code(UGraph(3, [(0, 1), (1, 2), (2, 0)]), 0)
    with pytest.raises(NotATreeError):
        rooted_code(UGraph(4, [(0, 1), (2, 3)]), 0)


@given(st.integers(2, 200), st.integers(0, 2**32), st.randoms(), st.booleans())
def test_rooted_code_relabel_invariant(n, seed, rnd, unrooted):
    t = gen_tree(n, seed)
    root = rnd.randrange(n)
    perm = list(range(n))
    rnd.shuffle(perm)
    if unrooted:
        assert unrooted_code(t) == unrooted_code(t.relabeled(perm))
    else:
        assert rooted_code(t, root) == rooted_code(t.relabeled(perm), perm[root])


def test_rooted_code_on_a_long_path_in_linear_memory():
    """The string is written from the ids, not built from every vertex's own
    string, so a path of n vertices costs O(n) memory, not Θ(n²)."""
    import tracemalloc

    n = 10**4
    p = path(n)
    tracemalloc.start()
    try:
        code = rooted_code(p, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == "(" * n + ")" * n
    assert peak < 16 * 2**20, peak


def test_codes_equal_iff_reference_codes_equal():
    """Every free tree on up to 9 vertices, in every rooting: two rooted codes
    are equal iff the reference strings of ``util.subtree_codes`` are, and two
    unrooted codes iff ``util.reference_unrooted_code``'s are."""
    rooted, unrooted = [], []
    for trees in all_free_trees(9).values():
        for t in trees:
            unrooted.append((unrooted_code(t), reference_unrooted_code(t)))
            rooted += [(rooted_code(t, r), subtree_codes(t, r)[r]) for r in range(t.n)]
    for pairs in (rooted, unrooted):
        ours, ref = zip(*pairs)
        assert len(set(ours)) == len(set(ref)) == len(set(pairs))
    assert len(unrooted) == len(set(unrooted)) == 95 and len(rooted) > 700


def _arborescence_code(d: DiGraph) -> str:
    return rooted_code(d.underlying(), arborescence_root(d))


def test_rooted_iso_examples():
    p3 = path(3)
    assert rooted_code(p3, 1) != rooted_code(p3, 0)
    assert rooted_code(p3, 0) == rooted_code(p3, 2)


def test_unrooted_iso_examples():
    assert unrooted_code(path(4)) != unrooted_code(star(4))
    t = gen_tree(9, 7)
    perm = list(range(9))
    random.Random(1).shuffle(perm)
    assert unrooted_code(t) == unrooted_code(t.relabeled(perm))


def test_tree_centers():
    assert tree_centers(path(5)) == [2]
    assert tree_centers(path(4)) == [1, 2]
    assert tree_centers(star(7)) == [0]
    assert tree_centers(UGraph(1, [])) == [0]
    assert tree_centers(UGraph(2, [(0, 1)])) == [0, 1]


def test_first_center_from_any_rooting():
    """``tree_centers`` gives the vertices of least eccentricity: every free
    tree on up to 9 vertices and a grid of random trees."""
    trees = [t for ts in all_free_trees(9).values() for t in ts]
    trees += [path(2), path(9), star(7)]
    trees += [gen_tree(n, seed) for n in range(2, 61) for seed in range(10)]
    for t in trees:
        centers = brute_centers(t)
        assert tree_centers(t) == centers, t.edges


def test_centers_and_unrooted_iso_reject_non_trees():
    # empty, cyclic, and n - 1 edges that leave a vertex out
    triangle = [(0, 1), (1, 2), (2, 0)]
    for bad in (UGraph(0, []), UGraph(3, triangle), UGraph(4, triangle)):
        with pytest.raises(NotATreeError):
            tree_centers(bad)
        with pytest.raises(NotATreeError):
            unrooted_code(bad)
    assert unrooted_code(path(3)) != unrooted_code(path(4))


def test_transitivity_on_sampled_triples():
    for seed in range(25):
        a = gen_tree(8, seed)
        perm1 = list(range(8))
        perm2 = list(range(8))
        random.Random(seed).shuffle(perm1)
        random.Random(seed + 100).shuffle(perm2)
        b = a.relabeled(perm1)
        c = b.relabeled(perm2)
        assert unrooted_code(a) == unrooted_code(b) and unrooted_code(b) == unrooted_code(c)
        assert unrooted_code(a) == unrooted_code(c)


def test_rooted_iso_mapping_is_an_isomorphism():
    for seed in range(20):
        t = gen_tree(10, seed)
        perm = list(range(10))
        random.Random(seed).shuffle(perm)
        u = t.relabeled(perm)
        mapping = rooted_iso_mapping(t, 0, u, perm[0])
        assert mapping is not None
        edges_t = {(min(a, b), max(a, b)) for a, b in t.edges}
        edges_u = {(min(a, b), max(a, b)) for a, b in u.edges}
        assert {
            (min(mapping[a], mapping[b]), max(mapping[a], mapping[b])) for a, b in edges_t
        } == edges_u


def test_arborescence_root_examples():
    assert arborescence_root(DiGraph(3, [(0, 1), (1, 2)])) == 0
    assert arborescence_root(DiGraph(4, [(1, 0), (1, 2), (1, 3)])) == 1
    with pytest.raises(NotArborescenceError):
        arborescence_root(DiGraph(3, [(0, 1), (2, 1)]))
    with pytest.raises(NotArborescenceError):
        arborescence_root(DiGraph(4, [(0, 1), (1, 2)]))  # disconnected underlying
    with pytest.raises(NotArborescenceError):
        # right in-degrees and n - 1 arcs, but the cycle 2 <-> 3 is unreachable
        arborescence_root(DiGraph(4, [(0, 1), (2, 3), (3, 2)]))


def test_arborescence_root_names_each_fault():
    """Each remaining check raises with its own message: a wrong arc count,
    a number of sources other than one (a vertex of in-degree 2 leaves a
    second source), and a vertex the root cannot reach."""
    with pytest.raises(NotArborescenceError, match="not a tree"):
        arborescence_root(DiGraph(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(NotArborescenceError, match="2 vertices of in-degree 0"):
        arborescence_root(DiGraph(4, [(0, 1), (1, 2), (3, 2)]))
    with pytest.raises(NotArborescenceError, match="unreachable from the root 0"):
        arborescence_root(DiGraph(5, [(0, 1), (1, 2), (3, 4), (4, 3)]))
    assert arborescence_root(DiGraph(1, [])) == 0


def test_arborescence_iso_examples():
    p = DiGraph(3, [(0, 1), (1, 2)])
    q = DiGraph(3, [(2, 0), (0, 1)])
    assert _arborescence_code(p) == _arborescence_code(q)
    out_star = DiGraph(3, [(0, 1), (0, 2)])
    assert _arborescence_code(p) != _arborescence_code(out_star)


def test_arborescence_iso_agrees_with_brute_force():
    # an out-arborescence is determined by (underlying tree, root), so the
    # independent check is a root-pinned bijection search on the underlyings
    from util import brute_rooted_iso

    def random_arborescence(n, seed):
        rnd = random.Random(seed)
        t = gen_tree(n, seed)
        root = rnd.randrange(n)
        arcs, seen, stack = [], {root}, [root]
        while stack:
            x = stack.pop()
            for w in t.neighbors(x):
                if w not in seen:
                    seen.add(w)
                    arcs.append((x, w))
                    stack.append(w)
        return DiGraph(n, arcs), root

    for seed in range(40):
        n = 4 + seed % 4  # up to 7
        d1, r1 = random_arborescence(n, seed)
        d2, r2 = random_arborescence(n, seed + 1000)
        expected = brute_rooted_iso(
            UGraph(n, list(d1.arcs)), r1, UGraph(n, list(d2.arcs)), r2
        )
        assert (_arborescence_code(d1) == _arborescence_code(d2)) == expected


def test_arborescence_iso_implies_underlying_iso():
    for seed in range(15):
        t = gen_tree(7, seed)
        root = seed % 7
        arcs = []
        parent = {root: None}
        stack = [root]
        while stack:
            x = stack.pop()
            for w in t.neighbors(x):
                if w not in parent:
                    parent[w] = x
                    arcs.append((x, w))
                    stack.append(w)
        d1 = DiGraph(7, arcs)
        perm = list(range(7))
        random.Random(seed).shuffle(perm)
        d2 = d1.relabeled(perm)
        assert _arborescence_code(d1) == _arborescence_code(d2)
        assert unrooted_code(d1.underlying()) == unrooted_code(d2.underlying())


def test_dfs_order_examples():
    p3 = TargetTree(path(3), 0).build()
    assert p3.order == (0, 1, 2)
    s4 = TargetTree(star(4), 0).build()
    assert s4.order == (0, 1, 2, 3)
    # root 0 with leaf child 1 and path child 2-3: leaf code sorts first
    spider = TargetTree(UGraph(4, [(0, 1), (0, 2), (2, 3)]), 0).build()
    assert spider.order == (0, 1, 2, 3)


def test_dfs_order_is_preorder_permutation():
    for seed in range(20):
        t = gen_tree(11, seed)
        tt = TargetTree(t, tree_centers(t)[0]).build()
        order = tt.order
        assert sorted(order) == list(range(11))
        assert order[0] == tt.root
        # every vertex appears after its parent
        pos = {v: i for i, v in enumerate(order)}
        for v in range(11):
            if tt.parent[v] != -1:
                assert pos[tt.parent[v]] < pos[v]
        # children occupy contiguous blocks: v's subtree is an interval
        for v in range(11):
            below = _subtree(tt, v)
            assert max(pos[w] for w in below) - pos[v] == len(below) - 1


def _subtree(tt, v):
    out = [v]
    stack = [v]
    while stack:
        x = stack.pop()
        for c in tt.children[x]:
            out.append(c)
            stack.append(c)
    return out


def test_dfs_order_deterministic():
    t = gen_tree(14, 5)
    a = TargetTree(t, 3).build()
    b = TargetTree(t, 3).build()
    assert a.order == b.order


def test_unrooted_code_brute_force_spot_check():
    t1 = gen_tree(7, 1)
    t2 = gen_tree(7, 2)
    assert (unrooted_code(t1) == unrooted_code(t2)) == brute_iso(t1, t2)


def _assert_ids_match_codes(tt: TargetTree, codes: list[str]) -> None:
    """Equal ids iff equal codes; each id is the table's for its children's ids."""
    assert len(set(tt.ids)) == len(set(codes)) == len(set(zip(tt.ids, codes)))
    for v, kids in enumerate(tt.children):
        assert tt.table[tuple(sorted(tt.ids[w] for w in kids))] == tt.ids[v]


def test_target_tree_codes_match_subtree_codes():
    for seed in range(10):
        t = gen_tree(15, seed)
        for root in (0, 7, 14):
            tt = TargetTree(t, root).build()
            codes = subtree_codes(t, root)
            _assert_ids_match_codes(tt, codes)
            assert len(tt.table) == len(set(codes))
            assert [len(_subtree(tt, v)) for v in range(15)] == [len(c) // 2 for c in codes]
    with pytest.raises(ValueError):
        TargetTree(path(3), 3)
    with pytest.raises(NotATreeError):
        TargetTree(UGraph(4, [(0, 1), (1, 2), (2, 0)]), 0)


def _assert_children_by_id(t: UGraph, r: int) -> int:
    """Asserts that ``TargetTree(t, r)`` lists children by ``(ids[c], c)`` and
    that two siblings' string codes are equal iff their ids are; returns the
    number of sibling pairs of one size but different codes."""
    tt = TargetTree(t, r).build()
    codes = subtree_codes(t, r)
    unequal = 0
    for v in range(t.n):
        kids = tt.children[v]
        assert list(kids) == sorted(kids, key=lambda c: (tt.ids[c], c)), (t.edges, r)
        for i, a in enumerate(kids):
            for b in kids[i + 1 :]:
                assert (codes[a] == codes[b]) == (tt.ids[a] == tt.ids[b]), (t.edges, r)
                unequal += codes[a] != codes[b] and len(codes[a]) == len(codes[b])
    return unequal


def test_target_tree_orders_children_by_code_at_and_next_to_centers():
    """Children follow the order of their codes' interned ids, ``(ids[c], c)``,
    and two siblings' string codes are equal iff their ids are: every free tree
    on up to 9 vertices in every rooting, and larger trees (up to 1000 vertices)
    rooted at each centre and at each centre's neighbours."""
    cases = [(t, r) for trees in all_free_trees(9).values() for t in trees for r in range(t.n)]
    trees = [gen_tree(n, seed) for n in range(2, 61) for seed in range(4)]
    trees += [gen_tree(1000, seed) for seed in range(3)]
    trees += [path(n) for n in (2, 3, 4, 9, 10, 1000)] + [star(7)]
    for t in trees:
        centers = tree_centers(t)
        roots = set(centers).union(w for c in centers for _, w in t.incidence[c])
        cases += [(t, r) for r in sorted(roots)]
    for t, r in cases:
        _assert_children_by_id(t, r)
    assert len(cases) > 1000


def test_target_tree_orders_equal_size_siblings_by_code_bytes():
    """Siblings of one size but different shape, whose codes differ only in
    their bytes, get different ids and so fixed places in ``(ids[c], c)``
    order; siblings with equal codes share an id.  Every free tree on 7
    vertices, in every rooting, hangs from one root, under two labellings, so
    that one vertex has siblings of every shape; the tree is also rooted inside
    those subtrees."""
    edges, n = [], 1
    for t in all_free_trees(7)[7]:
        for r in range(7):
            edges += [(n + a, n + b) for a, b in t.edges] + [(0, n + r)]
            n += 7
    big = UGraph(n, edges)
    perm = list(range(n))
    random.Random(3).shuffle(perm)
    cases = [(big, r) for r in range(0, n, 5)] + [(big.relabeled(perm), perm[0])]
    assert sum(_assert_children_by_id(t, r) for t, r in cases) > 1000


def test_match_sorts_only_the_candidate(monkeypatch):
    """``TargetTree.match`` runs one lookup pass per candidate, over the candidate
    alone: the target's ``children`` are already in ``(id, vertex)`` order."""
    from stiso import treecode

    calls = []
    real = treecode._ahu
    def counted(order, parent, table, **kw):
        calls.append(parent)
        return real(order, parent, table, **kw)

    monkeypatch.setattr(treecode, "_ahu", counted)
    answers = []
    for seed in range(20):
        t = gen_tree(25, seed)
        tt = TargetTree(t, 0).build()  # before counting
        perm = list(range(25))
        random.Random(seed).shuffle(perm)
        for other, root in ((t.relabeled(perm), perm[0]), (gen_tree(25, seed + 100), 0)):
            order, parent = _rooted_order(other, root)
            calls.clear()
            mapping = tt.match(order, parent)
            assert calls == [parent]
            if mapping is not None:
                assert all(parent[mapping[a]] == mapping[tt.parent[a]] for a in range(1, 25))
            answers.append(mapping is not None)
    assert answers.count(True) == 20 and answers.count(False) == 20


def test_solves_leave_the_target_tree_unchanged():
    """Both solvers only look candidates up in the caller's table.  Undirected
    k = 0, 1 and >= 2 against a two-centre target rooted at either centre or off
    centre, then the directed solver; a second solve gives the same verdict."""
    from stiso import GenSpec, gen_instance, solve_directed, solve_undirected

    def snapshot(tt):
        fields = {f: copy.deepcopy(getattr(tt, f)) for f in TargetTree.__slots__ if f != "tree"}
        return fields, list(tt.tree.edges), len(tt.table)

    def solve_twice(solve, g, target):
        before = snapshot(target.build())
        verdicts = []
        for _ in range(2):
            v = solve(g, target)
            verdicts.append((v.answer, v.mapping, v.removed))
            assert snapshot(target) == before
        assert verdicts[0] == verdicts[1]

    # 2 - 0 - 1 - 4 and a leaf 3 on 0: centres 0 and 1
    tree = UGraph(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
    extra = [(2, 3), (3, 4), (2, 4)]
    cases = [
        (UGraph(5, list(tree.edges) + extra[:k]), TargetTree(tree, r))
        for k in (0, 1, 3)
        for r in (0, 1, 4)
    ]
    for k in (0, 1, 2, 4):
        for mode in ("planted-yes", "random"):
            inst = gen_instance(GenSpec(n=30, k=k, seed=k, mode=mode))
            t = inst.target.tree
            cases += [(inst.graph, TargetTree(t, r)) for r in (0, *tree_centers(t))]
    # K4 with a 3-leaf star hanging from 0: a trim shape that the path, rooted
    # at its one centre, does not have
    star_on_k4 = list(complete(4).edges) + [(0, 4), (4, 5), (4, 6), (4, 7), (1, 8)]
    cases.append((UGraph(9, star_on_k4), TargetTree(path(9), 4)))
    for g, target in cases:
        solve_twice(solve_undirected, g, target)
    for seed in range(6):
        mode = "planted-yes" if seed % 2 else "random"
        inst = gen_instance(GenSpec(n=20, k=3, seed=seed, mode=mode, directed=True))
        solve_twice(solve_directed, inst.graph, inst.target)


def test_target_tree_on_a_long_path():
    n = 10**5
    tt = TargetTree(path(n), n // 2).build()
    # the right half (one vertex fewer) is visited first
    assert tt.order == (n // 2, *range(n // 2 + 1, n), *range(n // 2 - 1, -1, -1))
    assert len(tt.table) == n // 2 + 1


def _look_up(tree: UGraph, root: int, table: dict) -> list[int]:
    order, parent = _rooted_order(tree, root)
    return _ahu(reversed(order), parent, table)[0]


def test_lookup_root_id_matches_interning_without_growing_the_table():
    target = TargetTree(gen_tree(12, 3), 0).build()
    table, root_id = target.table, target.ids[0]
    size = len(table)
    perm = list(range(12))
    random.Random(5).shuffle(perm)
    same = target.tree.relabeled(perm)
    assert _look_up(same, perm[0], table)[perm[0]] == root_id
    # a non-isomorphic tree: a key the target never produced gives -1
    assert _look_up(star(12), 0, table)[0] == -1
    # every key known (a proper subtree of the target) but a different root id
    assert _look_up(path(2), 0, table)[0] not in (-1, root_id)
    assert len(table) == size


def test_per_vertex_ids_agree_between_interning_and_lookup():
    target = TargetTree(gen_tree(14, 4), 0).build()
    table, ids = target.table, target.ids
    _assert_ids_match_codes(target, subtree_codes(target.tree, 0))
    perm = list(range(14))
    random.Random(8).shuffle(perm)
    same = target.tree.relabeled(perm)
    assert _look_up(same, perm[0], table) == [ids[perm.index(v)] for v in range(14)]


def test_ahu_pass_interns_and_looks_up_alike():
    """One table is interned from every rooting of every free tree on up to 7
    vertices; every rooting up to 9 vertices is then looked up in it.  Equal ids
    iff equal string codes, a lookup gives the interned id and never grows the
    table, a shape the table lacks gets -1 and so does every ancestor, and
    children come by ``(id, vertex)``."""
    table: dict = {}
    id_of: dict[str, int] = {}  # string code -> interned id
    misses = 0
    for n, trees in sorted(all_free_trees(9).items()):
        for t in trees:
            for r in range(n):
                order, parent = _rooted_order(t, r)
                codes = subtree_codes(t, r)
                if n <= 7:
                    ids = _ahu(reversed(order), parent, table, intern=True)[0]
                    for v in range(n):
                        assert id_of.setdefault(codes[v], ids[v]) == ids[v], (t.edges, r)
                    assert len(table) == len(id_of) == len(set(id_of.values()))
                size = len(table)
                ids, kids = _ahu(reversed(order), parent, table)
                assert len(table) == size
                assert ids == [id_of.get(c, -1) for c in codes], (t.edges, r)
                for v in range(n):
                    below = [c for c in range(n) if parent[c] == v]
                    assert kids[v] == sorted(below, key=lambda c: (ids[c], c)), (t.edges, r)
                    if ids[v] == -1 and parent[v] != -1:
                        assert ids[parent[v]] == -1, (t.edges, r, v)
                misses += ids[r] == -1
    assert misses > 0


def _canonical(tt: TargetTree) -> tuple:
    return tuple(getattr(tt.build(), f) for f in ("root", "parent", "order", "children", "ids", "table"))


def test_canonical_layer_is_built_once_by_build_never_on_a_screened_no(monkeypatch):
    """Construction validates the tree and interns nothing.  ``build()`` interns
    the target's ids in one ``_ahu`` pass, however often it is called, and a
    solve builds only a target whose answer needs the codes: a NO that a degree
    screen decides interns nothing."""
    from stiso import DirectedStats, GenSpec, gen_instance, solve_directed, solve_undirected
    from stiso import treecode

    interned: list = []  # the parent array of each interning pass
    ahu = treecode._ahu

    def counted(bottom_up, parent, table, *, intern=False):
        if intern:
            interned.append(parent)
        return ahu(bottom_up, parent, table, intern=intern)

    monkeypatch.setattr(treecode, "_ahu", counted)
    with pytest.raises(NotATreeError):  # validation stays at construction
        TargetTree(UGraph(4, [(0, 1), (1, 2), (2, 0)]), 0)
    with pytest.raises(ValueError):
        TargetTree(path(3), 3)
    tt = TargetTree(gen_tree(30, 1), 0)
    assert interned == [] and not hasattr(tt, "table")
    assert tt.build() is tt and tt.build() is tt
    assert interned == [tt.parent]

    screened = hits = 0
    for seed in range(20):
        for mode in ("random", "planted-yes"):
            inst = gen_instance(GenSpec(n=40, k=3, seed=seed, mode=mode, directed=True))
            target, stats = TargetTree(inst.target.tree, inst.target.root), DirectedStats()
            interned.clear()
            verdict = solve_directed(inst.graph, target, stats=stats)
            # only a plan that passes the out-degree tests and spans builds the codes
            assert interned == ([target.parent] if stats.arborescence_hits else [])
            screened += stats.arborescence_hits == 0 and not verdict.is_yes
            hits += verdict.is_yes
            assert _canonical(target) == _canonical(TargetTree(target.tree, target.root))
    assert screened >= 5 and hits >= 20

    screened = hits = 0
    for seed in range(12):
        inst = gen_instance(GenSpec(n=30, k=seed % 5, seed=seed, mode="random" if seed % 2 else "planted-yes"))
        t = inst.target.tree
        for r in (0, *tree_centers(t)):
            target = TargetTree(t, r)
            interned.clear()
            verdict = solve_undirected(inst.graph, target)
            # the caller's rooting is built, and no other, unless the degree
            # screen decides
            screened += verdict.note is not None
            hits += verdict.is_yes
            assert interned == ([target.parent] if verdict.note is None else [])
            assert _canonical(target) == _canonical(TargetTree(t, r))
    assert screened >= 10 and hits >= 10
