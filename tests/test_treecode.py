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
    unrooted_iso,
)

from stiso.treecode import (
    arborescence_iso,
    intern_child_ids,
    lookup_root_id,
    rooted_iso,
    subtree_codes,
)
from util import brute_iso, path, star


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


@given(st.integers(2, 24), st.integers(0, 2**32), st.randoms())
def test_rooted_code_relabel_invariant(n, seed, rnd):
    t = gen_tree(n, seed)
    root = rnd.randrange(n)
    perm = list(range(n))
    rnd.shuffle(perm)
    assert rooted_code(t, root) == rooted_code(t.relabeled(perm), perm[root])


def test_rooted_iso_examples():
    p3 = path(3)
    assert not rooted_iso(p3, 1, p3, 0)
    assert rooted_iso(p3, 0, p3, 2)


def test_unrooted_iso_examples():
    assert not unrooted_iso(path(4), star(4))
    t = gen_tree(9, 7)
    perm = list(range(9))
    random.Random(1).shuffle(perm)
    assert unrooted_iso(t, t.relabeled(perm))


def test_tree_centers():
    assert tree_centers(path(5)) == [2]
    assert tree_centers(path(4)) == [1, 2]
    assert tree_centers(star(7)) == [0]
    assert tree_centers(UGraph(1, [])) == [0]
    assert tree_centers(UGraph(2, [(0, 1)])) == [0, 1]


def test_transitivity_on_sampled_triples():
    for seed in range(25):
        a = gen_tree(8, seed)
        perm1 = list(range(8))
        perm2 = list(range(8))
        random.Random(seed).shuffle(perm1)
        random.Random(seed + 100).shuffle(perm2)
        b = a.relabeled(perm1)
        c = b.relabeled(perm2)
        assert unrooted_iso(a, b) and unrooted_iso(b, c)
        assert unrooted_iso(a, c)


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


def test_arborescence_iso_examples():
    p = DiGraph(3, [(0, 1), (1, 2)])
    q = DiGraph(3, [(2, 0), (0, 1)])
    assert arborescence_iso(p, q)
    out_star = DiGraph(3, [(0, 1), (0, 2)])
    assert not arborescence_iso(p, out_star)


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
        assert arborescence_iso(d1, d2) == expected


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
        assert arborescence_iso(d1, d2)
        assert unrooted_iso(d1.underlying(), d2.underlying())


def test_dfs_order_examples():
    p3 = TargetTree(path(3), 0)
    assert p3.order == (0, 1, 2)
    s4 = TargetTree(star(4), 0)
    assert s4.order == (0, 1, 2, 3)
    # root 0 with leaf child 1 and path child 2-3: leaf code sorts first
    spider = TargetTree(UGraph(4, [(0, 1), (0, 2), (2, 3)]), 0)
    assert spider.order == (0, 1, 2, 3)


def test_dfs_order_is_preorder_permutation():
    for seed in range(20):
        t = gen_tree(11, seed)
        tt = TargetTree(t, tree_centers(t)[0])
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
            assert max(pos[w] for w in _subtree(tt, v)) - pos[v] == tt.subtree_size[v] - 1


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
    a = TargetTree(t, 3)
    b = TargetTree(t, 3)
    assert a.order == b.order


def test_unrooted_code_brute_force_spot_check():
    t1 = gen_tree(7, 1)
    t2 = gen_tree(7, 2)
    assert (unrooted_code(t1) == unrooted_code(t2)) == brute_iso(t1, t2)


def _target_table(tt: TargetTree):
    table = {}
    (root_id,) = intern_child_ids(reversed(tt.order), tt.parent, table)[-1]
    return table, root_id


def _bottom_up(tree: UGraph, root: int):
    tt = TargetTree(tree, root)
    return list(reversed(tt.order)), tt.parent


def test_lookup_root_id_matches_interning_without_growing_the_table():
    target = TargetTree(gen_tree(12, 3), 0)
    table, root_id = _target_table(target)
    size = len(table)
    perm = list(range(12))
    random.Random(5).shuffle(perm)
    same = target.tree.relabeled(perm)
    assert lookup_root_id(*_bottom_up(same, perm[0]), table) == root_id
    # a non-isomorphic tree: a key the target never produced ends the walk
    assert lookup_root_id(*_bottom_up(star(12), 0), table) is None
    # every key known (a proper subtree of the target) but a different root id
    assert lookup_root_id(*_bottom_up(path(2), 0), table) not in (None, root_id)
    assert len(table) == size


def test_target_tree_codes_match_subtree_codes():
    for seed in range(10):
        t = gen_tree(15, seed)
        for root in (0, 7, 14):
            tt = TargetTree(t, root)
            assert tt.code == subtree_codes(t, root)
    with pytest.raises(ValueError):
        TargetTree(path(3), 3)
    with pytest.raises(NotATreeError):
        TargetTree(UGraph(4, [(0, 1), (1, 2), (2, 0)]), 0)


def test_per_vertex_ids_agree_between_interning_and_lookup():
    target = TargetTree(gen_tree(14, 4), 0)
    table = {}
    ids = [None] * 14
    kid_ids = intern_child_ids(reversed(target.order), target.parent, table, ids)
    for v in range(14):
        assert sorted(kid_ids.get(v, ())) == sorted(ids[w] for w in target.children[v])
        assert table[tuple(sorted(kid_ids.get(v, ())))] == ids[v]
    perm = list(range(14))
    random.Random(8).shuffle(perm)
    same = target.tree.relabeled(perm)
    looked_up = [None] * 14
    assert lookup_root_id(*_bottom_up(same, perm[0]), table, looked_up) == ids[0]
    assert looked_up == [ids[perm.index(v)] for v in range(14)]
