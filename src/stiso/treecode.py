"""Canonical codes and isomorphism tests for rooted trees and arborescences.

Trees are compared on integers (Aho, Hopcroft and Ullman 1974).  One
bottom-up pass, :func:`_ahu`, gives every rooted tree its ids and its
children in ``(id, vertex)`` order: it interns into a table once per
target, in :meth:`TargetTree.build`, which the undirected solver
calls once its screens pass and :meth:`TargetTree.match` calls before its
first lookup, so a NO that a degree screen decides never builds the codes;
every candidate (a whole tree in :meth:`TargetTree.match`, and the trim
forest in the undirected search) is only looked up in that table,
with -1 for a shape the target lacks, so no solve changes the target.
Siblings are listed by ``(id, vertex)`` on both sides, which puts
isomorphic siblings next to each other, and :func:`_pair_children` pairs
them on equal root ids.

:func:`rooted_code` prints a tree's ids as a balanced parenthesis string: a
leaf is ``()`` and an internal vertex wraps its children's strings, listed
by a rank that depends only on the tree's shape.  Two rooted trees have
equal strings iff they are isomorphic.  The strings are a printout of the
ids, not a second code, and no solve builds one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import groupby

from .graphs import DiGraph, UGraph, Verdict, bfs, reachable_all


class NotATreeError(ValueError):
    """Input graph is not a tree."""


class NotArborescenceError(ValueError):
    """Input digraph is not an out-arborescence."""


def _rooted_order(tree: UGraph, root: int) -> tuple[list[int], list[int]]:
    """BFS order and parent array of ``tree`` from ``root``.

    Raises NotATreeError unless ``tree`` is a tree; the BFS that builds the
    order is also the connectivity check.
    """
    if tree.n == 0 or tree.m != tree.n - 1:
        raise NotATreeError(f"not a tree: n={tree.n}, m={tree.m}")
    if not 0 <= root < tree.n:
        raise ValueError(f"root {root} out of range")
    order, parent = bfs(tree.incidence, root)
    if len(order) != tree.n:
        raise NotATreeError(f"not a tree: n={tree.n}, m={tree.m}")
    return order, parent


CodeTable = dict[tuple[int, ...], int]  # sorted child ids -> interned id


def _ahu(
    bottom_up: Iterable[int], parent: Sequence[int], table: CodeTable, *, intern: bool = False
) -> tuple[list[int], list[list[int]]]:
    """Aho-Hopcroft-Ullman ids of a rooted forest, computed bottom-up.

    ``bottom_up`` lists vertices, each after all of its children, and
    ``parent`` gives each vertex's parent, -1 at a root.  Returns, as lists,
    each vertex's id and its children in ``(id, vertex)`` order.

    A vertex's id is ``table``'s value for its children's ids in that order.
    With ``intern`` a key the table lacks gets the next id; otherwise the
    vertex gets -1, which no key holds, so its ancestors get -1 too, and
    ``table`` is never changed.
    """
    ids = [-1] * len(parent)
    kids: list[list[int]] = [[] for _ in parent]
    id_of = ids.__getitem__
    for x in bottom_up:
        ks = kids[x]
        if len(ks) > 1:
            ks.sort()
            ks.sort(key=id_of)  # stable: by id, then vertex
        key = tuple(map(id_of, ks))
        ids[x] = table.setdefault(key, len(table)) if intern else table.get(key, -1)
        p = parent[x]
        if p != -1:
            kids[p].append(x)
    return ids, kids


def rooted_code(tree: UGraph, root: int) -> str:
    """Canonical code of ``tree`` rooted at ``root``, in O(n log n) time and
    O(n) memory.

    One :func:`_ahu` pass into a fresh table gives the tree's classes of
    isomorphic subtrees, each interned after its children's, so their sizes
    follow in class order.  They are ranked by subtree size, then by their
    children's ranks in ascending order; a child is smaller than its parent,
    so each size's classes are ranked after every smaller one's, and the
    ranks depend only on the shape.  One iterative DFS then writes the
    string, each vertex's children in rank order.
    """
    order, parent = _rooted_order(tree, root)
    table: CodeTable = {}
    ids, _ = _ahu(reversed(order), parent, table, intern=True)
    keys = list(table)  # keys[c]: class c's children's classes
    size: list[int] = []  # class -> subtree size
    for key in keys:
        size.append(1 + sum(map(size.__getitem__, key)))
    rank = [0] * len(keys)
    kid_ranks: list[list[int]] = []  # each rank's children's ranks, ascending
    for _, group in groupby(sorted(range(len(keys)), key=size.__getitem__), size.__getitem__):
        for ranks, c in sorted([sorted(map(rank.__getitem__, keys[c])), c] for c in group):
            rank[c] = len(kid_ranks)
            kid_ranks.append(ranks)
    out, stack = [], [rank[ids[root]]]
    while stack:
        r = stack.pop()
        if r < 0:
            out.append(")")
        else:
            out.append("(")
            stack.append(~r)
            stack.extend(reversed(kid_ranks[r]))
    return "".join(out)


def tree_centers(tree: UGraph) -> list[int]:
    """The 1 or 2 center vertices of a tree, sorted; NotATreeError unless a tree.

    A branch of ``v`` is a longest path that leaves ``v`` by one edge.  ``v`` is
    a centre iff its two longest branches (0 for a missing one) differ by at
    most one; when they differ by exactly one, the neighbour the longer one
    leaves by is the other centre.  When they differ by more, every centre
    lies beyond that neighbour, so the walk from vertex 0 steps there.
    """
    order, parent = _rooted_order(tree, 0)
    inc = tree.incidence
    height = [0] * len(parent)  # of each vertex's subtree under the rooting at 0
    for x in reversed(order):
        p = parent[x]
        if p != -1 and height[p] <= height[x]:
            height[p] = height[x] + 1
    v, up = 0, 0  # up: v's branch through its parent
    while True:
        top, a1, a2 = -1, 0, up  # the longest branch, by child ``top``, and the next
        for _, c in inc[v]:
            if c != parent[v]:
                a = height[c] + 1
                if a > a1:
                    top, a1, a2 = c, a, max(a1, a2)
                elif a > a2:
                    a2 = a
        if a1 - a2 < 2:
            return sorted((v, top)) if a1 - a2 == 1 else [v]
        v, up = top, a2 + 1


def unrooted_code(tree: UGraph) -> str:
    """Canonical code of an unrooted tree: the smaller code over its centers."""
    return min(rooted_code(tree, c) for c in tree_centers(tree))


def rooted_iso_mapping(t1: UGraph, r1: int, t2: UGraph, r2: int) -> dict[int, int] | None:
    """One isomorphism ``V(t1) -> V(t2)`` with ``r1 -> r2``, or None
    (:meth:`TargetTree.match`)."""
    return TargetTree(t1, r1).match(*_rooted_order(t2, r2))


def _pair_children(
    r1: int, kids1: Sequence[Sequence[int]], r2: int, kids2: Sequence[Sequence[int]]
) -> Iterator[tuple[int, int]]:
    """The pairs of the isomorphism ``r1 -> r2``, root pair first, between two
    rooted trees whose vertex ids come from one table and whose root ids are
    equal, given each vertex's children in ``(id, vertex)`` order (:func:`_ahu`).

    Children with equal ids are interchangeable, so pairing the children of
    each matched pair in that order on both sides is a valid bijection.
    """
    stack = [(r1, r2)]
    while stack:
        pair = stack.pop()
        yield pair
        stack.extend(zip(kids1[pair[0]], kids2[pair[1]]))


def arborescence_root(d: DiGraph) -> int:
    """Root of an out-arborescence: the unique in-degree-0 vertex.

    Certifies the input: n - 1 arcs, exactly one in-degree-0 vertex, and
    every vertex reachable from the root.  The other n - 1 in-degrees are
    then each at least 1 and sum to n - 1, so each is 1.
    """
    if d.m != d.n - 1:
        raise NotArborescenceError("underlying graph is not a tree")
    sources = d.in_inc.count(())
    if sources != 1:
        raise NotArborescenceError(f"{sources} vertices of in-degree 0, expected 1")
    root = d.in_inc.index(())
    if not reachable_all(d, root):
        raise NotArborescenceError(f"some vertex is unreachable from the root {root}")
    return root


class TargetTree:
    """Rooted target tree with its canonical DFS preorder and integer codes.

    ``ids[v]`` is the Aho-Hopcroft-Ullman id of ``v``'s subtree: ``table`` maps
    the sorted ids of a vertex's children to its id, so two subtrees have equal
    ids iff they are isomorphic, and a candidate is compared with the target by
    looking it up in ``table``.

    ``children[v]`` lists ``v``'s children by ``(ids[c], c)``, and ``order`` is the
    preorder that follows those lists, so isomorphic sibling subtrees are
    adjacent in the order and the order is identical across runs.

    Construction validates the tree and keeps the parent array; the canonical
    layer (``ids``, ``table``, ``children`` and ``order``) exists only after
    :meth:`build`, so a caller whose answer never needs it, such as a NO that
    a degree screen decides, never pays for it.
    """

    __slots__ = ("tree", "root", "parent", "_bfs", "order", "children", "ids", "table")

    def __init__(self, tree: UGraph, root: int):
        self._bfs, self.parent = _rooted_order(tree, root)
        self.tree = tree
        self.root = root

    def build(self) -> TargetTree:
        """Build the canonical layer unless it is built; returns ``self``."""
        if not hasattr(self, "table"):
            self.table: CodeTable = {}
            ids, kids = _ahu(reversed(self._bfs), self.parent, self.table, intern=True)
            self.ids, self.children = tuple(ids), tuple(map(tuple, kids))
            self.order = _preorder(self.root, self.children)
        return self

    def match(self, order: Sequence[int], parent: Sequence[int]) -> dict[int, int] | None:
        """An isomorphism from this rooted tree onto the candidate tree whose
        vertices ``order`` lists from its root, each after its parent, with
        ``parent`` -1 at that root; None unless the rooted trees are isomorphic.

        The candidate is looked up in ``table``, so the roots have equal ids iff
        the trees are isomorphic, and :func:`_pair_children` pairs the
        candidate's children, which the lookup lists by ``(id, vertex)``, with
        ``children``.
        """
        self.build()
        ids, kids = _ahu(reversed(order), parent, self.table)
        if ids[order[0]] != self.ids[self.root]:
            return None
        return dict(_pair_children(self.root, self.children, order[0], kids))

    @property
    def n(self) -> int:
        return self.tree.n

    def __repr__(self) -> str:
        return f"TargetTree(n={self.n}, root={self.root})"


def _preorder(root: int, children: Sequence[Sequence[int]]) -> tuple[int, ...]:
    order, stack = [], [root]
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(children[x][::-1])
    return tuple(order)


def certify_witness(
    adjacency: Sequence[Sequence[tuple[int, int]]], m: int, target: TargetTree, verdict: Verdict
) -> bool:
    """True iff ``verdict`` is a YES whose ``removed`` holds ``k = m - (n - 1)`` of
    the ``m`` edge (arc) ids in ``adjacency``, whose ``mapping`` is a bijection on
    ``range(n)``, and whose one walk of the kept edges from the root's image gives
    every other image its parent's image as walk parent.  The walk then reached
    all n vertices (it leaves an unreached parent -1), so its n - 1 tree edges
    are all the kept ones and the n - 1 distinct mapped target edges.  An
    isomorphism that sends root to root meets the test, so no witness is lost.
    """
    n = len(adjacency)
    if not verdict.is_yes or verdict.mapping is None or verdict.removed is None or target.n != n:
        return False
    removed, mapping, ids = verdict.removed, verdict.mapping, set(range(n))
    if len(removed) != m - (n - 1) or not all(0 <= e < m for e in removed):
        return False
    if mapping.keys() != ids or set(mapping.values()) != ids:
        return False
    parent = bfs(adjacency, mapping[target.root], removed)[1]
    below, image = target._bfs[1:], mapping.__getitem__
    walk_parents = list(map(parent.__getitem__, map(image, below)))
    return walk_parents == list(map(image, map(target.parent.__getitem__, below)))
