"""Canonical codes and isomorphism tests for rooted trees and arborescences.

A rooted tree is encoded as a balanced parenthesis string: a leaf is ``()``
and an internal vertex wraps the concatenation of its children's codes,
sorted by ``(length, bytes)``.  Two rooted trees have equal codes iff they
are isomorphic as rooted trees, so code comparison is the isomorphism test.

The solvers run the same test on integers (Aho, Hopcroft and Ullman 1974).
:class:`TargetTree` interns each vertex's sorted child ids in a table, once
per target and only on the first read of its codes, so an answer that never
compares a candidate with the target never builds them.  A candidate
tree, or a pendant subtree in the undirected search, is only looked up in
that table (:func:`lookup_root_id`), so no solve changes the target.  A
whole candidate tree is compared with the target by
:meth:`TargetTree.match`, which pairs the children on equal root ids.
Siblings are listed by ``(id, vertex)`` on both sides, which puts
isomorphic siblings next to each other; it is not the strings' order.
Strings are built only by :func:`subtree_codes` and the functions on top
of it, and serve as the reference the integer codes are checked against.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, MutableMapping, MutableSequence, Sequence

from .graphs import DiGraph, UGraph, bfs, reachable_all


class NotATreeError(ValueError):
    """Input graph is not a tree."""


class NotArborescenceError(ValueError):
    """Input digraph is not an out-arborescence."""


def code_key(code: str) -> tuple[int, str]:
    """Sort key for sibling codes: by length, then bytes."""
    return (len(code), code)


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


def _codes(order: Sequence[int], parent: Sequence[int]) -> list[str]:
    """Every vertex's subtree code, given a top-down order and parent array."""
    codes: list[str] = [""] * len(order)
    kids: list[list[str]] = [[] for _ in order]
    for x in reversed(order):
        if len(kids[x]) > 1:
            kids[x].sort(key=code_key)
        codes[x] = "(" + "".join(kids[x]) + ")"
        if parent[x] != -1:
            kids[parent[x]].append(codes[x])
    return codes


def subtree_codes(tree: UGraph, root: int) -> list[str]:
    """Canonical code of every vertex's subtree in ``tree`` rooted at ``root``."""
    return _codes(*_rooted_order(tree, root))


CodeTable = dict[tuple[int, ...], int]  # sorted child ids -> interned id


def lookup_root_id(
    bottom_up: Iterable[int],
    parent: Sequence[int] | Mapping[int, int],
    table: CodeTable,
    ids: MutableSequence[int] | MutableMapping[int, int] | None = None,
) -> int | None:
    """The id a rooted tree's root has in ``table``, found by lookups alone.

    ``bottom_up`` lists the tree's vertices, each after all of its children,
    and ends at the root.  Returns None at the first vertex whose sorted
    child ids ``table`` never produced: no subtree interned there is
    isomorphic to it, so neither is the root.  ``table`` is never changed.
    When ``ids`` is given, ``ids[x]`` receives the id of each vertex looked
    up, so after a non-None answer it holds the id of every vertex.
    """
    kid_ids: dict[int, list[int]] = {}
    vid = None
    for x in bottom_up:
        vid = table.get(tuple(sorted(kid_ids.get(x, ()))))
        if vid is None:
            return None
        if ids is not None:
            ids[x] = vid
        kid_ids.setdefault(parent[x], []).append(vid)
    return vid


def rooted_code(tree: UGraph, root: int) -> str:
    """Canonical code of ``tree`` rooted at ``root``."""
    return subtree_codes(tree, root)[root]


def tree_centers(tree: UGraph) -> list[int]:
    """The 1 or 2 center vertices of a tree, found by leaf peeling."""
    _rooted_order(tree, 0)  # raises NotATreeError unless a tree
    return _centers(tree)


def _centers(tree: UGraph) -> list[int]:
    """:func:`tree_centers` for a tree the caller has already validated."""
    if tree.n <= 2:
        return list(range(tree.n))
    deg = [len(pairs) for pairs in tree.incidence]
    layer = [v for v in range(tree.n) if deg[v] == 1]
    alive = tree.n
    while alive > 2:
        alive -= len(layer)
        nxt: list[int] = []
        for v in layer:
            deg[v] = 0
            for _, w in tree.incidence[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def _first_center(tt: TargetTree) -> int:
    """``_centers(tt.tree)[0]``, read off the rooting's BFS order and parent array.

    A branch of ``v`` is a longest path that leaves ``v`` by one edge.  ``v`` is
    a centre iff its two longest branches (0 for a missing one) differ by at
    most one; when they differ by exactly one, the neighbour the longer one
    leaves by is the other centre.  When they differ by more, every centre
    lies beyond that neighbour, so the walk from the root steps there.
    """
    parent, inc = tt.parent, tt.tree.incidence
    height = [0] * len(parent)  # of each vertex's subtree under the rooting
    for x in reversed(tt._bfs):
        p = parent[x]
        if p != -1 and height[p] <= height[x]:
            height[p] = height[x] + 1
    v, up = tt.root, 0  # up: v's branch through its parent
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
            return min(v, top) if a1 - a2 == 1 else v
        v, up = top, a2 + 1


def unrooted_code(tree: UGraph) -> str:
    """Canonical code of an unrooted tree: the smaller code over its centers."""
    return min((rooted_code(tree, c) for c in tree_centers(tree)), key=code_key)


def rooted_iso(t1: UGraph, r1: int, t2: UGraph, r2: int) -> bool:
    """Rooted-tree isomorphism via code equality."""
    return rooted_code(t1, r1) == rooted_code(t2, r2)


def unrooted_iso(t1: UGraph, t2: UGraph) -> bool:
    """Unrooted-tree isomorphism: root both at their centers and compare."""
    if t1.n != t2.n:
        _rooted_order(t1, 0)  # each raises NotATreeError unless a tree
        _rooted_order(t2, 0)
        return False
    return unrooted_code(t1) == unrooted_code(t2)


def rooted_iso_mapping(t1: UGraph, r1: int, t2: UGraph, r2: int) -> dict[int, int] | None:
    """One isomorphism ``V(t1) -> V(t2)`` with ``r1 -> r2``, or None
    (:meth:`TargetTree.match`)."""
    return TargetTree(t1, r1).match(*_rooted_order(t2, r2))


def _pair_children(
    r1: int, kids1: Sequence[Sequence[int]], r2: int, kids2: Sequence[Sequence[int]]
) -> dict[int, int]:
    """The isomorphism ``r1 -> r2`` between two rooted trees whose vertex ids
    come from one table and whose root ids are equal, given each vertex's
    children in ``(id, vertex)`` order (:func:`_children_by_id`).

    Children with equal ids are interchangeable, so pairing the children of
    each matched pair in that order on both sides is a valid bijection.
    """
    mapping = {r1: r2}
    stack = [(r1, r2)]
    while stack:
        a, b = stack.pop()
        for x, y in zip(kids1[a], kids2[b]):
            mapping[x] = y
            stack.append((x, y))
    return mapping


def _children_by_id(parent: Sequence[int], ids: Sequence[int]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in parent]
    for v in sorted(range(len(parent)), key=ids.__getitem__):  # stable: ties by vertex
        if parent[v] != -1:
            kids[parent[v]].append(v)
    return kids


def arborescence_root(d: DiGraph) -> int:
    """Root of an out-arborescence: the unique in-degree-0 vertex.

    Certifies the input: n - 1 arcs, exactly one in-degree-0 vertex, every
    other vertex of in-degree 1, and every vertex reachable from the root.
    """
    if d.m != d.n - 1:
        raise NotArborescenceError("underlying graph is not a tree")
    indeg = list(map(len, d.in_inc))
    roots = [v for v in range(d.n) if indeg[v] == 0]
    if len(roots) != 1:
        raise NotArborescenceError(f"{len(roots)} vertices of in-degree 0, expected 1")
    bad = [v for v in range(d.n) if v != roots[0] and indeg[v] != 1]
    if bad:
        raise NotArborescenceError(f"vertex {bad[0]} has in-degree {indeg[bad[0]]}")
    if not reachable_all(d, roots[0]):
        raise NotArborescenceError(f"some vertex is unreachable from the root {roots[0]}")
    return roots[0]


def arborescence_iso(d1: DiGraph, d2: DiGraph) -> bool:
    """Arborescence isomorphism: an out-arborescence is determined by its
    underlying rooted tree, so compare rooted codes at the roots."""
    r1 = arborescence_root(d1)
    r2 = arborescence_root(d2)
    return rooted_iso(d1.underlying(), r1, d2.underlying(), r2)


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
    layer (``ids``, ``table``, ``children``, ``subtree_size`` and ``order``) is
    built on the first read of any of its fields, so a caller whose answer
    never needs it, such as a NO that the directed out-degree screen decides,
    never pays for it.
    """

    __slots__ = (
        "tree", "root", "parent", "_bfs", "order", "children", "subtree_size", "ids", "table"
    )

    def __init__(self, tree: UGraph, root: int):
        self._bfs, self.parent = _rooted_order(tree, root)
        self.tree = tree
        self.root = root
        self.__class__ = _Unbuilt  # until the first read of a canonical field

    def _build(self) -> None:
        self.__class__ = TargetTree  # from an _Unbuilt: the fields are plain slots again
        bfs, parent, n = self._bfs, self.parent, self.tree.n
        self.table: CodeTable = {}
        table = self.table
        ids, size = [0] * n, [1] * n
        kids: list[list[int]] = [[] for _ in range(n)]
        for x in reversed(bfs):  # children first, so theirs have ids when x is reached
            ks = kids[x]
            if len(ks) > 1:
                ks.sort()
                ks.sort(key=ids.__getitem__)  # stable: by id, then vertex
            ids[x] = table.setdefault(tuple(map(ids.__getitem__, ks)), len(table))
            p = parent[x]
            if p != -1:
                kids[p].append(x)
                size[p] += size[x]
        self.ids, self.subtree_size = tuple(ids), tuple(size)
        self.children = tuple(map(tuple, kids))
        self.order = _preorder(self.root, self.children)

    def match(self, order: Sequence[int], parent: Sequence[int]) -> dict[int, int] | None:
        """An isomorphism from this rooted tree onto the candidate tree whose
        vertices ``order`` lists from its root, each after its parent, with
        ``parent`` -1 at that root; None unless the rooted trees are isomorphic.

        The candidate is looked up in ``table``, so the roots have equal ids iff
        the trees are isomorphic; only the candidate's children are then sorted
        by id, and :func:`_pair_children` pairs them with ``children``.
        """
        ids = [0] * len(parent)
        if lookup_root_id(reversed(order), parent, self.table, ids) != self.ids[self.root]:
            return None
        return _pair_children(self.root, self.children, order[0], _children_by_id(parent, ids))

    @property
    def n(self) -> int:
        return self.tree.n

    def __repr__(self) -> str:
        return f"TargetTree(n={self.n}, root={self.root})"


def _built_field(name: str) -> property:
    """A property that builds a target's canonical layer, then reads ``name``."""

    def read(tt: TargetTree):
        tt._build()
        return getattr(tt, name)

    return property(read)


class _Unbuilt(TargetTree):
    """A :class:`TargetTree` whose canonical layer is not built yet.

    Its canonical fields are properties that build the layer, which turns the
    object into a plain ``TargetTree``, and then read the field.  Properties,
    not ``__getattr__``: CPython reads every attribute of a class with
    ``__getattr__`` slower, and the solvers read an unbuilt target's other
    fields too.
    """

    __slots__ = ()
    order = _built_field("order")
    children = _built_field("children")
    subtree_size = _built_field("subtree_size")
    ids = _built_field("ids")
    table = _built_field("table")


def _preorder(root: int, children: Sequence[Sequence[int]]) -> tuple[int, ...]:
    order, stack = [], [root]
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(children[x][::-1])
    return tuple(order)


def target_graph(target: TargetTree | UGraph) -> UGraph:
    """The unrooted tree behind a target given rooted or plain."""
    return target.tree if isinstance(target, TargetTree) else target
