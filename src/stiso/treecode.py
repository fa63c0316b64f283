"""Canonical codes and isomorphism tests for rooted trees and arborescences.

A rooted tree is encoded as a balanced parenthesis string: a leaf is ``()``
and an internal vertex wraps the concatenation of its children's codes,
sorted by ``(length, bytes)``.  Two rooted trees have equal codes iff they
are isomorphic as rooted trees, so code comparison is the isomorphism test.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, MutableSequence, Sequence

from .graphs import DiGraph, UGraph, reachable_all


class NotATreeError(ValueError):
    """Input graph is not a tree."""


class NotArborescenceError(ValueError):
    """Input digraph is not an out-arborescence."""


def code_key(code: str) -> tuple[int, str]:
    """Sort key for sibling codes: by length, then bytes."""
    return (len(code), code)


def _check_tree(tree: UGraph) -> None:
    if tree.n == 0 or tree.m != tree.n - 1 or not tree.is_connected():
        raise NotATreeError(f"not a tree: n={tree.n}, m={tree.m}")


def _rooted_order(tree: UGraph, root: int) -> tuple[list[int], list[int]]:
    """BFS order and parent array of ``tree`` from ``root``.

    Raises NotATreeError unless ``tree`` is a tree; the BFS that builds the
    order is also the connectivity check.
    """
    if tree.n == 0 or tree.m != tree.n - 1:
        raise NotATreeError(f"not a tree: n={tree.n}, m={tree.m}")
    if not 0 <= root < tree.n:
        raise ValueError(f"root {root} out of range")
    parent = [-1] * tree.n
    order = [root]
    parent[root] = root
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for _, w in tree.incidence[x]:
            if parent[w] == -1:
                parent[w] = x
                order.append(w)
                queue.append(w)
    parent[root] = -1
    if len(order) != tree.n:
        raise NotATreeError(f"not a tree: n={tree.n}, m={tree.m}")
    return order, parent


def _codes(order: Sequence[int], parent: Sequence[int]) -> list[str]:
    """Every vertex's subtree code, given a top-down order and parent array."""
    codes: list[str] = [""] * len(order)
    kids: list[list[str]] = [[] for _ in order]
    for x in reversed(order):
        kids[x].sort(key=code_key)
        codes[x] = "(" + "".join(kids[x]) + ")"
        if parent[x] != -1:
            kids[parent[x]].append(codes[x])
    return codes


def subtree_codes(tree: UGraph, root: int) -> list[str]:
    """Canonical code of every vertex's subtree in ``tree`` rooted at ``root``."""
    return _codes(*_rooted_order(tree, root))


CodeTable = dict[tuple[int, ...], int]  # sorted child ids -> interned id


def intern_child_ids(
    bottom_up: Iterable[int],
    parent: Sequence[int],
    table: CodeTable,
    ids: MutableSequence[int] | None = None,
) -> dict[int, list[int]]:
    """Integer canonical codes of a rooted forest (Aho, Hopcroft and Ullman 1974).

    A vertex's id is ``table``'s id for the sorted tuple of its children's
    ids, interned on first sight, so two subtrees interned in one table are
    isomorphic iff their ids are equal.  ``bottom_up`` lists the forest's
    vertices, each after all of its children; ``parent[x]`` may lie outside
    the forest.  Returns the children's ids of every vertex that has any;
    when ``ids`` is given, ``ids[x]`` also receives each vertex's own id.
    """
    kid_ids: dict[int, list[int]] = {}
    for x in bottom_up:
        vid = table.setdefault(tuple(sorted(kid_ids.get(x, ()))), len(table))
        if ids is not None:
            ids[x] = vid
        kid_ids.setdefault(parent[x], []).append(vid)
    return kid_ids


def lookup_root_id(
    bottom_up: Iterable[int],
    parent: Sequence[int],
    table: CodeTable,
    ids: MutableSequence[int] | None = None,
) -> int | None:
    """The id :func:`intern_child_ids` would give a rooted tree's root, by lookups alone.

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
    _check_tree(tree)
    if tree.n <= 2:
        return list(range(tree.n))
    deg = [tree.degree(v) for v in range(tree.n)]
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


def unrooted_code(tree: UGraph) -> str:
    """Canonical code of an unrooted tree: the smaller code over its centers."""
    return min((rooted_code(tree, c) for c in tree_centers(tree)), key=code_key)


def rooted_iso(t1: UGraph, r1: int, t2: UGraph, r2: int) -> bool:
    """Rooted-tree isomorphism via code equality."""
    return rooted_code(t1, r1) == rooted_code(t2, r2)


def unrooted_iso(t1: UGraph, t2: UGraph) -> bool:
    """Unrooted-tree isomorphism: root both at their centers and compare."""
    if t1.n != t2.n:
        _check_tree(t1)
        _check_tree(t2)
        return False
    return unrooted_code(t1) == unrooted_code(t2)


def rooted_iso_mapping(t1: UGraph, r1: int, t2: UGraph, r2: int) -> dict[int, int] | None:
    """One isomorphism ``V(t1) -> V(t2)`` with ``r1 -> r2``, or None.

    Children with equal subtree codes are interchangeable, so pairing the
    i-th child of each code class on both sides yields a valid bijection.
    """
    codes1 = subtree_codes(t1, r1)
    codes2 = subtree_codes(t2, r2)
    if codes1[r1] != codes2[r2]:
        return None
    mapping = {r1: r2}
    stack = [(r1, r2, -1, -1)]
    while stack:
        a, b, pa, pb = stack.pop()
        kids_a = sorted(
            (w for _, w in t1.incidence[a] if w != pa), key=lambda w: (code_key(codes1[w]), w)
        )
        kids_b = sorted(
            (w for _, w in t2.incidence[b] if w != pb), key=lambda w: (code_key(codes2[w]), w)
        )
        for ka, kb in zip(kids_a, kids_b):
            mapping[ka] = kb
            stack.append((ka, kb, a, b))
    return mapping


def arborescence_root(d: DiGraph) -> int:
    """Root of an out-arborescence: the unique in-degree-0 vertex.

    Certifies the input: n - 1 arcs, exactly one in-degree-0 vertex, every
    other vertex of in-degree 1, and every vertex reachable from the root.
    """
    if d.m != d.n - 1:
        raise NotArborescenceError("underlying graph is not a tree")
    roots = [v for v in range(d.n) if d.in_degree(v) == 0]
    if len(roots) != 1:
        raise NotArborescenceError(f"{len(roots)} vertices of in-degree 0, expected 1")
    bad = [v for v in range(d.n) if v != roots[0] and d.in_degree(v) != 1]
    if bad:
        raise NotArborescenceError(f"vertex {bad[0]} has in-degree {d.in_degree(bad[0])}")
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
    """Rooted target tree with its canonical DFS preorder.

    Children are visited in ascending ``(subtree code, vertex id)`` order, so
    isomorphic sibling subtrees are adjacent in the order and the order is
    identical across runs.
    """

    __slots__ = ("tree", "root", "order", "parent", "children", "subtree_size", "code")

    def __init__(self, tree: UGraph, root: int):
        bfs, self.parent = _rooted_order(tree, root)
        self.tree = tree
        self.root = root
        self.code = _codes(bfs, self.parent)
        kids: list[list[int]] = [[] for _ in range(tree.n)]
        for v in range(tree.n):
            if self.parent[v] != -1:
                kids[self.parent[v]].append(v)
        for v in range(tree.n):
            kids[v].sort(key=lambda w: (code_key(self.code[w]), w))
        self.children = tuple(tuple(c) for c in kids)
        order: list[int] = []
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            stack.extend(reversed(self.children[x]))
        self.order = tuple(order)
        size = [1] * tree.n
        for v in reversed(order):
            if self.parent[v] != -1:
                size[self.parent[v]] += size[v]
        self.subtree_size = tuple(size)

    @property
    def n(self) -> int:
        return self.tree.n

    def __repr__(self) -> str:
        return f"TargetTree(n={self.n}, root={self.root})"


def target_graph(target: TargetTree | UGraph) -> UGraph:
    """The unrooted tree behind a target given rooted or plain."""
    return target.tree if isinstance(target, TargetTree) else target
