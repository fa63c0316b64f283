"""Brute-force reference implementations used to judge the package code.

These share no machinery with the package: isomorphism is decided by
backtracking over adjacency-preserving bijections, and the free-tree
catalogue is built by leaf extension with pairwise brute-force dedup.
"""

from __future__ import annotations

from stiso import UGraph


def brute_iso(t1: UGraph, t2: UGraph, fixed: tuple[int, int] | None = None) -> bool:
    """Backtracking adjacency-preserving bijection test; ``fixed`` pins a pair."""
    n = t1.n
    if t2.n != n or t1.m != t2.m:
        return False
    deg1 = [t1.degree(v) for v in range(n)]
    deg2 = [t2.degree(v) for v in range(n)]
    if sorted(deg1) != sorted(deg2):
        return False
    adj1 = [set(t1.neighbors(v)) for v in range(n)]
    adj2 = [set(t2.neighbors(v)) for v in range(n)]
    mapping = [-1] * n
    used = [False] * n

    order = list(range(n))
    if fixed is not None:
        a, b = fixed
        if deg1[a] != deg2[b]:
            return False
        order.remove(a)
        order.insert(0, a)

    def place(i: int) -> bool:
        if i == n:
            return True
        a = order[i]
        candidates = range(n) if fixed is None or i > 0 else [fixed[1]]
        for b in candidates:
            if used[b] or deg1[a] != deg2[b]:
                continue
            if all(
                (w in adj1[a]) == (mapping[w] in adj2[b])
                for w in range(n)
                if mapping[w] != -1
            ):
                mapping[a] = b
                used[b] = True
                if place(i + 1):
                    return True
                mapping[a] = -1
                used[b] = False
        return False

    return place(0)


def brute_rooted_iso(t1: UGraph, r1: int, t2: UGraph, r2: int) -> bool:
    return brute_iso(t1, t2, fixed=(r1, r2))


def all_free_trees(n_max: int) -> dict[int, list[UGraph]]:
    """One representative per isomorphism class of trees, for n = 1..n_max."""
    catalogue: dict[int, list[UGraph]] = {1: [UGraph(1, [])]}
    for n in range(2, n_max + 1):
        fresh: list[UGraph] = []
        for small in catalogue[n - 1]:
            for attach in range(n - 1):
                t = UGraph(n, list(small.edges) + [(attach, n - 1)])
                if not any(brute_iso(t, seen) for seen in fresh):
                    fresh.append(t)
        catalogue[n] = fresh
    return catalogue


def path(n: int) -> UGraph:
    return UGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> UGraph:
    return UGraph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> UGraph:
    return UGraph(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> UGraph:
    return UGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


THETA = UGraph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])  # a=0 b=1 x=2 y=3 z=4
FIGURE_EIGHT = UGraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])  # shared vertex 0


def end_chord_path(n: int) -> UGraph:
    """The path 0..n-1 with the chords (0, 2) and (0, 3): k = 2, 2-core {0, 1, 2, 3}."""
    return UGraph(n, [(i, i + 1) for i in range(n - 1)] + [(0, 2), (0, 3)])


def chorded_path(n: int) -> UGraph:
    """The path 0..n-1 with the chords (0, n // 2) and (n // 3, n - 1): k = 2, no pendants."""
    return UGraph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n // 2), (n // 3, n - 1)])


def hub_with_leaves(n: int) -> UGraph:
    """K4 on 0..3 with the n - 4 other vertices as leaves of vertex 0: k = 3."""
    return UGraph(n, list(complete(4).edges) + [(0, v) for v in range(4, n)])
