"""Brute-force reference implementations used to judge the package code.

These share no machinery with the package: isomorphism is decided by
backtracking over adjacency-preserving bijections, and the free-tree
catalogue is built by leaf extension with pairwise brute-force dedup.  The
string codes of :func:`subtree_codes` sort sibling strings by
``(length, bytes)``, so they share nothing with the package's ids and the
strings it prints from them; only the centres that
:func:`reference_unrooted_code` and :func:`reference_oracle_undirected` root
at are the package's.  The graph constructors and the text parser
are judged against straightforward one-edge-at-a-time and
one-line-at-a-time versions.  The reference certifiers are the package's
earlier ones, which compare sets of edge tuples.  The reference oracles are the package
oracles' subset loops without their degree test, so they share the
oracles' bijection search on purpose: equal verdicts then show that the
test drops no subset the loops would accept.
"""

from __future__ import annotations

import random
from itertools import combinations

from stiso import (
    DiGraph,
    GenSpec,
    GraphFormatError,
    TargetTree,
    UGraph,
    Verdict,
    gen_instance,
    is_spanning_arborescence,
    tree_centers,
)
from stiso.directed import _arborescence_without
from stiso.graphs import bfs
from stiso.oracle import _bijection_search, _guard


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


def brute_centers(t: UGraph) -> list[int]:
    """The vertices of least eccentricity, by a breadth-first search from every vertex."""
    ecc = []
    for s in range(t.n):
        seen, layer, depth = {s}, [s], -1
        while layer:  # one layer per distance from s
            depth += 1
            layer = [w for v in layer for w in t.neighbors(v) if w not in seen]
            seen.update(layer)
        ecc.append(depth)
    return [v for v in range(t.n) if ecc[v] == min(ecc)]


def code_key(code: str) -> tuple[int, str]:
    """Sort key for sibling codes: by length, then bytes."""
    return (len(code), code)


def subtree_codes(tree: UGraph, root: int) -> list[str]:
    """Every vertex's string code in ``tree`` rooted at ``root``.

    A leaf is ``()`` and an internal vertex wraps its children's codes,
    sorted by :func:`code_key`, so two subtrees have equal codes iff they are
    isomorphic.  Each vertex keeps its own string: Θ(n · height) memory.
    """
    parent, order = {root: -1}, [root]
    for x in order:
        for w in tree.neighbors(x):
            if w not in parent:
                parent[w] = x
                order.append(w)
    if tree.m != tree.n - 1 or len(order) != tree.n:
        raise ValueError(f"not a tree: n={tree.n}, m={tree.m}")
    codes = [""] * tree.n
    kids: list[list[str]] = [[] for _ in range(tree.n)]
    for x in reversed(order):
        kids[x].sort(key=code_key)
        codes[x] = "(" + "".join(kids[x]) + ")"
        if parent[x] != -1:
            kids[parent[x]].append(codes[x])
    return codes


def reference_unrooted_code(tree: UGraph) -> str:
    """The smaller :func:`subtree_codes` root code over the tree's centres."""
    return min((subtree_codes(tree, c)[c] for c in tree_centers(tree)), key=code_key)


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

# A k = 0 directed NO whose trees have equal degree multisets: the root has
# eight leaves, and the target's cherry hangs one arc lower in the graph.  A
# search that tried every image of each leaf went through all 8! orders of
# the root's leaves before it gave up.
LEAFY_TARGET_ARCS = [(0, 1), (0, 4), (0, 6), (0, 9), *((0, v) for v in range(12, 20)),
                     (1, 2), (1, 3), (4, 5), (6, 7), (7, 8), (9, 10), (10, 11)]
LEAFY_GRAPH_ARCS = [(0, 1), (0, 5), (0, 6), (0, 9), *((0, v) for v in range(12, 20)),
                    (1, 2), (2, 3), (2, 4), (6, 7), (7, 8), (9, 10), (10, 11)]


def end_chord_path(n: int) -> UGraph:
    """The path 0..n-1 with the chords (0, 2) and (0, 3): k = 2, 2-core {0, 1, 2, 3}."""
    return UGraph(n, [(i, i + 1) for i in range(n - 1)] + [(0, 2), (0, 3)])


def chorded_path(n: int) -> UGraph:
    """The path 0..n-1 with the chords (0, n // 2) and (n // 3, n - 1): k = 2, no pendants."""
    return UGraph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n // 2), (n // 3, n - 1)])


def hub_with_leaves(n: int) -> UGraph:
    """K4 on 0..3 with the n - 4 other vertices as leaves of vertex 0: k = 3."""
    return UGraph(n, list(complete(4).edges) + [(0, v) for v in range(4, n)])


def chorded_cycle_and_spider(n: int, k: int, seed: int) -> tuple[UGraph, UGraph]:
    """The cycle 0..n-1 with k - 1 random chords, and a spider with three legs.

    Chords are drawn as ``sorted(rng.sample(range(n), 2))`` from
    ``random.Random(seed)``, skipping cycle edges and repeats, until the graph
    has n + k - 1 edges.  The legs of the spider (centre 0) have lengths
    ``a = randrange(1, n // 2)``, ``b = randrange(1, n - 1 - a)`` and
    ``n - 1 - a - b``, drawn from the same generator.  The spider's centre
    usually lies inside a leg, where its degree is 2, so the search rooted
    there takes every graph vertex as a root candidate.
    """
    rng = random.Random(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    seen = {(min(u, v), max(u, v)) for u, v in edges}
    while len(edges) < n + k - 1:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))
    a = rng.randrange(1, n // 2)
    b = rng.randrange(1, n - 1 - a)
    legs, nxt = [], 1
    for length in (a, b, n - 1 - a - b):
        legs += [(0 if i == 0 else nxt + i - 1, nxt + i) for i in range(length)]
        nxt += length
    return UGraph(n, edges), UGraph(n, legs)


def root_cycle_arborescence(n: int, k: int, seed: int) -> tuple[DiGraph, TargetTree]:
    """A planted directed YES with k - 1 random extra arcs, plus one arc from
    the vertex a search from the root reaches last back into the root.

    The root is the planted arborescence's, the tail of the graph's first
    arc.  Every vertex on the new cycle through it reaches every vertex, so
    each is an admissible root, and every plan at one of them that spans
    costs a walk of the whole graph.
    """
    inst = gen_instance(GenSpec(n=n, k=k - 1, seed=seed, mode="planted-yes", directed=True))
    d = inst.graph
    r = d.arcs[0][0]
    last = bfs(d.out_inc, r)[0][-1]
    return DiGraph(n, [*d.arcs, (last, r)]), inst.target


def reference_incidence(n: int, pairs, *, directed: bool, simple: bool = True):
    """The graph constructors' work one edge at a time: the checked pairs and
    the incidence lists (``(out, in)`` when ``directed``), or the
    GraphFormatError (or unpacking error) for the first offending edge."""
    what = "arc" if directed else "edge"
    if n < 0:
        raise GraphFormatError("vertex count must be non-negative")
    seen: set[tuple[int, int]] = set()
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"{what} {i} endpoint out of range: ({u}, {v})")
        if simple:
            if u == v:
                raise GraphFormatError(f"{what} {i} is a self-loop: ({u}, {v})")
            key = (u, v) if directed or u < v else (v, u)
            if key in seen:
                raise GraphFormatError(f"{what} {i} duplicates ({u}, {v})")
            seen.add(key)
        if directed:
            out[u].append((i, v))
        else:
            inc[u].append((i, v))
        inc[v].append((i, u))
    frozen = tuple(tuple(p) for p in inc)
    edges = tuple((u, v) for u, v in pairs)
    return (edges, tuple(tuple(p) for p in out), frozen) if directed else (edges, frozen)


def reference_parse(text: str) -> UGraph | DiGraph:
    """The text format read one line at a time."""
    rows: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise GraphFormatError("empty input")
    header = rows[0]
    if len(header) != 3 or header[2] not in ("U", "D"):
        raise GraphFormatError(f"malformed header: {' '.join(header)!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"malformed header: {' '.join(header)!r}") from exc
    if n < 0 or m < 0:
        raise GraphFormatError("negative count in header")
    body = rows[1:]
    if len(body) != m:
        raise GraphFormatError(f"header says m={m} but found {len(body)} edge lines")
    pairs: list[tuple[int, int]] = []
    for i, row in enumerate(body):
        if len(row) != 2:
            raise GraphFormatError(f"malformed edge line {i}: {' '.join(row)!r}")
        try:
            u, v = int(row[0]), int(row[1])
        except ValueError as exc:
            raise GraphFormatError(f"malformed edge line {i}: {' '.join(row)!r}") from exc
        pairs.append((u, v))
    if header[2] == "U":
        return UGraph(n, pairs)
    return DiGraph(n, pairs)


def reference_oracle_undirected(g: UGraph, target: TargetTree | UGraph) -> Verdict:
    """``oracle_undirected`` without its degree test: every k-subset, in
    ``combinations`` order, goes to the connectivity check and the reference
    rooted code, :func:`subtree_codes`, at the kept tree's first centre, which
    picks the target centre the search pins there."""
    ttree = target.tree if isinstance(target, TargetTree) else target
    if not g.is_connected():
        return Verdict("NO", note="graph is disconnected: no spanning tree exists")
    k = g.m - (g.n - 1)
    _guard(g.m, k)
    centre_of = {subtree_codes(ttree, c)[c]: c for c in tree_centers(ttree)}
    for subset in combinations(range(g.m), k):
        removed = frozenset(subset)
        if not g.is_connected(skip_edges=removed):
            continue
        h = UGraph(g.n, [e for i, e in enumerate(g.edges) if i not in removed])
        image = tree_centers(h)[0]
        centre = centre_of.get(subtree_codes(h, image)[image])
        if centre is None:
            continue
        mapping = _bijection_search(ttree, h, centre, image)
        if mapping is None:
            raise RuntimeError("equal rooted codes but no bijection found")
        return Verdict("YES", mapping=mapping, removed=removed)
    return Verdict("NO")


def reference_oracle_directed(d: DiGraph, target: TargetTree) -> Verdict:
    """``oracle_directed`` without its in-degree test: every k-subset, in
    ``combinations`` order, is built and checked as an arborescence."""
    if not d.underlying().is_connected():
        return Verdict("NO", note="graph is weakly disconnected: no spanning tree exists")
    k = d.m - (d.n - 1)
    _guard(d.m, k)
    for subset in combinations(range(d.m), k):
        removed = frozenset(subset)
        f = DiGraph(d.n, [a for i, a in enumerate(d.arcs) if i not in removed])
        roots = [v for v in range(f.n) if f.in_degree(v) == 0]
        if len(roots) != 1 or not is_spanning_arborescence(f, roots[0]):
            continue
        mapping = _bijection_search(target.tree, f.underlying(), target.root, roots[0])
        if mapping is not None:
            return Verdict("YES", mapping=mapping, removed=removed)
    return Verdict("NO")


def reference_certify_undirected(g: UGraph, target: TargetTree | UGraph, verdict: Verdict) -> bool:
    """The edge-set certifier: the kept edges, normalised as ``(min, max)``
    pairs, must equal the mapped target edges."""
    if not verdict.is_yes or verdict.mapping is None or verdict.removed is None:
        return False
    ttree = target.tree if isinstance(target, TargetTree) else target
    n = g.n
    if ttree.n != n:
        return False
    k = g.m - (n - 1)
    removed = verdict.removed
    if len(removed) != k or not all(0 <= e < g.m for e in removed):
        return False
    mapping = verdict.mapping
    if sorted(mapping) != list(range(n)) or sorted(mapping.values()) != list(range(n)):
        return False
    if not g.is_connected(skip_edges=removed):
        return False
    retained = {
        (min(u, v), max(u, v)) for eid, (u, v) in enumerate(g.edges) if eid not in removed
    }
    mapped = set()
    for a, b in ttree.edges:
        u, v = mapping[a], mapping[b]
        mapped.add((min(u, v), max(u, v)))
    return mapped == retained


def reference_certify_directed(d: DiGraph, target: TargetTree, verdict: Verdict) -> bool:
    """The arc-set certifier: in-degrees, reachability, and the kept arcs
    equal to the mapped target arcs."""
    if not verdict.is_yes or verdict.mapping is None or verdict.removed is None:
        return False
    n = d.n
    if target.n != n:
        return False
    removed = verdict.removed
    if len(removed) != d.m - (n - 1) or not all(0 <= a < d.m for a in removed):
        return False
    mapping = verdict.mapping
    if sorted(mapping) != list(range(n)) or sorted(mapping.values()) != list(range(n)):
        return False
    kept = [arc for a, arc in enumerate(d.arcs) if a not in removed]
    root = mapping[target.root]
    indeg = [0] * n
    for _, head in kept:
        indeg[head] += 1
    if len(kept) != n - 1 or indeg[root] != 0 or indeg.count(1) != n - 1:
        return False
    if _arborescence_without(d, root, removed) is None:
        return False
    kept_set = set(kept)
    mapped = set()
    for tv in range(n):
        p = target.parent[tv]
        if p != -1:
            mapped.add((mapping[p], mapping[tv]))
    return mapped == kept_set
