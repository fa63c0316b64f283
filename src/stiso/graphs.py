"""Graph data model, text format, and the shared graph walks.

Vertices are dense non-negative integers in ``[0, n)``.  Edges and arcs get
dense ids assigned in construction order, and those ids are stable for the
lifetime of the graph: every removal set reported by a solver or oracle is a
set of these ids.

Input-facing constructors (and :func:`parse_graph`) accept only simple
graphs.  Kernelization needs parallel edges and self-loops, so
:meth:`UGraph.multigraph` exists for internal callers; a self-loop
contributes 2 to its endpoint's degree.

A long edge list is checked in a few whole-list passes at C speed over its
tail and head columns (:func:`_bulk_ok`), and a short one, or one with
a fault, edge by edge (:func:`_checked_each`), which alone names the first
bad edge.  :func:`parse_graph` reads text in the plain form
:meth:`UGraph.serialize` writes in one pass: its edge lines, with every
space and line end made a comma, are one JSON array, which the ``json``
decoder reads at C speed.  The array's even and odd places are the tail
and head columns, so a long list is checked there and built without a
second check; a short or faulty one goes to the constructors.  Any other
text (inline comments, CRLF line ends, signs, a wrong edge count, a number
with a leading zero, which JSON refuses, ...) goes line by line, and that
path alone words the :class:`GraphFormatError` messages about text.

Every breadth-first search in the package is :func:`bfs`, and every leaf
peel is :func:`peel_leaves`.

The O(n) entry points that ``stiso solve`` calls, :func:`parse_graph` and
the two solvers, run with the cyclic garbage collector paused
(:func:`gc_paused`): every object they make is acyclic and is freed by
reference counting, so the collector's passes over them find nothing.
"""

from __future__ import annotations

import functools
import gc
import json
import re
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import add, eq
from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable)


def gc_paused(fn: _F) -> _F:
    """``fn`` with the cyclic garbage collector disabled while it runs.

    The collector is enabled again when ``fn`` returns or raises, and a
    collector that the caller had already disabled is left alone.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused  # type: ignore[return-value]


class GraphFormatError(ValueError):
    """Malformed graph text or invalid construction input."""


# Below this many pairs one pass in Python checks faster than the whole-list
# passes at C speed (measured crossover: 48 to 64 pairs).
_BULK_MIN = 64


def _bulk_ok(
    n: int,
    pairs: Sequence[tuple[int, int]],
    ends: Sequence[int],
    tails: Sequence[int],
    heads: Sequence[int],
    *,
    simple: bool,
    symmetric: bool,
) -> bool:
    """Whether whole-list passes at C speed find that each of ``pairs`` joins
    two vertices in ``[0, n)`` and, when ``simple``, that none is a self-loop
    or a duplicate, ``(v, u)`` counting as ``(u, v)`` when ``symmetric``.

    ``tails`` and ``heads`` are the pairs' columns and ``ends`` holds the
    values of both.  Values that do not compare or hash fail, and a list that
    fails goes to :func:`_checked_each`, which words the fault.
    """
    try:
        if not (min(ends) >= 0 and max(ends) < n):  # not negated: NaN compares false, and fails
            return False
        if simple:
            distinct = set(pairs)
            if any(map(eq, tails, heads)) or len(distinct) != len(pairs):
                return False
            if symmetric and not distinct.isdisjoint(zip(heads, tails)):
                return False
    except TypeError:
        return False
    return True


def _checked_pairs(
    n: int, pairs: Sequence[Sequence[int]], what: str, *, simple: bool, symmetric: bool
) -> tuple[tuple[int, int], ...]:
    """``pairs`` as a tuple of ``(u, v)`` tuples, once every pair is checked
    as :func:`_bulk_ok` states: in whole-list passes for a list of at least
    :data:`_BULK_MIN` pairs, else, or when a pass fails, by
    :func:`_checked_each`, which raises for the first offending pair.
    """
    if len(pairs) >= _BULK_MIN:
        try:
            out = tuple(map(tuple, pairs))
            tails, heads = zip(*out, strict=True)
        except (TypeError, ValueError):  # an item that is not a pair of values
            pass
        else:
            if _bulk_ok(n, out, tails + heads, tails, heads, simple=simple, symmetric=symmetric):
                return out
    return _checked_each(n, pairs, what, simple=simple, symmetric=symmetric)


def _checked_each(
    n: int, pairs: Sequence[Sequence[int]], what: str, *, simple: bool, symmetric: bool
) -> tuple[tuple[int, int], ...]:
    """:func:`_checked_pairs` one pair at a time, raising for the first offending pair."""
    seen: set[tuple[int, int]] = set()
    for i, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"{what} {i} endpoint out of range: ({u}, {v})")
        if simple:
            if u == v:
                raise GraphFormatError(f"{what} {i} is a self-loop: ({u}, {v})")
            key = (v, u) if symmetric and v < u else (u, v)
            if key in seen:
                raise GraphFormatError(f"{what} {i} duplicates ({u}, {v})")
            seen.add(key)
    return tuple(map(tuple, pairs))


class UGraph:
    """Immutable undirected graph with stable edge ids."""

    __slots__ = ("n", "edges", "incidence", "is_multigraph")

    def __init__(self, n: int, edges: list[tuple[int, int]], *, _allow_multi: bool = False):
        if n < 0:
            raise GraphFormatError("vertex count must be non-negative")
        pairs = _checked_pairs(n, edges, "edge", simple=not _allow_multi, symmetric=True)
        self._fill(n, pairs, _allow_multi)

    def _fill(self, n: int, pairs: tuple[tuple[int, int], ...], multi: bool = False) -> None:
        """Set every slot from ``pairs``, already checked."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(pairs):
            inc[u].append((eid, v))
            inc[v].append((eid, u))  # a self-loop lands twice on purpose
        self.n = n
        self.edges = pairs
        self.incidence = tuple(map(tuple, inc))
        self.is_multigraph = multi
        # handshaking: every edge contributes exactly two incidence entries
        if sum(map(len, self.incidence)) != 2 * len(pairs):
            raise RuntimeError("incidence lists break the handshake lemma")

    @classmethod
    def multigraph(cls, n: int, edges: list[tuple[int, int]]) -> "UGraph":
        """Kernel-internal constructor permitting parallel edges and loops."""
        return cls(n, edges, _allow_multi=True)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.incidence[v])

    def neighbors(self, v: int) -> list[int]:
        return [w for _, w in self.incidence[v]]

    def is_connected(self, skip_edges: frozenset[int] | set[int] = frozenset()) -> bool:
        """True iff the graph minus ``skip_edges`` is connected (n=0 counts)."""
        return self.n == 0 or len(bfs(self.incidence, 0, skip_edges)[0]) == self.n

    def relabeled(self, perm: list[int]) -> "UGraph":
        """Image under the vertex bijection ``v -> perm[v]`` (edge order kept)."""
        if sorted(perm) != list(range(self.n)):
            raise GraphFormatError("relabeling is not a permutation")
        return UGraph(
            self.n,
            [(perm[u], perm[v]) for u, v in self.edges],
            _allow_multi=self.is_multigraph,
        )

    def serialize(self) -> str:
        k = self.m - (self.n - 1) if self.n > 0 else 0
        lines = [f"# n={self.n} m={self.m} type=U k={k}", f"{self.n} {self.m} U"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"UGraph(n={self.n}, m={self.m})"


class DiGraph:
    """Immutable directed graph with stable arc ids.

    Duplicate ``(tail, head)`` arcs and self-loop arcs are rejected; the
    antiparallel pair ``(u, v), (v, u)`` is allowed.
    """

    __slots__ = ("n", "arcs", "out_inc", "in_inc")

    def __init__(self, n: int, arcs: list[tuple[int, int]]):
        if n < 0:
            raise GraphFormatError("vertex count must be non-negative")
        self._fill(n, _checked_pairs(n, arcs, "arc", simple=True, symmetric=False))

    def _fill(self, n: int, pairs: tuple[tuple[int, int], ...]) -> None:
        """Set every slot from ``pairs``, already checked."""
        out_inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        in_inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for aid, (u, v) in enumerate(pairs):
            out_inc[u].append((aid, v))
            in_inc[v].append((aid, u))
        self.n = n
        self.arcs = pairs
        self.out_inc = tuple(map(tuple, out_inc))
        self.in_inc = tuple(map(tuple, in_inc))

    @property
    def m(self) -> int:
        return len(self.arcs)

    def in_degree(self, v: int) -> int:
        return len(self.in_inc[v])

    def underlying(self) -> UGraph:
        """Undirected multigraph with one edge per arc; edge id == arc id.

        A vertex's edges are its out-arcs, then its in-arcs, so the arcs are
        not checked or walked again.
        """
        g = UGraph.__new__(UGraph)
        g.n, g.edges, g.is_multigraph = self.n, self.arcs, True
        g.incidence = tuple(map(add, self.out_inc, self.in_inc))
        return g

    def relabeled(self, perm: list[int]) -> "DiGraph":
        if sorted(perm) != list(range(self.n)):
            raise GraphFormatError("relabeling is not a permutation")
        return DiGraph(self.n, [(perm[u], perm[v]) for u, v in self.arcs])

    def serialize(self) -> str:
        k = self.m - (self.n - 1) if self.n > 0 else 0
        lines = [f"# n={self.n} m={self.m} type=D k={k}", f"{self.n} {self.m} D"]
        lines.extend(f"{u} {v}" for u, v in self.arcs)
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiGraph)
            and self.n == other.n
            and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Verdict:
    """Solver or oracle answer, with certificate data on YES.

    ``mapping`` sends target-tree vertices to graph vertices; ``removed`` is
    the set of edge (arc) ids dropped to expose the witness spanning tree.
    """

    answer: str  # "YES" | "NO"
    mapping: dict[int, int] | None = None
    removed: frozenset[int] | None = None
    note: str | None = None

    @property
    def is_yes(self) -> bool:
        return self.answer == "YES"


# The plain form ``serialize`` writes: whole-line comments and blank lines,
# then the header and the edge lines, each ending in "\n".  Numbers are ASCII
# ``[0-9]`` (``\d`` would also take the other digits ``int`` reads), and a
# comment stops at every line boundary ``str.splitlines`` knows, as it does
# on the line-by-line path.
_PLAIN = re.compile(
    r"(?:[ \t]*(?:#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)?\n)*"
    r"(?P<n>[0-9]+) (?P<m>[0-9]+) (?P<kind>[UD])\n"
    r"(?P<body>(?:[0-9]+ [0-9]+\n)*)"
)


# ``raw_decode`` skips the checks for surrounding whitespace and trailing text
# that ``json.loads`` makes, which the array built from a plain body never
# needs; without them it reads even a 5-vertex graph faster than ``int``.
_JSON = json.JSONDecoder()


@gc_paused
def parse_graph(text: str) -> UGraph | DiGraph:
    """Parse the toolkit's text format.

    Header ``n m U`` or ``n m D``, then exactly ``m`` lines ``u v`` with
    0-based ids.  ``#`` starts a comment.  Inputs must be simple (the directed
    format additionally allows the antiparallel pair).

    Text in the plain form (:data:`_PLAIN`) with ``m`` edge lines is read in
    one pass, as one JSON array, whose tail and head columns are checked in
    place; any other goes line by line (:func:`_parse_lines`), which accepts
    the same texts with the same result and words every error.
    """
    plain = _PLAIN.fullmatch(text)
    if plain is not None:
        body = plain["body"]
        try:  # every number as one JSON array: "0 1\n1 2\n" reads as [0,1,1,2]
            n, m = int(plain["n"]), int(plain["m"])
            ends = _JSON.raw_decode("[" + body.replace(" ", ",").replace("\n", ",")[:-1] + "]")[0]
        except ValueError:  # a leading zero, which JSON refuses, or a number past int()'s digit limit
            return _parse_lines(text)
        if len(ends) == 2 * m:
            cls = UGraph if plain["kind"] == "U" else DiGraph
            tails, heads = ends[::2], ends[1::2]
            pairs = tuple(zip(tails, heads))
            if m >= _BULK_MIN and _bulk_ok(
                n, pairs, ends, tails, heads, simple=True, symmetric=cls is UGraph
            ):
                graph = cls.__new__(cls)
                graph._fill(n, pairs)
                return graph
            return cls(n, pairs)  # short, or faulty: the constructor checks and words the fault
    return _parse_lines(text)


def _parse_lines(text: str) -> UGraph | DiGraph:
    """:func:`parse_graph` one line at a time."""
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


def bfs(
    adjacency: Sequence[Sequence[tuple[int, int]]],
    root: int,
    skip: frozenset[int] | set[int] = frozenset(),
) -> tuple[list[int], list[int]]:
    """Breadth-first search from ``root`` over ``(id, neighbour)`` lists,
    not crossing an edge or arc whose id is in ``skip``.

    Returns the reached vertices in visiting order, and each vertex's parent
    in the search: -1 at ``root`` and at every vertex not reached.
    """
    parent = [-1] * len(adjacency)
    parent[root] = root  # marks the root reached until the walk ends
    order = [root]
    for x in order:  # the list grows while it is walked: a BFS queue
        for eid, w in adjacency[x]:
            if parent[w] == -1 and eid not in skip:
                parent[w] = x
                order.append(w)
    parent[root] = -1
    return order, parent


def reachable_all(d: DiGraph, r: int) -> bool:
    """True iff every vertex of ``d`` is reachable from ``r`` by directed paths."""
    return len(bfs(d.out_inc, r)[0]) == d.n


def roots_reaching_all(d: DiGraph) -> list[bool]:
    """``[reachable_all(d, r) for r in range(d.n)]`` in linear time.

    Nothing reaches a vertex of in-degree 0 but itself: with two of them no
    vertex reaches all, and with one it is the only candidate, so one search
    from it decides.  Otherwise, searching from every vertex not yet seen,
    in id order, the root of the last search (a "mother vertex" if any
    exists) is the only candidate that can reach all: a vertex that reaches
    all would otherwise have been seen by, or started, a later search.  When
    it does reach all, the vertices that reach every vertex are exactly
    those that reach it, found by one search over the reversed arcs.
    """
    sources = d.in_inc.count(())
    if sources > 1:
        return [False] * d.n
    if sources == 1:
        admissible = [False] * d.n
        source = d.in_inc.index(())
        admissible[source] = reachable_all(d, source)
        return admissible
    if d.n == 0:
        return []
    seen = bytearray(d.n)
    last = 0
    for s in range(d.n):
        if seen[s]:
            continue
        last = s
        seen[s] = 1
        stack = [s]
        while stack:
            x = stack.pop()
            for _, w in d.out_inc[x]:
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
    admissible = [False] * d.n
    if reachable_all(d, last):
        for v in bfs(d.in_inc, last)[0]:
            admissible[v] = True
    return admissible


def degree_gap(have: Iterable[int], want: Iterable[int]) -> dict[int, int]:
    """How the histogram of the degrees ``have`` must change to become that of
    ``want``: per degree, its count in ``want`` minus its count in ``have``,
    zeros left out."""
    gap = Counter(want)
    for x, c in Counter(have).items():  # per distinct degree: ``subtract`` loops per value
        gap[x] -= c
    return {x: c for x, c in gap.items() if c}


def degrees_cover(gap: Mapping[int, int]) -> bool:
    """Whether the ``have`` degrees behind the :func:`degree_gap` ``gap`` cover
    the ``want`` degrees: for every x, at least as many ``have`` as ``want``
    degrees are >= x, so the running sum of ``gap`` from the highest degree
    down is never positive.

    For lists of equal length this holds iff, both sorted in descending
    order, each ``have`` degree is at least the ``want`` degree in its place.
    """
    run = 0
    for x in sorted(gap, reverse=True):
        run += gap[x]
        if run > 0:
            return False
    return True


def degree_shift(degree: Sequence[int], losers: Iterable[int]) -> dict[int, int]:
    """How the histogram of ``degree`` changes when each vertex in ``losers``
    loses one degree per listing, in the form of :func:`degree_gap`.

    Isomorphic graphs have equal degree multisets, so a deletion whose shift
    differs from the gap to a target leaves no copy of it; the test costs
    O(len(losers)).
    """
    shift: dict[int, int] = {}
    for v, c in Counter(losers).items():
        shift[degree[v]] = shift.get(degree[v], 0) - 1
        shift[degree[v] - c] = shift.get(degree[v] - c, 0) + 1
    return {x: c for x, c in shift.items() if c}


def peel_leaves(g: UGraph) -> tuple[list[int], list[int], list[int]]:
    """Trim ``g`` to its 2-core by removing the lowest-id degree-1 vertex until
    none is left.

    Returns the trimmed vertices in trim order, so each comes after all of
    its children in the trim forest; each vertex's trim parent, the
    neighbour it hung from when trimmed, or -1 for a vertex left in the
    2-core; and the degrees at the end, in which a trimmed vertex keeps 1
    and a self-loop counts 2.  A tree keeps one vertex, of degree 0.

    The lowest-id leaf is found by the linear scan that decodes a Prufer
    sequence: ``i`` runs up through the ids, and a leaf ``i`` is trimmed.
    Before that no leaf is below ``i``, and a trim makes at most one new
    leaf, its parent ``u``.  A ``u`` below ``i`` is then the lowest leaf and
    is trimmed at once, and so on up the chain; a ``u`` above ``i`` waits
    for the scan.
    """
    inc = g.incidence
    deg = [len(pairs) for pairs in inc]
    alive = bytearray([1] * g.n)
    trim_order: list[int] = []
    trim_parent = [-1] * g.n
    for i in range(g.n):
        if deg[i] != 1:  # a vertex at or above i is trimmed only here, so i is alive
            continue
        v = i
        while True:
            for _, u in inc[v]:  # the one neighbour left
                if alive[u]:
                    break
            alive[v] = 0
            trim_order.append(v)
            trim_parent[v] = u
            deg[u] -= 1
            if u > i or deg[u] != 1:
                break
            v = u
    return trim_order, trim_parent, deg
