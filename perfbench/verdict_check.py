"""Independent verdict check, sharing no code with ``stiso``.

A YES certificate is judged from the instance texts alone: the mapping is a
bijection, exactly ``k`` edges are removed, and the kept edges are exactly
the image of the target's edges (for directed instances, as ordered
parent->child pairs, so every kept arc runs parent to child).
"""

from __future__ import annotations


def parse_text(text: str) -> tuple[int, str, list[tuple[int, int]]]:
    """``(n, "U" | "D", edge list)`` of a graph in the toolkit's text format."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [row for row in rows if row]
    n, m, kind = int(rows[0][0]), int(rows[0][1]), rows[0][2]
    edges = [(int(u), int(v)) for u, v in rows[1:]]
    if len(edges) != m:
        raise ValueError(f"header says m={m} but found {len(edges)} edges")
    return n, kind, edges


def certificate_error(
    graph_text: str, target_text: str, mapping: dict[int, int], removed
) -> str | None:
    """Why a YES certificate is wrong, or None when it holds."""
    n, kind, edges = parse_text(graph_text)
    tn, _, target_edges = parse_text(target_text)
    if tn != n:
        return "target and graph sizes differ"
    if sorted(mapping) != list(range(n)) or sorted(mapping.values()) != list(range(n)):
        return "mapping is not a bijection"
    removed = list(removed)
    k = len(edges) - (n - 1)
    if len(set(removed)) != len(removed) or len(removed) != k:
        return f"removed {len(removed)} edges, expected k={k}"
    if not all(0 <= e < len(edges) for e in removed):
        return "removed edge id out of range"
    drop = set(removed)
    kept = [e for i, e in enumerate(edges) if i not in drop]
    image = [(mapping[a], mapping[b]) for a, b in target_edges]
    if kind == "D":
        if sorted(kept) != sorted(image):
            return "kept arcs differ from the image of the target's parent->child arcs"
    else:
        def norm(pairs):
            return sorted((min(u, v), max(u, v)) for u, v in pairs)

        if norm(kept) != norm(image):
            return "kept edges differ from the image of the target's edges"
    return None


def judge(inst: dict, answer: str, mapping, removed) -> str | None:
    """Failure reason for one verdict on an instance, or None when correct.

    ``inst["expect"]`` is the known answer (planted, oracle truth or a pinned
    verdict), or None when nothing is known; a YES is always certificate-checked.
    """
    expect = inst.get("expect")
    if expect is not None and answer != expect:
        return f"answered {answer}, expected {expect} ({inst['expect_from']})"
    if answer == "YES":
        if mapping is None or removed is None:
            return "YES without a certificate"
        return certificate_error(inst["graph"], inst["target"], mapping, removed)
    if answer != "NO":
        return f"unknown answer {answer!r}"
    return None
