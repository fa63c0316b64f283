"""Set-up phase: build one workload's inputs from a seed and print them as JSON.

Run as ``python3 perfbench/inputs.py <workload> <seed>``.  Instances come
from ``stiso.gen_instance`` (on ``undirected-scale`` stratified as described
in NOTES.md) and are serialized to the toolkit's text format; the timed
phase (``decide.py``) receives only that text.  Generation runs in
equal-composition batches, each preceded by the reference task of
``refspeed.py``, so ``setup_s`` can be reported as a median of scaled batch
times rather than one noisy total.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from refspeed import reference_ms

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    flavours: tuple[str, ...]  # "U" undirected, "D" directed
    n_range: tuple[int, int]  # inclusive
    ks: tuple[int, ...]
    batches: int
    oracle: bool  # ground truth from the brute-force oracle during set-up
    stratify_roots: bool  # undirected only: see ROOT_BIN_EDGES and SCAN_DEPTH


# Why these three, and why directed-scale is n = 500 at k = 4 only: see
# perfbench/NOTES.md.  A batch holds one planted and one random instance per
# (flavour, k), interleaved, so every batch costs the same.
WORKLOADS = {
    "undirected-scale": Workload(("U",), (1000, 1000), (2, 3, 4, 5, 6), 10, False, True),
    "directed-scale": Workload(("D",), (500, 500), (4,), 100, False, False),
    "desk-oracle": Workload(("U", "D"), (5, 12), (0, 1, 2, 3, 4, 5), 48, True, False),
}
MODES = ("planted-yes", "random")
# root_fraction on random undirected instances (n = 1000, k 2..6) takes a
# few clustered values, one per shape of the target's centers; these edges
# lie in the gaps between the clusters.  Each run holds ROOT_BIN_QUOTA
# random instances per bin: the natural share of each bin, measured by
# calibrate.py over 1000 generated instances (0.444, 0.067, 0.218, 0.058,
# 0.213), times the run's 50, rounded by largest remainder.
ROOT_BIN_EDGES = (0.43, 0.58, 0.68, 0.8)
ROOT_BIN_QUOTA = (22, 3, 11, 3, 11)
MAX_DRAWS = 10_000
# Natural median of scan_depth on planted undirected instances, measured the
# same way; every planted instance is placed at it (see _place_planted_root).
SCAN_DEPTH = 0.112


def _derive(workload: str, seed: int, key) -> int:
    """Stable 63-bit value per (workload, run seed, key)."""
    digest = hashlib.sha256(f"{workload}|{seed}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def witness_center(stiso, graph, target_graph) -> int:
    """The planted tree's center at which the search finds its witness.

    The search roots the target at its first center and scans graph roots
    in id order; the planted spanning tree (the generated graph's first
    n - 1 edges) is a witness at the center that this rooting maps to.
    """
    n = graph.n
    tree = stiso.UGraph(n, list(graph.edges[: n - 1]))
    root = stiso.tree_centers(target_graph)[0]
    for c in stiso.tree_centers(tree):
        if stiso.rooted_iso_mapping(target_graph, root, tree, c) is not None:
            return c
    raise RuntimeError("the planted tree does not match the target")


def scan_depth(stiso, graph, target_graph, center: int) -> float:
    """Root candidates the search meets before ``center``, over n.

    A candidate is a vertex whose degree can host the children of the
    target's first center (see ``root_fraction``).
    """
    need = target_graph.degree(stiso.tree_centers(target_graph)[0])
    return sum(1 for v in range(center) if graph.degree(v) >= need) / graph.n


def _place_planted_root(stiso, graph, target_graph, rng: random.Random):
    """Relabel a planted undirected graph so that its ``scan_depth`` is ``SCAN_DEPTH``.

    The search stops at the first witness, found at ``witness_center``, so
    a planted instance's time grows with the candidates scanned before it.
    Left to the generator's random labels that count is uniform over the
    candidates, which spreads planted times thinly and makes their median
    jump between seeds.  Every planted instance is therefore placed at the
    natural median depth measured by ``calibrate.py``, or after the last
    candidate when it has fewer than that.  The other vertices,
    the second center included, keep a random order; the relabeled graph is
    isomorphic to the generated one, so the verdict is unchanged.
    """
    n = graph.n
    center = witness_center(stiso, graph, target_graph)
    need = target_graph.degree(stiso.tree_centers(target_graph)[0])
    others = [v for v in range(n) if v != center]
    rng.shuffle(others)
    depth = round(SCAN_DEPTH * n)
    cut = scanned = 0
    while cut < len(others) and scanned < depth:
        scanned += graph.degree(others[cut]) >= need
        cut += 1
    perm = [0] * n
    for new_id, v in enumerate(others[:cut] + [center] + others[cut:]):
        perm[v] = new_id
    return graph.relabeled(perm)


def root_fraction(stiso, graph, target_graph) -> float:
    """Root candidates the undirected search tries on a NO, over n.

    The search tries, once per target center, every graph vertex whose
    degree can host that center's children; on a NO (nearly every random
    instance) it tries them all.  That count over n sets the verdict time
    (about 0.6 ms per candidate at n = 1000) and ranges from under 0.01 to
    1.3 with the target's shape.
    """
    degrees = [graph.degree(v) for v in range(graph.n)]
    count = sum(
        sum(1 for d in degrees if d >= target_graph.degree(c))
        for c in stiso.tree_centers(target_graph)
    )
    return count / graph.n


def root_bin(stiso, graph, target_graph) -> int:
    """Index of the ``ROOT_BIN_EDGES`` bin that holds the instance's ``root_fraction``."""
    fraction = root_fraction(stiso, graph, target_graph)
    return sum(fraction >= edge for edge in ROOT_BIN_EDGES)


def build(stiso, workload: str, seed: int) -> dict:
    """Generate, serialize and (on desk scale) solve by oracle every input."""
    spec = WORKLOADS[workload]
    strata = [(f, k, mode) for f in spec.flavours for k in spec.ks for mode in MODES]
    lo, hi = spec.n_range
    sha = hashlib.sha256()
    instances, batch_s, batch_ref_ms, gen_ms, oracle_ms = [], [], [], [], []
    # deal every random instance a root-fraction bin, in a seeded random
    # order so that no k is tied to a bin
    bins = [b for b, count in enumerate(ROOT_BIN_QUOTA) for _ in range(count)]
    if spec.stratify_roots and len(bins) != spec.batches * len(spec.ks):
        raise ValueError("ROOT_BIN_QUOTA must deal a bin to every random instance")
    random.Random(_derive(workload, seed, "bins")).shuffle(bins)
    wanted_bins = iter(bins)
    for b in range(spec.batches):
        batch_ref_ms.append(reference_ms())
        t_batch = time.perf_counter()
        stratify_s = 0.0  # the benchmark's own input shaping stays out of set-up time
        for pos, (f, k, mode) in enumerate(strata):
            index = len(instances)
            # every (flavour, k, mode) stratum meets each n in the range equally often
            n = lo + (b + pos) % (hi - lo + 1)
            salt = _derive(workload, seed, index)
            t0 = time.perf_counter()
            inst = stiso.gen_instance(
                stiso.GenSpec(n=n, k=k, seed=salt, mode=mode, directed=f == "D")
            )
            gen_ms.append((time.perf_counter() - t0) * 1e3)
            graph, target = inst.graph, inst.target_graph
            t0 = time.perf_counter()
            if spec.stratify_roots and mode == "planted-yes":
                graph = _place_planted_root(stiso, graph, target, random.Random(salt))
            elif spec.stratify_roots:
                # random mode's target is an independent uniform tree: redraw
                # it with gen_tree, from the same distribution, until it falls
                # in the bin this instance was dealt
                wanted = next(wanted_bins)
                for draw in range(1, MAX_DRAWS + 1):
                    if root_bin(stiso, graph, target) == wanted:
                        break
                    target = stiso.gen_tree(n, _derive(workload, seed, f"{index}.{draw}"))
                else:
                    raise RuntimeError(f"no target in root-fraction bin {wanted} for instance {index}")
            stratify_s += time.perf_counter() - t0
            graph_text = graph.serialize()
            target_text = target.serialize()
            truth = "YES" if mode == "planted-yes" else None
            if spec.oracle:
                t0 = time.perf_counter()
                if f == "D":
                    answer = stiso.oracle_directed(graph, inst.target).answer
                else:
                    answer = stiso.oracle_undirected(graph, target).answer
                oracle_ms.append((time.perf_counter() - t0) * 1e3)
                if truth is not None and answer != truth:
                    raise RuntimeError(f"oracle answers NO on planted instance {index}")
                truth = answer
            sha.update(graph_text.encode() + b"\0" + target_text.encode() + b"\0")
            instances.append(
                {
                    "id": index,
                    "flavour": f,
                    "mode": mode,
                    "n": n,
                    "k": k,
                    "graph": graph_text,
                    "target": target_text,
                    "truth": truth,
                }
            )
        batch_s.append(time.perf_counter() - t_batch - stratify_s)
    return {
        "instances": instances,
        "sha256": sha.hexdigest(),
        "batch_s": batch_s,
        "batch_ref_ms": batch_ref_ms,
        "gen_ms": gen_ms,
        "oracle_ms": oracle_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def import_stiso():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import stiso

    if Path(stiso.__file__).resolve().parent != src / "stiso":
        raise ImportError(f"stiso imported from {stiso.__file__}, not from {src}")
    return stiso


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    stiso = import_stiso()
    json.dump(build(stiso, workload, seed), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
