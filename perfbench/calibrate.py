"""Measure the natural input statistics that ``undirected-scale`` stratifies on.

    python3 perfbench/calibrate.py [count]

Draws ``count`` (default 1000) ``gen_instance`` outputs per mode at
n = 1000 with k cycling over 2..6 and seeds 0..count-1, on the generator's
own labels, and prints the deciles of

* ``root_fraction`` on random-mode instances, and the share of them in
  each ``ROOT_BIN_EDGES`` bin, from which ``ROOT_BIN_QUOTA`` in
  ``inputs.py`` is taken, and
* ``scan_depth`` on planted instances, the root candidates the search
  meets before ``witness_center``, from which ``SCAN_DEPTH`` is taken (its
  median).  Every planted instance is also decided, and the solver's own
  count, ``(roots_tried - 1) / n``, is printed beside it as a check.
"""

from __future__ import annotations

import collections
import statistics
import sys

from inputs import ROOT_BIN_EDGES, import_stiso, root_fraction, scan_depth, witness_center

N = 1000
KS = (2, 3, 4, 5, 6)


def deciles(values: list[float]) -> str:
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return " ".join(f"{c:.4f}" for c in cuts)


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 1000
    stiso = import_stiso()
    fractions, depths, tried = [], [], []
    for i in range(count):
        k = KS[i % len(KS)]
        for mode in ("random", "planted-yes"):
            inst = stiso.gen_instance(stiso.GenSpec(n=N, k=k, seed=i, mode=mode))
            graph, target = inst.graph, inst.target_graph
            if mode == "random":
                fractions.append(root_fraction(stiso, graph, target))
                continue
            depths.append(scan_depth(stiso, graph, target, witness_center(stiso, graph, target)))
            stats = stiso.SolveStats()
            stiso.solve_undirected(graph, inst.target, fallback=True, stats=stats)
            tried.append((stats.roots_tried - 1) / N)
    print(f"instances per mode: {count}, n = {N}, k cycling over {KS}")
    print(f"random root_fraction deciles: {deciles(fractions)}")
    shares = [
        sum(1 for f in fractions if sum(f >= e for e in ROOT_BIN_EDGES) == b) / count
        for b in range(len(ROOT_BIN_EDGES) + 1)
    ]
    print(f"random root_fraction bins {ROOT_BIN_EDGES}: shares "
          + " ".join(f"{x:.3f}" for x in shares)
          + "; per 50: " + " ".join(f"{50 * x:.1f}" for x in shares))
    cells = collections.Counter(round(f, 2) for f in fractions)
    print("random root_fraction histogram (value rounded to 0.01: count): "
          + " ".join(f"{v:.2f}:{c}" for v, c in sorted(cells.items())))
    print(f"planted scan_depth deciles:            {deciles(depths)}")
    print(f"planted scan_depth median:             {statistics.median(depths):.4f}")
    print(f"planted (roots_tried - 1) / n deciles: {deciles(tried)}")
    print(f"planted (roots_tried - 1) / n median:  {statistics.median(tried):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
