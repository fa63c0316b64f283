"""Command-line interface.

Exit codes are the verdict channel: 0 = YES, 1 = NO, 2 = error.  Every
failure exits 2, internal errors such as a YES that fails certification
included, so a crash never reads as NO.  stdout carries only the documented
output for each subcommand; traces and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
import traceback
from pathlib import Path

from .directed import DirectedStats, solve_directed, target_tree_from_digraph
from .generate import PLANTED, RANDOM, GenSpec, gen_instance
from .graphs import DiGraph, UGraph, parse_graph
from .kernel import make_contractible
from .oracle import oracle_directed, oracle_undirected, subsets_enumerated
from .treecode import TargetTree, rooted_code, unrooted_code
from .undirected import SolveStats, solve_undirected

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


class CliError(Exception):
    pass


def _read_graph(path: str) -> UGraph | DiGraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    return parse_graph(text)


def _undirected_target(path: str) -> UGraph:
    """The target tree as read; the solver and the oracle validate and root it."""
    t = _read_graph(path)
    if not isinstance(t, UGraph):
        raise CliError(f"target {path} is directed; undirected solve needs a U target")
    return t


def _directed_target(path: str) -> TargetTree:
    t = _read_graph(path)
    if not isinstance(t, DiGraph):
        raise CliError(f"target {path} is undirected; directed solve needs a D target")
    return target_tree_from_digraph(t)


def cmd_solve(args) -> int:
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    g = _read_graph(args.graph)
    if args.directed:
        if not isinstance(g, DiGraph):
            raise CliError(f"graph {args.graph} is undirected but --directed was given")
        target = _directed_target(args.target)
        if args.oracle:
            verdict = oracle_directed(g, target)
        else:
            verdict = solve_directed(g, target, trace=trace)
    else:
        if not isinstance(g, UGraph):
            raise CliError(f"graph {args.graph} is directed; pass --directed")
        target = _undirected_target(args.target)
        if args.oracle:
            verdict = oracle_undirected(g, target)
        else:
            verdict = solve_undirected(g, target, trace=trace)
    print(verdict.answer)
    if verdict.note:
        print(verdict.note, file=sys.stderr)
    if args.explain:
        _explain(g, target, verdict, args.directed)
    if verdict.is_yes and args.cert:
        for tv in sorted(verdict.mapping):
            print(f"map {tv} {verdict.mapping[tv]}")
        print("removed " + " ".join(str(e) for e in sorted(verdict.removed)))
    return EXIT_YES if verdict.is_yes else EXIT_NO


def _explain(g, target: TargetTree | UGraph, verdict, directed: bool) -> None:
    """Print the canonical codes behind the verdict on stderr; ``target`` is the
    rooted target of a directed solve, else the tree as read."""
    if directed:
        print(f"target-code {rooted_code(target.tree, target.root)}", file=sys.stderr)
    else:
        print(f"target-code {unrooted_code(target)}", file=sys.stderr)
    if verdict.is_yes:
        if directed:
            kept = [a for i, a in enumerate(g.arcs) if i not in verdict.removed]
            witness = UGraph.multigraph(g.n, kept)
            root = verdict.mapping[target.root]
            print(f"witness-code {rooted_code(witness, root)}", file=sys.stderr)
        else:
            kept = [e for i, e in enumerate(g.edges) if i not in verdict.removed]
            print(f"witness-code {unrooted_code(UGraph(g.n, kept))}", file=sys.stderr)


def cmd_kernel(args) -> int:
    g = _read_graph(args.graph)
    und = g.underlying() if isinstance(g, DiGraph) else g
    kernel = make_contractible(und)
    sys.stdout.write(kernel.graph.serialize())
    for kid, orig in enumerate(kernel.delta):
        print(f"# anchor {kid} = {orig}")
    for eid, chain in enumerate(kernel.chains):
        print(f"# chain {eid} = " + " ".join(str(v) for v in chain.vertices))
    return EXIT_YES


def cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        k=args.k,
        seed=args.seed,
        mode=PLANTED if args.planted else RANDOM,
        directed=args.directed,
    )
    inst = gen_instance(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.txt").write_text(inst.graph.serialize())
    (out / "target.txt").write_text(inst.target_graph.serialize())
    extras = " ".join(str(e) for e in inst.planted_extra_ids)
    manifest = "\n".join(
        [
            "# instance manifest",
            f"# n={spec.n} k={spec.k} seed={spec.seed} directed={int(spec.directed)}",
            f"# mode={spec.mode} truth={inst.truth}",
            f"# planted_extras={extras}",
        ]
    )
    (out / "manifest.txt").write_text(manifest + "\n")
    return EXIT_YES


def _bench_rows(args):
    base = args.seed
    counter = 0
    for n in range(5, args.nmax + 1):
        for k in range(0, args.kmax + 1):
            for rep in range(args.reps):
                for directed in (False, True):
                    mode = PLANTED if rep % 2 == 0 else RANDOM
                    seed = base * 1_000_003 + counter
                    counter += 1
                    try:
                        spec = GenSpec(n=n, k=k, seed=seed, mode=mode, directed=directed)
                    except ValueError:  # an infeasible cell: k exceeds what n vertices hold
                        continue
                    yield spec


def cmd_bench(args) -> int:
    rows = []
    disagreements = 0
    for spec in _bench_rows(args):
        inst = gen_instance(spec)
        mode_tag = f"{spec.mode}-{'d' if spec.directed else 'u'}"
        if spec.directed:
            stats_d = DirectedStats()
            t0 = time.perf_counter()
            verdict = solve_directed(inst.graph, inst.target, stats=stats_d)
            dt = time.perf_counter() - t0
            work = stats_d.plans_examined
        else:
            stats_u = SolveStats()
            t0 = time.perf_counter()
            verdict = solve_undirected(inst.graph, inst.target, stats=stats_u)
            dt = time.perf_counter() - t0
            work = stats_u.branches_examined
        rows.append(
            (spec.n, spec.k, mode_tag, spec.seed, "fpt", verdict.answer, int(dt * 1e6), work)
        )
        if args.compare_oracle:
            oracle = oracle_directed if spec.directed else oracle_undirected
            t0 = time.perf_counter()
            overdict = oracle(inst.graph, inst.target)
            dt = time.perf_counter() - t0
            rows.append(
                (
                    spec.n,
                    spec.k,
                    mode_tag,
                    spec.seed,
                    "oracle",
                    overdict.answer,
                    int(dt * 1e6),
                    subsets_enumerated(inst.graph),
                )
            )
            if overdict.answer != verdict.answer:
                disagreements += 1
                print(
                    f"disagreement: n={spec.n} k={spec.k} seed={spec.seed} "
                    f"{mode_tag}: fpt={verdict.answer} oracle={overdict.answer}",
                    file=sys.stderr,
                )
    with open(args.csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "k", "mode", "seed", "solver", "verdict", "wall_time_micros", "work"]
        )
        writer.writerows(rows)
    if disagreements:
        print(f"{disagreements} verdict disagreements", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiso",
        description="Spanning-tree isomorphism toolkit: solvers, oracle, generator, bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide one instance")
    p.add_argument("-g", "--graph", required=True, help="graph file")
    p.add_argument("-t", "--target", required=True, help="target tree file")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--oracle", action="store_true", help="use the brute-force oracle")
    p.add_argument("--cert", action="store_true", help="print the YES certificate")
    p.add_argument("--trace", action="store_true", help="search trace on stderr")
    p.add_argument("--explain", action="store_true", help="canonical codes on stderr")
    p.add_argument(
        "--fallback",
        action="store_true",
        help="accepted for compatibility; no effect",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kernel", help="print the contracted core and its chains")
    p.add_argument("-g", "--graph", required=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("gen", help="write a generated instance to a directory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--planted", action="store_true")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time solver runs over a seeded grid, write CSV")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", required=True)
    p.add_argument("--compare-oracle", action="store_true", dest="compare_oracle")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
