"""The benchmark's verdict check must count wrong answers as failures.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

from inputs import SCAN_DEPTH, _place_planted_root, import_stiso, scan_depth, witness_center
from refspeed import REF_MS, reference_ns
from run import failures, instance_ms
from verdict_check import judge, parse_text

HERE = Path(__file__).resolve().parent
stiso = import_stiso()


def _instance(directed: bool) -> dict:
    """A planted n = 9, k = 3 instance in the form the timed phase receives."""
    inst = stiso.gen_instance(stiso.GenSpec(n=9, k=3, seed=5, directed=directed))
    return {
        "id": 0,
        "flavour": "D" if directed else "U",
        "mode": "planted-yes",
        "n": 9,
        "k": 3,
        "graph": inst.graph.serialize(),
        "target": inst.target_graph.serialize(),
        "expect": "YES",
        "expect_from": "planted",
    }


def _solve(inst: dict):
    g = stiso.parse_graph(inst["graph"])
    t = stiso.parse_graph(inst["target"])
    if inst["flavour"] == "D":
        return stiso.solve_directed(g, stiso.target_tree_from_digraph(t))
    return stiso.solve_undirected(g, stiso.TargetTree(t, stiso.tree_centers(t)[0]), fallback=True)


def test_correct_certificates_pass():
    for directed in (False, True):
        inst = _instance(directed)
        v = _solve(inst)
        assert judge(inst, v.answer, v.mapping, v.removed) is None


def test_tampered_certificate_is_a_failure():
    for directed in (False, True):
        inst = _instance(directed)
        v = _solve(inst)
        # a leaf and an inner vertex of the target: swapping their images breaks the edges
        deg = [0] * 9
        for x, y in parse_text(inst["target"])[2]:
            deg[x] += 1
            deg[y] += 1
        a, b = deg.index(1), next(x for x in range(9) if deg[x] > 1)
        swapped = dict(v.mapping)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        not_bijective = dict(v.mapping)
        not_bijective[a] = not_bijective[b]
        kept = next(e for e in range(len(v.removed) + 9) if e not in v.removed)
        wrong_edge = set(v.removed) - {min(v.removed)} | {kept}
        for mapping, removed in (
            (swapped, v.removed),
            (not_bijective, v.removed),
            (v.mapping, wrong_edge),
            (v.mapping, set(v.removed) - {min(v.removed)}),
        ):
            assert judge(inst, "YES", mapping, removed) is not None


def test_reversed_arc_is_a_failure():
    inst = _instance(True)
    v = _solve(inst)
    arcs = parse_text(inst["graph"])[2]
    u, w = next(a for i, a in enumerate(arcs) if i not in v.removed)
    reversed_graph = inst["graph"].replace(f"\n{u} {w}\n", f"\n{w} {u}\n", 1)
    assert reversed_graph != inst["graph"]
    assert judge(dict(inst, graph=reversed_graph), "YES", v.mapping, v.removed) is not None


def test_flipped_verdict_is_a_failure():
    inst = _instance(False)
    assert judge(inst, "NO", None, None) is not None
    assert judge(dict(inst, expect="NO", expect_from="oracle"), "YES", {}, set()) is not None


def test_timed_phase_counts_failures_and_goes_on():
    good = _instance(False)
    flipped = dict(_instance(True), id=1, expect="NO", expect_from="oracle")
    broken = dict(_instance(False), id=2, graph="3 1 U\n0 7\n")  # parse_graph raises
    request = {
        "instances": [good, flipped, broken],
        "seconds": 0,
        "budget_s": 60,
        "limit_s": 20,
        "trace": True,
    }
    proc = subprocess.run(
        [sys.executable, "-B", str(HERE / "decide.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(proc.stdout)
    attempted, failed, lines = failures(result)
    assert (attempted, failed) == (3, 2)
    assert lines[0].startswith("instance 1: answered YES, expected NO")
    assert lines[1].startswith("instance 2: raised GraphFormatError")
    assert {s[0] for s in result["spans"]} >= {"graphs.parse", "treecode.target", "directed.solve"}


def test_planted_relabeling_sets_the_scan_depth():
    n, unsaturated = 200, 0
    for seed in range(4):
        inst = stiso.gen_instance(stiso.GenSpec(n=n, k=3, seed=seed))
        target = inst.target_graph
        graph = _place_planted_root(stiso, inst.graph, target, random.Random(seed))
        center = witness_center(stiso, graph, target)
        need = target.degree(stiso.tree_centers(target)[0])
        candidates = sum(1 for v in range(n) if v != center and graph.degree(v) >= need)
        scanned = round(scan_depth(stiso, graph, target, center) * n)
        assert scanned == min(round(SCAN_DEPTH * n), candidates)
        unsaturated += scanned < candidates
        stats = stiso.SolveStats()
        verdict = stiso.solve_undirected(graph, inst.target, fallback=True, stats=stats)
        assert verdict.is_yes and stats.roots_tried <= scanned + 1
    assert unsaturated


def test_host_slowdown_cancels_in_scaled_times():
    assert reference_ns() > 0
    fast = {"results": [{"id": 0, "times_ns": [10e6, 12e6, 30e6], "ref_ns": [1e6, 1e6, 1e6]}]}
    slow = {"results": [{"id": 0, "times_ns": [15e6, 18e6, 45e6], "ref_ns": [1.5e6, 1.5e6, 1.5e6]}]}
    assert instance_ms(fast) == instance_ms(slow) == {0: 12 * REF_MS}
