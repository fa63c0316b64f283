"""Timed phase: decide every instance in-process and print the results as JSON.

Run as ``python3 perfbench/decide.py`` with a JSON request on stdin (see
``run.py``).  The process receives only instance text.  Each verdict makes
the calls ``stiso solve --fallback`` makes: ``parse_graph`` on both texts,
target construction, then ``solve_undirected(..., fallback=True)`` or
``solve_directed``, whose certification is part of the timed verdict.

Each verdict is preceded, outside its timed region, by a run of the fixed
reference task in ``refspeed.py``; ``run.py`` scales the verdict's time by
it to take the host's speed swings out.

With ``trace`` set, spans (name, start, end, parent, instance id) and the
solver's effort counters are recorded in memory around every layer call,
plus probes after each verdict that time the kernel, the witness mapping
and the certifier on their own; all of it is printed when the run ends.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

from inputs import import_stiso
from refspeed import reference_ms, reference_ns
from verdict_check import judge

# Counters read from the stats objects by field name; a field a later
# version drops is reported as null.  Strict-mode-only fields are not read.
STATS_FIELDS = {
    "U": ("roots_tried", "attempts", "nodes_opened", "branches_examined"),
    "D": ("roots_tried", "roots_reachable", "subsets_examined", "plans_examined", "arborescence_hits"),
}
LAYER = {"U": "undirected", "D": "directed"}


class InstanceTimeout(Exception):
    pass


class Tracer:
    """In-memory spans: ``[name, start_ns, end_ns, parent index, instance id, counts]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.instance = -1

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), 0, self.open[-1] if self.open else -1, self.instance, None]
        self.open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter_ns()
            self.open.pop()


class NoTracer:
    instance = -1

    def span(self, name: str):
        return nullcontext([name, 0, 0, -1, -1, None])


class Decider:
    def __init__(self, stiso, tracer):
        self.stiso = stiso
        self.tracer = tracer
        self.stats_cls = {
            "U": getattr(stiso, "SolveStats", None),
            "D": getattr(stiso, "DirectedStats", None),
        }

    def decide(self, inst: dict):
        """The verdict path; returns (graph, target, verdict)."""
        s, span = self.stiso, self.tracer.span
        directed = inst["flavour"] == "D"
        cls = self.stats_cls[inst["flavour"]]
        stats = cls() if cls is not None else None
        with span("graphs.parse"):
            g = s.parse_graph(inst["graph"])
            t = s.parse_graph(inst["target"])
        with span("treecode.target"):
            target = s.target_tree_from_digraph(t) if directed else s.TargetTree(t, s.tree_centers(t)[0])
        with span(LAYER[inst["flavour"]] + ".solve") as rec:
            if directed:
                verdict = s.solve_directed(g, target, stats=stats)
            else:
                verdict = s.solve_undirected(g, target, fallback=True, stats=stats)
        rec[5] = {c: getattr(stats, c, None) for c in STATS_FIELDS[inst["flavour"]]}
        return g, target, verdict

    def probe(self, inst: dict, g, target, verdict) -> None:
        """Traced run only: time the kernel, witness mapping and certifier on their own."""
        s, span = self.stiso, self.tracer.span
        directed = inst["flavour"] == "D"
        if inst["k"] >= 2:
            und = g.underlying() if directed else g
            with span("kernel.contract") as rec:
                kernel = s.make_contractible(und)
            rec[5] = {"anchors": len(kernel.anchors)}
        if not verdict.is_yes:
            return
        pairs = g.arcs if directed else g.edges
        kept = [e for i, e in enumerate(pairs) if i not in verdict.removed]
        witness = s.UGraph(g.n, kept)
        with span("treecode.iso_mapping"):
            s.rooted_iso_mapping(target.tree, target.root, witness, verdict.mapping[target.root])
        certify = s.certify_directed if directed else s.certify_undirected
        with span(LAYER[inst["flavour"]] + ".certify"):
            certify(g, target, verdict)


def run(request: dict, t_start: float) -> dict:
    """Decide every instance; ``t_start`` opens the warm-up reported in set-up time."""
    stiso = import_stiso()
    instances = request["instances"]
    traced = request["trace"]
    tracer = Tracer() if traced else NoTracer()
    decider = Decider(stiso, tracer)
    armed = [False]

    def on_alarm(signum, frame):
        if armed[0]:
            raise InstanceTimeout()

    signal.signal(signal.SIGALRM, on_alarm)

    def timed_decide(d: Decider, inst: dict):
        """``(graph, target, verdict, elapsed_ns)``; InstanceTimeout past the limit."""
        signal.setitimer(signal.ITIMER_REAL, request["limit_s"])
        armed[0] = True
        try:
            t0 = time.perf_counter_ns()
            with d.tracer.span("decide"):
                g, target, verdict = d.decide(inst)
            return g, target, verdict, time.perf_counter_ns() - t0
        finally:
            armed[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)

    # warm-up: one untimed verdict per flavour, outside the trace; an error
    # here shows again, and is counted, when the timed pass reaches it
    warm = Decider(stiso, NoTracer())
    for flavour in sorted({i["flavour"] for i in instances}):
        try:
            timed_decide(warm, next(i for i in instances if i["flavour"] == flavour))
        except Exception:
            pass
    gc.collect()
    gc.freeze()
    warmup_s = time.perf_counter() - t_start
    warmup_ref_ms = reference_ms()

    results = [
        {"id": i["id"], "times_ns": [], "ref_ns": [], "answer": None, "fail": []} for i in instances
    ]
    deadline = time.perf_counter() + request["budget_s"]
    t_run = time.perf_counter()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        for inst, res in zip(instances, results):
            if time.perf_counter() > deadline:
                res["fail"].append("run time budget exhausted before this instance")
                continue
            gc.collect()
            ref_ns = reference_ns()
            tracer.instance = inst["id"]
            with tracer.span("instance"):
                try:
                    g, target, verdict, elapsed = timed_decide(decider, inst)
                except InstanceTimeout:
                    res["fail"].append(f"exceeded the {request['limit_s']} s instance limit")
                    continue
                except Exception as exc:  # a solver error fails this instance, not the run
                    traceback.print_exc(file=sys.stderr)
                    res["fail"].append(f"raised {type(exc).__name__}: {exc}")
                    continue
                if traced:
                    decider.probe(inst, g, target, verdict)
                with tracer.span("check"):
                    reason = judge(inst, verdict.answer, verdict.mapping, verdict.removed)
            res["answer"] = verdict.answer
            if reason is None:
                res["times_ns"].append(elapsed)
                res["ref_ns"].append(ref_ns)
            else:
                res["fail"].append(reason)
        passes += 1
        pass_s = time.perf_counter() - t_pass
        now = time.perf_counter()
        if traced or now - t_run + pass_s > request["seconds"] or now + pass_s > deadline:
            break
    return {
        "warmup_s": warmup_s,
        "warmup_ref_ms": warmup_ref_ms,
        "passes": passes,
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if traced else [],
    }


def main() -> int:
    t_start = time.perf_counter()
    request = json.load(sys.stdin)
    json.dump(run(request, t_start), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
