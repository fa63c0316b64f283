"""Seeded verdict-latency benchmark for the stiso solvers.

    python3 perfbench/run.py --workload undirected-scale --seed 1 --seconds 15 --trace 0

Three processes take part: this one, which never imports ``stiso``; a
set-up process (``inputs.py``) that generates the seeded inputs, their
oracle truth and their SHA-256; and a fresh timed process (``decide.py``)
that receives only the instance text, so the generator's memory and
allocator state do not leak into the timed phase.  With ``--trace 1`` a
second, traced timed process follows the untraced one and the per-layer
metrics are printed instead of the end-to-end ones.

Every reported time is scaled by a fixed reference task timed next to it
(``refspeed.py``): the host is a shared vCPU whose speed swings by up to 40%
within seconds, and the scaling cancels that swing.  Per-layer span times
are not scaled.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every verdict is checked (``verdict_check.py``);
a wrong verdict, a bad certificate, an exception or an instance over the
time limit counts as failed.  See NOTES.md for why the workloads and
metrics are what they are.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import ROOT, WORKLOADS
from refspeed import REF_MS

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
TRACE_DIR = ROOT / ".perfbench"
RUN_LIMIT_S = 170  # the whole run, set-up included
SETUP_LIMIT_S = 120
INSTANCE_LIMIT_S = 20

E2E_UNITS = {
    "decide_per_s": "1/s",
    "planted_ms_p50": "ms",
    "random_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_SPANS = {
    "graphs.parse": "graphs.parse_ms",
    "treecode.target": "treecode.target_ms",
    "kernel.contract": "kernel.contract_ms",
    "undirected.solve": "undirected.solve_ms",
    "directed.solve": "directed.solve_ms",
    "treecode.iso_mapping": "treecode.iso_mapping_ms",
    "undirected.certify": "undirected.certify_ms",
    "directed.certify": "directed.certify_ms",
}


class BenchError(Exception):
    pass


def child(script: str, args: list[str], payload: dict | None, timeout: float) -> dict:
    """Run a benchmark script in a fresh interpreter and decode its JSON output."""
    cmd = [sys.executable, "-B", str(HERE / script), *args]
    data = json.dumps(payload) if payload is not None else ""
    try:
        proc = subprocess.run(
            cmd, input=data, capture_output=True, text=True, timeout=timeout, cwd=HERE
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} did not finish within {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with status {proc.returncode}")
    return json.loads(proc.stdout)


def apply_expectations(workload: str, seed: int, setup: dict) -> list[str]:
    """Attach the known answer to every instance; return problems with the pins."""
    pinned = json.loads(PINS.read_text()).get(workload, {}).get(str(seed))
    problems = []
    if pinned is not None and pinned["sha256"] != setup["sha256"]:
        problems.append(
            f"inputs sha256 {setup['sha256']} differs from the pinned {pinned['sha256']}: "
            "the generator's output changed, so this run is not comparable"
        )
        pinned = None
    letters = iter(pinned["random"]) if pinned is not None and "random" in pinned else None
    for inst in setup["instances"]:
        if inst["truth"] is not None:
            inst["expect"] = inst["truth"]
            inst["expect_from"] = "planted" if inst["mode"] == "planted-yes" else "oracle"
        elif letters is not None:
            inst["expect"] = {"Y": "YES", "N": "NO"}[next(letters)]
            inst["expect_from"] = "pinned verdict"
        else:
            inst["expect"] = None
    return problems


def p50(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def instance_ms(timed: dict) -> dict[int, float]:
    """Per instance: median scaled verdict time over the passes it passed its check in.

    Each verdict's time is scaled by the reference task timed just before it
    (``refspeed.py``), which takes the host's speed swings out of it.
    """
    return {
        r["id"]: p50([t * REF_MS / ref for t, ref in zip(r["times_ns"], r["ref_ns"])])
        for r in timed["results"]
        if r["times_ns"]
    }


def end_to_end(instances, setup: dict, timed: dict) -> dict[str, tuple[float, int]]:
    ms = instance_ms(timed)
    mode = {i["id"]: i["mode"] for i in instances}
    planted = [v for i, v in ms.items() if mode[i] == "planted-yes"]
    random_ = [v for i, v in ms.items() if mode[i] == "random"]
    times = list(ms.values())
    batch_s = [t * REF_MS / ref for t, ref in zip(setup["batch_s"], setup["batch_ref_ms"])]
    batches = len(batch_s)
    return {
        "decide_per_s": (len(times) / (sum(times) / 1e3) if times else 0.0, len(times)),
        "planted_ms_p50": (p50(planted), len(planted)),
        "random_ms_p50": (p50(random_), len(random_)),
        "verdict_ms_p90": (p90(times), len(times)),
        "setup_s": (batches * p50(batch_s) + timed["warmup_s"] * REF_MS / timed["warmup_ref_ms"], batches),
        "peak_rss_mb": (timed["peak_rss_mb"], 1),
    }


def span_table(spans: list[list]) -> dict[str, dict]:
    """Per span name: per-instance durations and self times, in ms."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table: dict[str, dict] = {}
    for idx, (name, start, end, _, inst, _) in enumerate(spans):
        row = table.setdefault(name, {"ms": {}, "self_ms": 0.0})
        row["ms"][inst] = row["ms"].get(inst, 0.0) + (end - start) / 1e6
        row["self_ms"] += (end - start - child_ns[idx]) / 1e6
    return table


COUNTERS = (
    "kernel.anchors",
    "undirected.roots_tried",
    "undirected.attempts",
    "undirected.nodes_opened",
    "undirected.branches_examined",
    "directed.roots_tried",
    "directed.roots_reachable",
    "directed.subsets_examined",
    "directed.plans_examined",
    "directed.arborescence_hits",
)
RATIOS = {
    "directed.hit_ratio": ("directed.arborescence_hits", "directed.plans_examined"),
    "directed.reachable_ratio": ("directed.roots_reachable", "directed.roots_tried"),
}


def per_layer(setup: dict, plain: dict, traced: dict) -> dict[str, tuple]:
    spans = traced["spans"]
    table = span_table(spans)

    def per_inst(name: str) -> dict[int, float]:
        return table.get(name, {"ms": {}})["ms"]

    def timing(metric: str, values: list[float]) -> dict[str, tuple]:
        return {
            metric + ".p50": (p50(values), len(values), "ms"),
            metric + ".total": (sum(values), len(values), "ms"),
        }

    out: dict[str, tuple] = {}
    for span_name, metric in LAYER_SPANS.items():
        out.update(timing(metric, list(per_inst(span_name).values())))

    counts: dict[str, list] = {}
    for name, *_, c in spans:
        for key, value in (c or {}).items():
            counts.setdefault(f"{name.split('.')[0]}.{key}", []).append(value)

    def total(key):
        values = counts.get(key, [])
        return (None if None in values else sum(values)), len(values)

    for key in COUNTERS:
        out[key] = (*total(key), "count")
    for key, (num, den) in RATIOS.items():
        (a, _), (b, samples) = total(num), total(den)
        out[key] = (None if a is None or b is None else (a / b if b else 0.0), samples, "ratio")

    # derived, not measured: solve time minus the kernel and certifier probes
    est = [
        ms - per_inst("kernel.contract").get(inst, 0.0) - per_inst(f"{layer}.certify").get(inst, 0.0)
        for layer in ("undirected", "directed")
        for inst, ms in per_inst(f"{layer}.solve").items()
    ]
    out.update(timing("search.est_ms", est))
    out.update(timing("generate.gen_ms", setup["gen_ms"]))
    out["generate.peak_rss_mb"] = (setup["peak_rss_mb"], 1, "MB")
    out.update(timing("oracle.ms", setup["oracle_ms"]))
    decide = table.get("decide", {"ms": {}, "self_ms": 0.0})
    out["decide.self_ms.total"] = (decide["self_ms"], len(decide["ms"]), "ms")

    untraced, traced_ms = instance_ms(plain), instance_ms(traced)
    both = [i for i in traced_ms if i in untraced]
    ratio = sum(traced_ms[i] for i in both) / sum(untraced[i] for i in both) if both else 0.0
    out["trace.overhead_ratio"] = (ratio, len(both), "ratio")
    return out


def print_table(rows: dict[str, tuple]) -> None:
    print(f"{'metric':32} {'value':>14} {'unit':6} samples")
    for name, (value, samples, unit) in rows.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:32} {shown:>14} {unit:6} {samples}")


def print_spans(spans: list[list]) -> None:
    table = span_table(spans)
    print(f"{'span':24} {'instances':>9} {'total_ms':>12} {'self_ms':>12} {'p50_ms':>10}")
    for name, row in sorted(table.items()):
        ms = list(row["ms"].values())
        print(f"{name:24} {len(ms):9} {sum(ms):12.3f} {row['self_ms']:12.3f} {p50(ms):10.4f}")


def write_trace(workload: str, seed: int, spans: list[list]) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    keys = ("name", "start_ns", "end_ns", "parent", "instance", "counts")
    path.write_text(json.dumps([dict(zip(keys, s)) for s in spans]))
    return path


def failures(timed: dict) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    lines = []
    for r in timed["results"]:
        attempted += len(r["times_ns"]) + len(r["fail"])
        failed += len(r["fail"])
        lines.extend(f"instance {r['id']}: {reason}" for reason in r["fail"])
    return attempted, failed, lines


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns everything the report and the pins need."""
    t_start = time.perf_counter()
    setup = child("inputs.py", [workload, str(seed)], None, SETUP_LIMIT_S)
    problems = apply_expectations(workload, seed, setup)
    instances = setup["instances"]

    def worker(budget_seconds: float, traced: bool) -> dict:
        left = RUN_LIMIT_S - (time.perf_counter() - t_start)
        request = {
            "instances": instances,
            "seconds": budget_seconds,
            "budget_s": left - 10,
            "limit_s": INSTANCE_LIMIT_S,
            "trace": traced,
        }
        return child("decide.py", [], request, left)

    plain = worker(seconds / 2 if trace else seconds, False)
    traced = worker(0, True) if trace else None
    return {"setup": setup, "problems": problems, "plain": plain, "traced": traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stiso" / "__init__.py").is_file():
        print(f"error: no stiso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    setup, plain, traced = run["setup"], run["plain"], run["traced"]
    attempted, failed, fail_lines = failures(plain)
    if traced is not None:
        a2, f2, l2 = failures(traced)
        attempted, failed, fail_lines = attempted + a2, failed + f2, fail_lines + l2
    instances = setup["instances"]
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"inputs: {len(instances)} instances, sha256 {setup['sha256']}")
    pinned = sum(1 for i in instances if i.get("expect_from") == "pinned verdict")
    print(f"expected answers: {sum(1 for i in instances if i['expect'])} known, {pinned} from pins")
    print(f"timed passes (untraced): {plain['passes']}; attempted {attempted}, failed {failed}")
    refs = [ns / 1e6 for r in plain["results"] for ns in r["ref_ns"]]
    print(f"reference task: median {p50(refs):.4f} ms over {len(refs)} readings; "
          f"verdict times are scaled by {REF_MS} ms / reading")
    for line in run["problems"] + fail_lines:
        print(f"FAIL {line}", file=sys.stderr)

    if traced is not None:
        rows = per_layer(setup, plain, traced)
        print_spans(traced["spans"])
        print(f"trace written to {write_trace(args.workload, args.seed, traced['spans'])}")
    else:
        rows = {k: (v, n, E2E_UNITS[k]) for k, (v, n) in end_to_end(instances, setup, plain).items()}
        rows["fail_ratio"] = (failed / attempted if attempted else 0.0, attempted, "ratio")
    print_table(rows)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, _, unit) in rows.items()
        if name != "fail_ratio"
    }
    result = {
        "correct": failed == 0 and not run["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
