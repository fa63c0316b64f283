"""Record the pinned inputs digest and random-mode verdicts for a seed range.

    python3 perfbench/make_pins.py 0 11 [workload ...]

For every workload and seed this runs the set-up and one pass of the
solvers, refuses to record anything if a verdict fails its
check, and writes ``pins.json``: the SHA-256 of the serialized inputs and,
for the scale workloads (which have no oracle), the answers on the
random-mode instances as a string of ``Y``/``N``.  Later runs with a pinned
seed count a differing verdict as a failure and a differing digest as
incomparable inputs.  Run it only at a commit whose verdicts are trusted.
"""

from __future__ import annotations

import json
import sys

from run import PINS, WORKLOADS, failures, measure


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    for workload in argv[2:] or WORKLOADS:
        spec = WORKLOADS[workload]
        for seed in range(first, last + 1):
            _store(workload, seed, None)  # the old pin must not judge the run that replaces it
            run = measure(workload, seed, 0, False)
            _, failed, lines = failures(run["plain"])
            if failed or run["problems"]:
                print("\n".join(run["problems"] + lines), file=sys.stderr)
                return 1
            entry = {"sha256": run["setup"]["sha256"]}
            if not spec.oracle:
                answers = {r["id"]: r["answer"] for r in run["plain"]["results"]}
                entry["random"] = "".join(
                    answers[i["id"]][0]
                    for i in run["setup"]["instances"]
                    if i["mode"] == "random"
                )
            print(f"{workload} seed {seed}: {entry}", flush=True)
            _store(workload, seed, entry)
    return 0


def _store(workload: str, seed: int, entry: dict | None) -> None:
    """Set (or with ``None`` drop) one pin in ``pins.json``."""
    pins = json.loads(PINS.read_text())  # re-read: another workload may be recording
    if entry is None:
        pins.get(workload, {}).pop(str(seed), None)
    else:
        pins.setdefault(workload, {})[str(seed)] = entry
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
