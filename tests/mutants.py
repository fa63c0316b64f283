"""Mutation check: the tier-1 suite must kill each mutant of the soundness-critical code.

Each entry in :data:`MUTANTS` names a file under ``src/stiso``, an exact text
that occurs there once, the text that replaces it and why the change must be
caught.  For each entry the runner copies ``src``, ``tests`` and
``perfbench`` into a temporary directory, applies the entry there, runs the
tier-1 command with ``-x`` and reports the mutant killed, with the first
failing test, or survived.  It never writes under the checkout's ``src``.

Run from the repository root, for every mutant or the named ones::

    python tests/mutants.py [NAME ...]

It exits 1 if a mutant survives or its old text no longer occurs exactly
once, and 2 on an unknown name.  The file is not named ``test_*.py``, so tier-1 does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/stiso
    old: str
    new: str
    reason: str


MUTANTS = [
    Mutant(
        "room-test-le",
        "undirected.py",
        "if len(avail) < need:  # no room for tv's children",
        "if len(avail) <= need:  # no room for tv's children",
        "_place refuses a vertex with just enough free neighbours for its children, losing YES witnesses",
    ),
    Mutant(
        "looser-root-fits",
        "undirected.py",
        "if run > self.root_ids[prev]:",
        "if run > self.root_ids[prev] + 1:",
        "root_fits admits roots whose trim children outnumber the target root's by one id",
    ),
    Mutant(
        "weaker-degree-screen",
        "graphs.py",
        "        if run > 0:\n            return False",
        "        if run > 1:\n            return False",
        "degrees_cover forgives a deficit of one vertex, so the screens pass instances they must refuse",
    ),
    Mutant(
        "no-root-out-degree-test",
        "directed.py",
        "if degree_shift(out_deg, tails) != gap or out_deg[r] - tails.count(r) != root_out:",
        "if degree_shift(out_deg, tails) != gap:",
        "the directed search keeps plans whose root keeps the wrong out-degree",
    ),
    Mutant(
        "looser-anchor-rule",
        "oracle.py",
        "return cut[c] or pair is not None and (live[pair[0]] == 1 or live[pair[1]] == 1)",
        "return cut[c] or pair is not None and (live[pair[0]] == 1 and live[pair[1]] == 1)",
        "the oracle's walk takes subsets that cut an anchor's last non-loop chain",
    ),
    Mutant(
        "cover-prune-le",
        "oracle.py",
        "bad |= cover[x] < 0",
        "bad |= cover[x] <= 0",
        "the walk drops prefixes whose degrees can still reach the target's",
    ),
    Mutant(
        "last-edge-either-end",
        "oracle.py",
        "if (kept[tail_at[i]] == x and kept[head_at[i]] == y)\n"
        "                or (kept[tail_at[i]] == y and kept[head_at[i]] == x)",
        "if kept[tail_at[i]] in (x, y) or kept[head_at[i]] in (x, y)",
        "the last-edge test accepts an edge with one end at an excess degree: subsets that do not fit",
    ),
    Mutant(
        "profile-skips-neighbours",
        "oracle.py",
        "            touched.update([w for _, w in inc[v]])\n",
        "",
        "the profile test leaves the profiles of the deleted edges' neighbours unchanged",
    ),
]


def _first_failure(output: str) -> str:
    """The first test named in pytest's short summary as failed or in error."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no test named; see the pytest output)"


def run(mutant: Mutant) -> tuple[str, str, float]:
    """Apply ``mutant`` in a temporary copy and run tier-1 with ``-x`` there:
    ``("killed", first failing test, seconds)``, ``("survived", "", seconds)``
    or ``("stale", reason, 0)`` when its old text does not occur exactly once."""
    with tempfile.TemporaryDirectory(prefix="stiso-mutant-") as tmp:
        for name in COPIED:
            shutil.copytree(ROOT / name, Path(tmp) / name, ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / "src" / "stiso" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale", f"old text occurs {text.count(mutant.old)} times in {mutant.file}", 0.0
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src")
        start = time.perf_counter()
        res = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
    if res.returncode == 0:
        return "survived", "", seconds
    return "killed", _first_failure(res.stdout), seconds


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    bad = 0
    for m in chosen:
        status, detail, seconds = run(m)
        bad += status != "killed"
        print(f"{m.name}: {status} {detail} ({seconds:.1f} s)", flush=True)
    print(f"{len(chosen)} mutants, {bad} not killed, {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
