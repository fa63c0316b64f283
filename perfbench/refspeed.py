"""A fixed reference task that tracks how fast the host runs Python right now.

The benchmark's host is a shared vCPU whose speed swings by up to 40% within
seconds (NOTES.md, "Host-speed scaling").  Every reported time is
therefore scaled by ``REF_MS / t_ref``, where ``t_ref`` is this task's time
measured next to the timed work: a breadth-first search over a fixed random
graph, in pure Python, that allocates nothing while it runs.  It is the
benchmark's own code and never changes with the program under test, so a
change to the program moves the scaled times as much as the raw ones, while
a host slowdown moves the verdict and the reference alike and cancels out.
"""

from __future__ import annotations

import random
import statistics
import time

# The reference's median on a 2.1 GHz Intel Xeon vCPU (Python 3.11) in a
# fast phase, so that scaled times read about as milliseconds on that host.
REF_MS = 0.5

_N = 2000
_rng = random.Random(20251017)
_ADJ: list[list[int]] = [[] for _ in range(_N)]
for _v in range(1, _N):
    _u = _rng.randrange(_v)
    _ADJ[_u].append(_v)
    _ADJ[_v].append(_u)
for _ in range(_N):
    _u, _v = _rng.randrange(_N), _rng.randrange(_N)
    _ADJ[_u].append(_v)
    _ADJ[_v].append(_u)
_ZERO = bytes(_N)
_seen = bytearray(_N)
_queue = [0] * _N


def _bfs() -> int:
    seen, queue, adj = _seen, _queue, _ADJ
    seen[:] = _ZERO
    seen[0] = 1
    head, tail = 0, 1
    while head < tail:
        for y in adj[queue[head]]:
            if not seen[y]:
                seen[y] = 1
                queue[tail] = y
                tail += 1
        head += 1
    return tail


def reference_ns() -> int:
    """Fastest of three back-to-back runs of the reference task, in ns.

    The first run brings the task's data into the CPU caches, so the figure
    does not depend on what the timed program left in them.
    """
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        _bfs()
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def reference_ms() -> float:
    """Median of five readings of ``reference_ns``, in ms."""
    return statistics.median(reference_ns() for _ in range(5)) / 1e6
