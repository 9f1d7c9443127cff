"""Fixed pure-Python reference kernel.

The kernel mixes the kinds of work the belyi pipeline does: exact
``Fraction`` sums, big-integer products, cycle walks over a permutation,
a breadth-first search and a JSON round trip.  Its inputs are fixed, so
every call does the same work; its running time therefore tracks the
speed of the interpreter on this core at that moment.  The benchmark
scales each timed segment by ``NOMINAL_S / current kernel time`` and so
reports times in reference seconds, which drift much less than wall time.

This module must import nothing from ``belyi``: a change to the program
must never change the yardstick it is measured with.
"""

from __future__ import annotations

import gc
import json
import time
from collections import deque
from fractions import Fraction

# Reference seconds are defined by this constant: one kernel call takes
# NOMINAL_S reference seconds.  It is close to the kernel's wall time on a
# 2-core Intel Xeon KVM guest under CPython 3.11, so scaled and raw figures
# are of the same size there.
NOMINAL_S = 0.004

_N = 1500
# a fixed permutation of 0.._N-1 with a handful of long cycles
_PERM = [(7 * i + 3) % _N for i in range(_N)]
# a fixed sparse graph: a ring with chords
_ADJ = [((i + 1) % _N, (i - 1) % _N, (i * 37 + 11) % _N) for i in range(_N)]
_DOC = {
    "rows": [
        {"id": i, "num": [str(i * j - 7) for j in range(8)], "tag": f"r{i}"}
        for i in range(100)
    ]
}
# checksum of one kernel call; a change to the kernel changes it, and with
# it the meaning of a reference second
EXPECTED = 190855


def kernel() -> int:
    """One fixed unit of reference work; returns a checksum of it."""
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction((-1) ** i * i, i * i + 3)
        acc = acc * Fraction(i + 1, i + 2)
    big = 1
    for i in range(1, 750):
        big = big * (2 * i + 1) + i
    big %= (1 << 521) - 1
    cycles = 0
    for _ in range(3):
        seen = [False] * _N
        for start in range(_N):
            if seen[start]:
                continue
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = _PERM[j]
    dist = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in _ADJ[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    doc = json.loads(json.dumps(_DOC, separators=(",", ":")))
    return (
        acc.numerator % 1000003
        + big % 1000003
        + cycles
        + max(dist.values())
        + len(doc["rows"][-1]["num"])
    )


def timed_kernel() -> float:
    """Wall seconds of one kernel call; checks that it did its fixed work.

    The collector is paused for the call: otherwise the kernel's allocations
    would trigger collections whose cost grows with the caller's heap, and
    the yardstick would measure the workload's heap instead of the core.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        check = kernel()
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if check != EXPECTED:
        raise RuntimeError(f"reference kernel checksum {check} != {EXPECTED}")
    return dt

