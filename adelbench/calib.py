"""Reference work for cancelling host CPU-speed drift.

On a shared host the speed of one core drifts by up to 2x over seconds to
minutes, and every Python workload slows together.  The harness times a
fixed quantum of pure-Python work (``quantum``) before and after every
operation and rescales the operation's wall time to the reference speed at
which one quantum takes ``REFERENCE_S`` seconds.  The quantum uses no
``adelcat`` code, so a change to the program cannot change it; it mixes
object allocation, dict and tuple traffic and integer row operations,
which is what ``adelcat`` spends its time on, so it slows by the same
factor as the workloads do.
"""

from __future__ import annotations

import time

# Time of one quantum at the reference speed.  Fixed once; changing it
# rescales every reported time and breaks comparison with earlier runs.
REFERENCE_S = 0.001


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _work() -> int:
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(10)] for i in range(10)]
    for r in range(10):
        piv = rows[r][r] or 1
        for i in range(r + 1, 10):
            q = rows[i][r] // piv
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
    table: dict = {}
    for i in range(360):
        key = (i % 97, i % 13, "k")
        table[key] = _Cell(key, tuple(range(i % 9)))
        _ = [c.value for c in list(table.values())[:4]]
    return len(table) + rows[9][9]


def quantum() -> float:
    """Run one quantum of reference work; returns its wall time in seconds."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


WARM_UP_QUANTA = 20


def warm_up():
    """Settle caches and the allocator before the first measured quantum."""
    for _ in range(WARM_UP_QUANTA):
        quantum()
