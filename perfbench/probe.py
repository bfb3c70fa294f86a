"""The machine probe: how fast the machine is at one moment.

The benchmark runs on shared machines whose speed drifts: on the 2-core
2.1 GHz Xeon VM it was sized on, the same work ran up to 1.5 times slower
for spells of a few seconds to a few minutes, while other tenants were
busy.  :func:`machine_probe` is a fixed pure-Python job, with none of
the program's code in it.  The workload process times it just before
and just after every execution, and :func:`speed_factor` turns those
readings into the factor that scales the execution's times to the
reference speed.
"""

from __future__ import annotations

import gc
import time
from typing import Sequence, Tuple

#: the probe's seconds on the reference machine: its fast state on the
#: 2.1 GHz Xeon VM the benchmark was sized on
REFERENCE_S = 0.007


class _Item:
    __slots__ = ("key", "rank")

    def __init__(self, key: Tuple[str, int], rank: int) -> None:
        self.key = key
        self.rank = rank


def machine_probe() -> float:
    """Seconds of a fixed, allocation-heavy pure-Python job (~12 ms), the
    least of three tries.

    The job builds, sorts and drops a dict of small objects: the kind of
    work the program does, so it slows down with the program when the
    machine's caches and memory are contended.  The least of several
    tries leaves out a try that an interrupt or a context switch happened
    to hit.  The garbage collector is off while it runs: a collection
    would walk the calling process's whole heap, and so time the
    program's memory instead of the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            table = {}
            for index in range(10_000):
                key = (f"n{index}", index & 255)
                table[key] = _Item(key, index)
            ranks = {item.key[1] for item in table.values()}
            order = sorted(table, key=lambda key: (key[1], key[0]))
            del table, ranks, order
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def speed_factor(readings: Sequence[float]) -> float:
    """The factor that scales times measured next to ``readings`` (probe
    seconds) to the reference speed: below 1 on a slow spell."""
    return REFERENCE_S * len(readings) / sum(readings)
