"""How fast the host runs right now, from a fixed pure-Python routine.

On a shared virtual machine the speed of a vCPU changes from outside the
guest, by half or more, in spells of seconds to minutes. The benchmark runs
:func:`reference_s` just before and just after each piece of work it times,
on the same vCPU, and reports that work's time scaled by ``NOMINAL_S`` over
the mean of the two readings: seconds at the speed where the routine takes
``NOMINAL_S``.

The routine is an interpreter loop of integer multiply-adds and none of the
program's code, so a change to the program does not move it. Its time
tracks the program's: over 50 to 80 ``run_one`` calls per policy at
N=120, T=1M on the 2-vCPU host where the bounds were set, the log of the
call's time moved with the log of the routine's time with a slope of 0.87
to 1.15. Routines built on dicts, sorts or a large list moved with slopes
of 0.3 to 0.7, so scaling by them over-corrected. It uses builtins only, so
that timing it in a fresh interpreter before ``import nfplcache`` imports
nothing the package needs.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

# About the routine's time on that host when it runs fast.
NOMINAL_S = 1.2e-3
_ITERATIONS = 20_000
_REPEATS = 3


def _routine() -> int:
    total = 0
    for i in range(_ITERATIONS):
        total += i * i
    return total


def reference_s() -> float:
    """Fastest of a few runs of the routine, in seconds, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(_REPEATS):
            start = perf_counter_ns()
            _routine()
            took = perf_counter_ns() - start
            best = took if best is None else min(best, took)
    finally:
        if enabled:
            gc.enable()
    return best / 1e9
