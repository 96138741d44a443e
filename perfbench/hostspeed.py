"""Host-speed probe: scales wall times to a reference host speed.

On a shared host the speed one process gets drifts by tens of percent over
minutes as other tenants load the same physical cores, and the guest sees
no steal time for it.  That drift, not the program, set most of the spread
between runs of the same code.  So the benchmark runs a fixed pure-Python
probe between ops and scales a run's wall times by

    (REF_PROBE_S / median probe time) ** EXPONENT

The probe never calls ssbve and runs with the collector off, so a change to
the program cannot move it; only the host's speed can.  A program that gets
slower reads slower by the same share after scaling.

EXPONENT is the measured slope of log(op time) against log(probe time) on
a 2-vCPU x86-64 VM while its speed drifted: 0.5 to 0.85 over the workloads,
and 0.6 gave the smallest spread between runs on each (see README.md).  The
probe's tight loop is slowed more by co-tenants than the solvers are, so
dividing by the probe time outright would overcorrect.
"""

from __future__ import annotations

import gc
import statistics
import time

# Probe seconds at the reference speed: a round figure near the probe's time
# on that VM when it ran fastest.  It only sets the scale of reported times.
REF_PROBE_S = 0.010
EXPONENT = 0.6


def _probe_once() -> float:
    """Seconds for integer arithmetic, dict and list updates, a sort and a
    set: the interpreter work the ssbve solvers are made of."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        values = []
        x = 12345
        for _ in range(20_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            counts[x & 4095] = counts.get(x & 4095, 0) + 1
            values.append(x % 1000)
        values.sort()
        set(values)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reading() -> float:
    """One probe reading: the faster of two back-to-back probes, so that a
    single interrupt does not read as a slow host."""
    return min(_probe_once(), _probe_once())


def factor(readings: list[float]) -> float:
    """Multiplier from wall seconds measured alongside `readings` to seconds
    at the reference speed."""
    return (REF_PROBE_S / statistics.median(readings)) ** EXPONENT
