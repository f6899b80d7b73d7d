"""A fixed pure-Python kernel that measures how fast the machine runs right now.

Shared virtual machines change speed by 10-20% within seconds as their
neighbours come and go.  Every PERIOD_NS of workload time the workloads
run this kernel twice between two operations and keep the faster run (the
first may find cold caches, after a CLI spawn say).  Times are scaled by
(NOMINAL_NS / median kept kernel time) ** EXPONENT, throughputs by its
inverse.  NOMINAL_NS is about what the kernel took on one vCPU (Intel Xeon,
2.1 GHz) of a shared 2-vCPU virtual machine, so scaled figures stay close
to raw ones there.

The kernel does not track every change of speed one to one: when that
machine turned 1.75 times faster for minutes, the kernel sped up by 1.75
but the workloads by only 1.2-1.4.  Scaling by the square root was the
steadiest choice over three sets of ten runs per workload: the worst
quartile spread of the submit median was 0.11 with it, 0.34 with full
scaling and 0.30 unscaled.  The kernel uses no
intentd code, so a change to intentd cannot change it.  It mixes
allocation, dict and tuple work, attribute reads, sorting and scattered
reads over a few megabytes, as intentd's operations do.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

NOMINAL_NS = 450_000
EXPONENT = 0.5
PERIOD_NS = 10_000_000  # workload time between two probes


@dataclass(frozen=True)
class _Item:
    key: int
    tag: tuple


_HEAP = [_Item(i, (i, str(i))) for i in range(50_000)]


def probe() -> int:
    """The faster of two kernel runs, in ns."""
    return min(kernel(), kernel())


def kernel() -> int:
    """Run the kernel once; returns its duration in ns."""
    start = time.perf_counter_ns()
    table = {}
    for i in range(300):
        item = _Item(i, ("x", i))
        table[(i, item.tag)] = item
    total = 0
    for j in range(0, 50_000, 97):
        total += _HEAP[(j * 7919) % 50_000].key
    sorted(table.values(), key=lambda item: -item.key)
    return time.perf_counter_ns() - start
