"""Host-speed probes: how much slower the machine runs right now.

On a shared machine other tenants slow every process down for seconds
at a time, by 1.5x and more.  The benchmark runs three short probes
between measured operations and scales each operation's wall time by
their slowdown against reference times, so host times are reported at
the speed of the reference machine; ``run.py`` prints the raw times and
the mean slowdown next to them.  The probes cover three ways neighbours
slow the simulator down: interpreter work (integer arithmetic), the
allocator (strings and a sort), and cache and memory latency (random
lookups in a dict larger than the L2 cache).  None of them touches
simulator code, none allocates objects the cyclic GC tracks (so they
do not move its next collection into the simulator's next op), and the
two whose speed depends on heap and cache state are warmed up before
they are timed.
"""

from __future__ import annotations

import math
import random
import time

#: Probe times (s) on the reference machine when quiet: a 2-vCPU Linux
#: container, CPython 3.11.  Host times are reported at this speed.
REFERENCE_S = (0.00310, 0.00300, 0.00291)

_KEYS = list(range(100_000))
random.Random(0).shuffle(_KEYS)
_TABLE = dict.fromkeys(_KEYS, 1)
_LOOKUPS = _KEYS[:60_000]


def _arith() -> int:
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return total


def _alloc() -> str:
    words = [str(i * 7919) for i in range(25_000)]
    words.sort()
    return "".join(words)


def _chase() -> int:
    table = _TABLE
    total = 0
    for key in _LOOKUPS:
        total += table[key]
    return total


def probe_times() -> tuple:
    """Seconds each probe takes right now.  The allocation and lookup
    probes run twice and the second run is timed: the first refills the
    allocator and the caches after the simulator's last op, so the
    timed run sees the machine, not what the simulator left behind."""
    times = []
    for probe, warm in ((_arith, False), (_alloc, True), (_chase, True)):
        if warm:
            probe()
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return tuple(times)


def slowdown() -> float:
    """The machine's current slowdown against the reference (1.0 = as
    fast as the reference; 1.5 = everything takes 1.5x as long): the
    geometric mean of the probes' slowdowns."""
    log_sum = sum(math.log(seconds / reference)
                  for seconds, reference in zip(probe_times(), REFERENCE_S))
    return math.exp(log_sum / len(REFERENCE_S))
