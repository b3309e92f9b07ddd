"""Machine-speed probe: times are reported in reference seconds.

The sandbox this benchmark was built on shares its cores with other
tenants, and its speed drifts: a fixed pure-Python loop ran anywhere from
0.84 to 1.44 times its median speed in 5-second blocks, and job-list runs
of identical code differed by 30%.  That drift is far wider than any bound
worth setting, and longer runs do not average it out.

So a short probe that does not touch punctual runs before every job (and
once after the last), and each job's time is scaled by ``P_REF / p``,
where ``p`` is the median of the nearby probes.  A slower machine slows
the probe and the job alike; a slower program slows only the job.  The
probe mixes an interpreter-bound and a memory-bound loop, because the
slow phases hurt memory-heavy jobs more.  On that sandbox this cut the
spread of 10-second blocks of the same construction jobs from 14% to 5%
(interquartile range over median).

``P_REF`` is a fixed constant, close to the probe's median time there, so
reported values stay near wall-clock seconds.  It is never re-measured:
changing it rescales every time the benchmark reports.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

P_REF = 0.001
WINDOW = 4          # probes on each side of a job that its scale uses

_TABLE = list(range(150_000))
_WALK = [(i * 7919) % 150_000 for i in range(6000)]


def _loop():
    """Interpreter-bound: arithmetic and a small dict."""
    s = 0
    d = {}
    for i in range(8000):
        s += i * i % 7
        d[i & 1023] = s
    return s


def _walk():
    """Memory-bound: scattered reads of a large list, then small tuples."""
    s = 0
    table = _TABLE
    for i in _WALK:
        s += table[i]
    return s + len([(i, i) for i in range(3000)])


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def probe() -> float:
    """Seconds one probe takes now: the geometric mean of the two loops,
    run with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return math.sqrt(_timed(_loop) * _timed(_walk))
    finally:
        if enabled:
            gc.enable()


def scaled(durations, probes):
    """Reference-second times of jobs.  probes[i] ran just before job i and
    one more probe ran after the last job; each job is scaled by the median
    of the probes within ``WINDOW`` of it."""
    out = []
    for i, d in enumerate(durations):
        p = statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 1])
        out.append(d * P_REF / p)
    return out
