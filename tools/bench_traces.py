"""Trace harness: build, write, parse and verify the golden trace cases.

    PYTHONPATH=src python tools/bench_traces.py --label after

Each of ``REPEATS`` (21) repeats runs four phases over the cases of
``tests/test_golden.py``: build (every construction, an exhausted run
keeping its partial trace), serialize (each built trace), parse
(``parse_trace`` of each written text) and verify (``verify_trace_file``
of each finished, replayable golden file).  It reports each phase's
median wall time over the repeats next to deterministic counters:
records, trace bytes, full (generation-2) garbage collections from
``gc.get_stats()`` over all repeats, and, from one extra, untimed pass,
each phase's ``PrSet._ensure`` entries and memo bits grown, split by the
generator that grew them (``tools/harness.py``), and its calls of
``PrSet.bit``, the per-bit input reads that stage machines reading memo
columns avoid.  The result is stored under
``--label`` in ``BENCH_traces.json`` at the root of the checkout, keeping
the other labels there, so that two commits can be compared by running
this file against each one's ``src``.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import harness  # noqa: E402
import test_golden as G  # noqa: E402  (the golden cases and how each is run)

from punctual import sets  # noqa: E402
from punctual.constructions import parse_trace, verify_trace_file  # noqa: E402

PHASES = ("build", "serialize", "parse", "verify")
REPEATS = 21


def one_pass(names: list, after_phase=lambda phase: None) -> tuple:
    """Wall time and full collections of each phase, and the counters;
    `after_phase` is called with each phase's name as it ends."""
    walls, full = {}, {}

    def run(phase, fn):
        gen2 = gc.get_stats()[2]["collections"]
        start = time.perf_counter()
        result = fn()
        walls[phase] = time.perf_counter() - start
        full[phase] = gc.get_stats()[2]["collections"] - gen2
        after_phase(phase)
        return result

    built = run("build", lambda: [trace for case in sorted(G.CASES)
                                  for trace, _ in G.traces(case).values()])
    texts = run("serialize", lambda: [trace.serialize() for trace in built])
    parsed = run("parse", lambda: [parse_trace(text) for text in texts])
    outcomes = run("verify", lambda: [verify_trace_file(os.path.join(G.GOLDEN, name))
                                      for name in names])
    if not all(ok for ok, _ in outcomes):
        raise SystemExit(f"a golden trace failed to verify: {outcomes}")
    counters = {"traces": len(built),
                "records": sum(len(trace.stages) for trace in parsed),
                "trace_bytes": sum(len(text.encode()) for text in texts),
                "verified": len(outcomes)}
    return walls, full, counters


def counted_pass(names: list) -> dict:
    """Memo work of each phase: _ensure entries and memo bits grown, by
    generator, and the per-bit calls of PrSet.bit."""
    out, counts = {}, {}

    def after_phase(phase):
        out[phase] = harness.with_per_bit(counts)
        counts.update(dict.fromkeys(counts, 0))

    with harness.counting(counts, {"bit_calls": (sets.PrSet, "bit")}):
        one_pass(names, after_phase)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="after")
    args = ap.parse_args()
    names = G._finished_and_replayable()
    runs = [one_pass(names) for _ in range(REPEATS)]
    memo = counted_pass(names)      # after the timed repeats, which it would warm
    counters = runs[0][2]
    if any(c != counters for _, _, c in runs):
        raise SystemExit("counters differ between repeats")
    result = {
        "phases": {p: {"median_s": round(statistics.median(w[p] for w, _, _ in runs), 4),
                       "gen2_collections": sum(f[p] for _, f, _ in runs), **memo[p]}
                   for p in PHASES},
        "total_median_s": round(statistics.median(sum(w.values()) for w, _, _ in runs), 4),
        "repeats": REPEATS,
        **counters,
    }
    harness.store("traces", args.label, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
