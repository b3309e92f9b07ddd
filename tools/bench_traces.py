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
generator that grew them (``memo_split.py``), and its calls of
``PrSet.bit`` and of ``_Output.emit``, the per-bit input reads and output
appends that stage machines reading memo columns avoid.  The result is stored under
``--label`` in ``BENCH_traces.json`` at the root of the checkout, keeping
the other labels there, so that two commits can be compared by running
this file against each one's ``src``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import memo_split  # noqa: E402
import test_golden as G  # noqa: E402  (the golden cases and how each is run)

from punctual import constructions, sets  # noqa: E402
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
    generator, and the per-bit calls of PrSet.bit and _Output.emit."""
    cls = sets.PrSet
    ensure = cls._ensure
    zero = dict(ensure_entries=0, memo_bits=0, pattern_fill_bits=0, operand_fill_bits=0,
                bit_calls=0, emit_calls=0)
    counts = dict(zero)
    calls = {"bit_calls": (cls, "bit"), "emit_calls": (constructions._Output, "emit")}
    saved = {key: getattr(owner, name) for key, (owner, name) in calls.items()}

    def counting(key):
        method = saved[key]

        def call(self, *args):
            counts[key] += 1
            return method(self, *args)
        return call

    def counting_ensure(self, *args, **kwargs):
        counts["ensure_entries"] += 1
        before = len(self._bits)
        try:
            return ensure(self, *args, **kwargs)
        finally:
            counts["memo_bits"] += len(self._bits) - before

    def after_phase(phase):
        out[phase] = memo_split.with_per_bit(counts)
        counts.update(zero)

    out = {}
    cls._ensure = counting_ensure
    for key, (owner, name) in calls.items():
        setattr(owner, name, counting(key))
    restore_fills = memo_split.count_fills(counts)
    try:
        one_pass(names, after_phase)
    finally:
        cls._ensure = ensure
        for key, (owner, name) in calls.items():
            setattr(owner, name, saved[key])
        restore_fills()
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
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
    }
    path = os.path.join(ROOT, "BENCH_traces.json")
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {"harness": "tools/bench_traces.py", "runs": {}}
    stored["runs"][args.label] = result
    with open(path, "w") as fh:
        json.dump(stored, fh, indent=2)
        fh.write("\n")
    json.dump({args.label: result}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
