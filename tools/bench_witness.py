"""Witness harness: synthesis, rewrite and check on the benchmark's pairs.

    PYTHONPATH=src python tools/bench_witness.py --label after

The pairs are the 12 of ``perfbench/workloads.py`` (``PAIRS``), whose
trace inputs its ``setup`` writes into a temporary directory.  Each of
``REPEATS`` (11) repeats runs every pair at each horizon of ``HORIZONS``
through four phases, each on descriptors parsed fresh before the phase
starts, as a command-line call would:

  * synth-g-from-h: ``synth_reduction_from_h`` under the identity bound;
  * synth-h: ``synth_h_from_reduction`` of that table;
  * surjectivize: ``surjectivize`` of that table;
  * check: ``check_reduction_prefix`` of that table.

It reports each phase's median wall time over the repeats next to
deterministic counters from one extra, untimed pass: ``PrSet._ensure``
entries, ``PrSet.bit`` calls and memo bits grown.  The result is stored
under ``--label`` in ``BENCH_witness.json`` at the root of the checkout,
keeping the other labels there, so that two commits can be compared by
running this file against each one's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads as W  # noqa: E402  (the pairs and the inputs they read)

from punctual import reductions, sets  # noqa: E402

HORIZONS = (200, 600, 1000)
REPEATS = 11
IDENTITY = W.IDENTITY


def fresh_pairs() -> list:
    return [[sets.parse_set(d) for d in pair] for pair in W.PAIRS for _ in HORIZONS]


def horizons() -> list:
    return [h for _ in W.PAIRS for h in HORIZONS]


# each phase's function of one (x, y, horizon, table)
PHASES = {
    "synth-g-from-h": lambda x, y, h, t: reductions.synth_reduction_from_h(x, y, IDENTITY, h),
    "synth-h": lambda x, y, h, t: reductions.synth_h_from_reduction(t, x, y, h),
    "surjectivize": lambda x, y, h, t: reductions.surjectivize(t, x, y, h),
    "check": lambda x, y, h, t: reductions.check_reduction_prefix(
        t, sets.SetRelation(x), sets.SetRelation(y), h),
}


def one_pass(tables: list) -> dict:
    """Wall time of each phase over every pair and horizon."""
    walls = {}
    for name, fn in PHASES.items():
        pairs = fresh_pairs()
        start = time.perf_counter()
        for (x, y), h, t in zip(pairs, horizons(), tables):
            fn(x, y, h, t)
        walls[name] = time.perf_counter() - start
    return walls


def counted_pass(tables: list) -> dict:
    """Memo work of each phase: _ensure entries, bit calls, memo growth."""
    cls = sets.PrSet
    ensure, bit = cls._ensure, cls.bit
    counts = dict(ensure_entries=0, bit_calls=0, memo_bits=0)

    def counting_ensure(self, *args, **kwargs):
        counts["ensure_entries"] += 1
        before = len(self._bits)
        try:
            return ensure(self, *args, **kwargs)
        finally:
            counts["memo_bits"] += len(self._bits) - before

    def counting_bit(self, n):
        counts["bit_calls"] += 1
        return bit(self, n)

    out = {}
    cls._ensure, cls.bit = counting_ensure, counting_bit
    try:
        for name, fn in PHASES.items():
            pairs = fresh_pairs()
            counts.update(ensure_entries=0, bit_calls=0, memo_bits=0)
            for (x, y), h, t in zip(pairs, horizons(), tables):
                fn(x, y, h, t)
            out[name] = dict(counts)
    finally:
        cls._ensure, cls.bit = ensure, bit
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="after")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        here = os.getcwd()
        os.chdir(workdir)           # set-up and the pairs name files relative to it
        try:
            W.setup(workdir)
            tables = [list(reductions.synth_reduction_from_h(x, y, IDENTITY, h).program.values)
                      for (x, y), h in zip(fresh_pairs(), horizons())]
            counters = counted_pass(tables)
            runs = [one_pass(tables) for _ in range(REPEATS)]
        finally:
            os.chdir(here)
    result = {
        "phases": {name: {"median_s": round(statistics.median(w[name] for w in runs), 4),
                          **counters[name]}
                   for name in counters},
        "total_median_s": round(statistics.median(sum(w.values()) for w in runs), 4),
        "repeats": REPEATS,
        "pairs": len(W.PAIRS),
        "horizons": list(HORIZONS),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
    }
    path = os.path.join(ROOT, "BENCH_witness.json")
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {"harness": "tools/bench_witness.py", "runs": {}}
    stored["runs"][args.label] = result
    with open(path, "w") as fh:
        json.dump(stored, fh, indent=2)
        fh.write("\n")
    json.dump({args.label: result}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
