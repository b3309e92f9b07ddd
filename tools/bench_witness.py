"""Witness harness: synthesis, rewrite and check on the benchmark's pairs.

    PYTHONPATH=src python tools/bench_witness.py --label after

The pairs are the 12 of ``perfbench/workloads.py`` (``PAIRS``), whose
trace inputs its ``setup`` writes into a temporary directory.  Each of
``REPEATS`` (11) repeats runs every pair at each horizon h of ``HORIZONS``
through eight phases, each on descriptors parsed fresh before the phase
starts, as a command-line call would:

  * synth-g-from-h: ``synth_reduction_from_h`` under the identity bound;
  * synth-h: ``synth_h_from_reduction`` of that table;
  * surjectivize: ``surjectivize`` of that table;
  * check: ``check_reduction_prefix`` of that table;
  * synth-p: ``synth_p_from_reduction`` of that table at the step budget
    ``x.cum_cost(h)``;
  * from-p: ``synth_reduction_from_p`` of that step-rate table;
  * serialize: ``serialize_witness`` of the synth-g table and of its
    synth-h table;
  * parse: ``parse_witness`` of those two texts.

It reports each phase's median wall time over the repeats next to
deterministic counters from one extra, untimed pass: ``PrSet._ensure``
entries, ``PrSet.bit`` and ``PrSet.cum_cost`` calls, memo bits grown, split
by the generator that grew them (``memo_split.py``), and calls of the
per-row witness reader ``_parse_rows`` (``fallbacks``); the two text
phases also count table rows and text bytes.  The result is stored under
``--label`` in ``BENCH_witness.json`` at the root of the checkout, keeping
the other labels there, so that two commits can be compared by running
this file against each one's ``src``.
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
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import memo_split  # noqa: E402
import workloads as W  # noqa: E402  (the pairs and the inputs they read)

from punctual import pr_lang, reductions, sets  # noqa: E402

HORIZONS = (200, 600, 1000)
REPEATS = 11
IDENTITY = W.IDENTITY


def fresh_pairs() -> list:
    return [[sets.parse_set(d) for d in pair] for pair in W.PAIRS for _ in HORIZONS]


def horizons() -> list:
    return [h for _ in W.PAIRS for h in HORIZONS]


def witnesses(x, y, h, g) -> list:
    """The synth-g table g and its synth-h table as reduction witnesses."""
    gh = reductions.synth_h_from_reduction(g, x, y, h).program.values
    return [reductions.ReductionWitness(pr_lang.TableProgram(t), "reduction",
                                        x.name, y.name, h) for t in (g, gh)]


class Item(NamedTuple):
    """One pair and horizon's inputs: its synth-g table, that table and its
    synth-h table as witnesses, their texts, and its synth-p witness."""
    table: list
    witnesses: list
    texts: list
    p: reductions.ReductionWitness


# each phase's function of one (x, y, horizon, Item)
PHASES = {
    "synth-g-from-h": lambda x, y, h, it: reductions.synth_reduction_from_h(x, y, IDENTITY, h),
    "synth-h": lambda x, y, h, it: reductions.synth_h_from_reduction(it.table, x, y, h),
    "surjectivize": lambda x, y, h, it: reductions.surjectivize(it.table, x, y, h),
    "check": lambda x, y, h, it: reductions.check_reduction_prefix(
        it.table, sets.SetRelation(x), sets.SetRelation(y), h),
    "synth-p": lambda x, y, h, it: reductions.synth_p_from_reduction(
        it.table, x, y, x.cum_cost(h)),
    "from-p": lambda x, y, h, it: reductions.synth_reduction_from_p(x, y, it.p, h),
    "serialize": lambda x, y, h, it: list(map(reductions.serialize_witness, it.witnesses)),
    "parse": lambda x, y, h, it: list(map(reductions.parse_witness, it.texts)),
}
TEXT_PHASES = ("serialize", "parse")


def one_pass(items: list) -> dict:
    """Wall time of each phase over every pair and horizon."""
    walls = {}
    for name, fn in PHASES.items():
        pairs = fresh_pairs()
        start = time.perf_counter()
        for (x, y), h, item in zip(pairs, horizons(), items):
            fn(x, y, h, item)
        walls[name] = time.perf_counter() - start
    return walls


def counted_pass(items: list) -> dict:
    """Memo work of each phase: _ensure entries, bit and cum_cost calls,
    memo growth by generator, per-row reader calls; rows and text bytes of
    the text phases."""
    cls = sets.PrSet
    ensure, bit, cum_cost, parse_rows = cls._ensure, cls.bit, cls.cum_cost, reductions._parse_rows
    zero = dict(ensure_entries=0, bit_calls=0, cum_cost_calls=0, memo_bits=0,
                pattern_fill_bits=0, operand_fill_bits=0, fallbacks=0)
    counts = dict(zero)

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

    def counting_cum_cost(self, n):
        counts["cum_cost_calls"] += 1
        return cum_cost(self, n)

    def counting_parse_rows(*args):
        counts["fallbacks"] += 1
        return parse_rows(*args)

    out = {}
    cls._ensure, cls.bit, cls.cum_cost = counting_ensure, counting_bit, counting_cum_cost
    reductions._parse_rows = counting_parse_rows
    restore_fills = memo_split.count_fills(counts)
    try:
        for name, fn in PHASES.items():
            pairs = fresh_pairs()
            counts.update(zero)
            for (x, y), h, item in zip(pairs, horizons(), items):
                fn(x, y, h, item)
            out[name] = memo_split.with_per_bit(counts)
            if name in TEXT_PHASES:
                out[name].update(
                    rows=sum(w.horizon + 1 for item in items for w in item.witnesses),
                    text_bytes=sum(map(len, (text for item in items for text in item.texts))))
    finally:
        cls._ensure, cls.bit, cls.cum_cost = ensure, bit, cum_cost
        reductions._parse_rows = parse_rows
        restore_fills()
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
            items = []
            for (x, y), h in zip(fresh_pairs(), horizons()):
                t = list(reductions.synth_reduction_from_h(x, y, IDENTITY, h).program.values)
                ws = witnesses(x, y, h, t)
                p = reductions.synth_p_from_reduction(t, x, y, x.cum_cost(h))
                items.append(Item(t, ws, [reductions.serialize_witness(w) for w in ws], p))
            counters = counted_pass(items)
            runs = [one_pass(items) for _ in range(REPEATS)]
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
