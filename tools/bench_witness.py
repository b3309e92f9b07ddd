"""Witness harness: synthesis, rewrite and check on the benchmark's pairs.

    PYTHONPATH=src python tools/bench_witness.py --label after

The pairs are the 12 of ``perfbench/workloads.py`` (``PAIRS``), whose
trace inputs its ``setup`` writes into a temporary directory.  Each of
``REPEATS`` (11) repeats runs every pair at each horizon h of ``HORIZONS``
through eleven phases, each on descriptors parsed fresh before the phase
starts, as a command-line call would:

  * descriptors: ``parse_set`` of the pair's two descriptor texts, trace
    texts read and hashed for the key of their kept parse;
  * synth-g-from-h: ``synth_reduction_from_h`` under the identity bound;
  * synth-h: ``synth_h_from_reduction`` of that table;
  * surjectivize: ``surjectivize`` of that table;
  * check: ``check_reduction_prefix`` of that table;
  * synth-p: ``synth_p_from_reduction`` of that table at the step budget
    ``x.cum_cost(h)``;
  * from-p: ``synth_reduction_from_p`` of that step-rate table;
  * verify-p: ``verify_claim`` of that step-rate table at h;
  * lattice: ``equilibrium_points`` under the step convention, and
    ``diamond_evidence_q`` under the identity with the domination
    certificate of the pair;
  * serialize: ``serialize_witness`` of the synth-g table and of its
    synth-h table;
  * parse: ``parse_witness`` of those two texts.

It reports each phase's median wall time over the repeats, and the median
in reference seconds (each phase scaled by the machine-speed probe of
``perfbench/speed.py``, which runs before every phase and after the last,
as ``tools/bench_compile.py`` scales its jobs), next to deterministic
counters from one extra, untimed pass: ``PrSet._ensure``
entries, ``PrSet.bit`` and ``PrSet.cum_cost`` calls, memo bits grown, split
by the generator that grew them (``tools/harness.py``), calls of the
per-row witness reader ``_parse_rows`` (``fallbacks``), and the reads
made one Python call per point: ``pattern_point_reads``, the per-point
step counts of a pattern set (``_Pattern._zeros_below``, or
``_Pattern.zeros_by_steps`` in a source without steps columns), and
``program_point_reads``, the ``value`` calls of each program class; and
the parses behind the descriptor caches, ``trace_parses`` and
``pattern_builds``, each pass on caches that start empty
(``harness.counting_parses``); and ``least_pair_scans``, the
``check_reduction_prefix`` calls that reach the definitional rescan for
the least violating pair, which no table of these phases should.  The two
text phases also count table rows and text bytes.  The result is stored
under ``--label`` in ``BENCH_witness.json`` at the root of the checkout,
keeping the other labels there, so that two commits can be compared by
running this file against each one's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import statistics
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import harness  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402  (the pairs and the inputs they read)

from punctual import lattice, pr_lang, reductions, sets  # noqa: E402

HORIZONS = (200, 600, 1000)
REPEATS = 11
IDENTITY = W.IDENTITY
PROGRAMS = (pr_lang.NativeProgram, pr_lang.TableProgram, pr_lang.TermProgram)
# the per-point step count of a pattern: a column's sparse case, or every
# point in a source without steps columns
PATTERN_POINT = "_zeros_below" if "_zeros_below" in vars(sets._Pattern) else "zeros_by_steps"
CALLS = {"bit_calls": (sets.PrSet, "bit"), "cum_cost_calls": (sets.PrSet, "cum_cost"),
         "fallbacks": (reductions, "_parse_rows"),
         "pattern_point_reads": (sets._Pattern, PATTERN_POINT),
         **{prog.__name__: (prog, "value") for prog in PROGRAMS}}
# the counters of each phase, in the order they are stored
COUNTERS = ("ensure_entries", "bit_calls", "cum_cost_calls", "memo_bits", "pattern_fill_bits",
            "operand_fill_bits", "fallbacks", "pattern_point_reads", "per_bit_bits",
            "trace_parses", "pattern_builds", "least_pair_scans")


@contextlib.contextmanager
def counting_rescans(counts: dict):
    """Count into ``counts["least_pair_scans"]`` the check_reduction_prefix
    calls that reach the least-pair rescan.  The phases read set relations
    only, whose ``related`` nothing but that rescan calls, so a check counts
    when ``SetRelation.related`` runs inside it; the count needs no hook in
    the source, so it reads alike on every commit."""
    counts.setdefault("least_pair_scans", 0)
    open_checks = []

    def check(original):
        def call(*args, **kwargs):
            open_checks.append(0)
            try:
                return original(*args, **kwargs)
            finally:
                counts["least_pair_scans"] += open_checks.pop()
        return call

    def related(original):
        def call(self, a, b):
            if open_checks:
                open_checks[-1] = 1
            return original(self, a, b)
        return call

    with harness.patched([((reductions, "check_reduction_prefix"), check),
                          ((sets.SetRelation, "related"), related)]):
        yield counts


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
    """One pair and horizon's inputs: its descriptor texts, its synth-g
    table, that table and its synth-h table as witnesses, their texts, its
    synth-p witness and its domination certificate."""
    descs: tuple
    table: list
    witnesses: list
    texts: list
    p: reductions.ReductionWitness
    cert: reductions.ReductionWitness


# each phase's function of one (x, y, horizon, Item)
PHASES = {
    "descriptors": lambda x, y, h, it: [sets.parse_set(d) for d in it.descs],
    "synth-g-from-h": lambda x, y, h, it: reductions.synth_reduction_from_h(x, y, IDENTITY, h),
    "synth-h": lambda x, y, h, it: reductions.synth_h_from_reduction(it.table, x, y, h),
    "surjectivize": lambda x, y, h, it: reductions.surjectivize(it.table, x, y, h),
    "check": lambda x, y, h, it: reductions.check_reduction_prefix(
        it.table, sets.SetRelation(x), sets.SetRelation(y), h),
    "synth-p": lambda x, y, h, it: reductions.synth_p_from_reduction(
        it.table, x, y, x.cum_cost(h)),
    "from-p": lambda x, y, h, it: reductions.synth_reduction_from_p(x, y, it.p, h),
    "verify-p": lambda x, y, h, it: reductions.verify_claim(it.p, x, y, h),
    "lattice": lambda x, y, h, it: (lattice.equilibrium_points(x, y, h, "steps"),
                                    lattice.diamond_evidence_q(x, y, IDENTITY, h, 1, it.cert)),
    "serialize": lambda x, y, h, it: list(map(reductions.serialize_witness, it.witnesses)),
    "parse": lambda x, y, h, it: list(map(reductions.parse_witness, it.texts)),
}
TEXT_PHASES = ("serialize", "parse")


def one_pass(items: list) -> tuple:
    """Wall time of each phase over every pair and horizon, and the same
    in reference seconds."""
    walls, probes = {}, []
    for name, fn in PHASES.items():
        pairs = fresh_pairs()
        probes.append(speed.probe())
        start = time.perf_counter()
        for (x, y), h, item in zip(pairs, horizons(), items):
            fn(x, y, h, item)
        walls[name] = time.perf_counter() - start
    probes.append(speed.probe())
    return walls, dict(zip(walls, speed.scaled(walls.values(), probes)))


def counted_pass(items: list) -> dict:
    """Memo work of each phase: _ensure entries, bit and cum_cost calls,
    memo growth by generator, per-row reader calls, per-point pattern and
    program reads, trace parses, pattern builds and least-pair rescans;
    rows and text bytes of the text phases."""
    out = {}
    for name, fn in PHASES.items():
        pairs, counts = fresh_pairs(), {}
        with harness.counting(counts, CALLS), harness.counting_parses(counts), \
                counting_rescans(counts):
            for (x, y), h, item in zip(pairs, horizons(), items):
                fn(x, y, h, item)
        counts = harness.with_per_bit(counts)
        out[name] = {key: counts[key] for key in COUNTERS}
        out[name]["program_point_reads"] = {p.__name__: counts[p.__name__] for p in PROGRAMS}
        if name in TEXT_PHASES:
            out[name].update(
                rows=sum(w.horizon + 1 for item in items for w in item.witnesses),
                text_bytes=sum(map(len, (text for item in items for text in item.texts))))
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
            descs = [pair for pair in W.PAIRS for _ in HORIZONS]
            for (x, y), h, pair in zip(fresh_pairs(), horizons(), descs):
                t = list(reductions.synth_reduction_from_h(x, y, IDENTITY, h).program.values)
                ws = witnesses(x, y, h, t)
                p = reductions.synth_p_from_reduction(t, x, y, x.cum_cost(h))
                cert = reductions.domination_certificate(x, y, h)
                items.append(Item(pair, t, ws, [reductions.serialize_witness(w) for w in ws],
                                  p, cert))
            counters = counted_pass(items)
            runs = [one_pass(items) for _ in range(REPEATS)]
        finally:
            os.chdir(here)
    result = {
        "phases": {name: {"median_s": round(statistics.median(w[name] for w, _ in runs), 4),
                          "median_ref_s": round(statistics.median(r[name] for _, r in runs), 4),
                          **counters[name]}
                   for name in counters},
        "total_median_s": round(statistics.median(sum(w.values()) for w, _ in runs), 4),
        "total_median_ref_s": round(statistics.median(sum(r.values()) for _, r in runs), 4),
        "repeats": REPEATS,
        "pairs": len(W.PAIRS),
        "horizons": list(HORIZONS),
    }
    harness.store("witness", args.label, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
