"""Compile harness: the seed-1 ``term_eval`` job list, one kind at a time.

    PYTHONPATH=src python tools/bench_compile.py --label after

The lists are the ``conv`` jobs (clocked runs of the public unary
enumeration through ``converges_within``) and the ``tset`` jobs
(term-backed descriptor profiles) of the seed-1 ``term_eval`` list, as
``perfbench/run.py`` draws it at its default 25 seconds.  Each list runs
in ``REPEATS`` (11) fresh interpreters, so the compile caches start empty
as in one benchmark process, and every job's output is checked against
the benchmark's stored expectation.  The harness reports each list's
median wall time, and the median in reference seconds (each job scaled
by the machine-speed probe of ``perfbench/speed.py``, as the benchmark
scales it, since this machine's speed drifts between runs), next to
deterministic counters from one extra, untimed interpreter per list:

  * ``compile_calls``: builtin ``compile()`` calls made by ``pr_lang``,
    one per code shape where shapes are shared;
  * ``loop_functions``: generated functions other than an ``entry``,
    whether their code was compiled for them or shared;
  * ``source_bytes``: the length of the source texts actually compiled;
  * ``budget_checks``: the ``if c >= b`` lines in those texts, one per
    budget check a generated function writes;
  * ``visits``: evaluator visits, counted as ``perfbench/tracer.py``
    counts ``pr_lang.visits`` (a converged run's steps, else its budget),
    in calls of ``eval_clocked`` and ``eval_cost``;
  * ``term_visits``: the visits of the term runs behind the bits the
    list's term sets grew, which call the term's compiled entry directly
    and so pass neither function; ``visits + term_visits`` is the
    evaluator's work on a list, whichever way its term sets run;
  * ``ensure_entries``: calls of ``PrSet._ensure``, the descriptor memo's
    one way in, hits that return at once included;
  * ``arity_checks``: calls of ``pr_lang._node_arity``, one per term node
    checked, by the parser or at compile time;
  * ``period_detections``: calls of ``pr_lang._skip``, one per counter-free
    loop run that found its period by iterating;
  * ``orbit_replays``: calls of ``pr_lang._replay``, one per counter-free
    loop run finished along an orbit, each detection's own finish
    included (0 against a source that keeps no orbits);
  * ``memo_bits``: the bits the list's ``PrSet._ensure`` calls grew, split
    by the generator that grew them: ``pattern_fill_bits``,
    ``operand_fill_bits`` and ``per_bit_bits``;
  * ``pattern_bit_reads``: ``PrSet.bit`` calls past the memo of a set with
    a pattern.

Every memo counter comes from ``tools/harness.py``, which also stores the
result.

The result is stored under ``--label`` in ``BENCH_compile.json`` at the
root of the checkout, keeping the other labels there, so that two commits
can be compared by running this file against each one's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time

import harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
LISTS = ("conv", "tset")
REPEATS = 11
SEED = 1
SECONDS = 25
COUNTERS = ("compile_calls", "loop_functions", "source_bytes", "budget_checks", "visits",
            "ensure_entries", "arity_checks", "period_detections", "orbit_replays", "memo_bits",
            "pattern_fill_bits", "operand_fill_bits", "per_bit_bits", "pattern_bit_reads",
            "term_visits")
# counted calls, each of a pr_lang function; one a source lacks counts 0
CALLS = {"arity_checks": "_node_arity", "period_detections": "_skip",
         "orbit_replays": "_replay"}


def jobs(kind: str):
    """The jobs of one kind in the seed's list, their runner and checker."""
    import run as R
    import workloads as W
    expected = W.load_expected("term_eval")
    keys = W.job_list("term_eval", SEED, R.job_count("term_eval", SECONDS), expected)
    units = expected["units"]
    run = (lambda k: W.run_conv(k, units)) if kind == "conv" else W.run_tset
    return [k for k in keys if k[0] == kind], run, lambda k, out: W.check(k, out, expected)


@contextlib.contextmanager
def counters(counts: dict):
    """A block that counts the evaluator's compile() calls, its function
    definitions, its clocked visits and the calls named in ``CALLS``, and
    the memo's work (``tools/harness.py``)."""
    from punctual import pr_lang

    def counting_compile(source, *args, **kwargs):
        counts["compile_calls"] += 1
        counts["source_bytes"] += len(source)
        counts["budget_checks"] += source.count("if c >= b")
        return compile(source, *args, **kwargs)

    define = pr_lang._define

    def counting_define(name, *args):
        counts["loop_functions"] += name != "entry"
        return define(name, *args)

    clocked, cost = pr_lang.eval_clocked, pr_lang.eval_cost

    def counting_clocked(t, args, budget):
        out = clocked(t, args, budget)
        counts["visits"] += out.steps if isinstance(out, pr_lang.Converged) else max(1, budget)
        return out

    def counting_cost(t, args):
        out = cost(t, args)
        counts["visits"] += out
        return out

    pr_lang.compile, pr_lang._define = counting_compile, counting_define
    pr_lang.eval_clocked, pr_lang.eval_cost = counting_clocked, counting_cost
    calls = {key: (pr_lang, name) for key, name in CALLS.items() if hasattr(pr_lang, name)}
    with harness.counting(counts, calls):
        yield


def child(kind: str, counted: bool) -> int:
    """Run one list in this interpreter; print its wall time or counters."""
    sys.path.insert(0, PERFBENCH)
    import speed
    keys, run, check = jobs(kind)
    counts = dict.fromkeys(COUNTERS, 0)
    outputs, durations, probes = [], [], []
    with counters(counts) if counted else contextlib.nullcontext():
        for k in keys:
            probes.append(speed.probe())
            start = time.perf_counter()
            outputs.append(run(k))
            durations.append(time.perf_counter() - start)
        probes.append(speed.probe())
    failed = sum(not check(k, out) for k, out in zip(keys, outputs))
    json.dump({"wall_s": sum(durations), "ref_s": sum(speed.scaled(durations, probes)),
               "jobs": len(keys), "failed": failed, **harness.with_per_bit(counts)}, sys.stdout)
    return 0


def spawn(kind: str, counted: bool) -> dict:
    argv = [sys.executable, __file__, "--child", kind] + (["--counted"] if counted else [])
    out = subprocess.run(argv, check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONHASHSEED": "0",
                              "PYTHONDONTWRITEBYTECODE": "1"})
    return json.loads(out.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="after")
    ap.add_argument("--child", choices=LISTS, help=argparse.SUPPRESS)
    ap.add_argument("--counted", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        return child(args.child, args.counted)
    result = {}
    for kind in LISTS:
        counted = spawn(kind, True)
        runs = [spawn(kind, False) for _ in range(REPEATS)]
        failed = max(r["failed"] for r in (counted, *runs))
        result[kind] = {"median_s": round(statistics.median(r["wall_s"] for r in runs), 4),
                        "median_ref_s": round(statistics.median(r["ref_s"] for r in runs), 4),
                        "jobs": counted["jobs"], "failed": failed,
                        **{k: counted[k] for k in COUNTERS}}
    result.update(repeats=REPEATS, seed=SEED)
    harness.store("compile", args.label, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
