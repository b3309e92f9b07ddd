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

  * ``compile_calls``: builtin ``compile()`` calls made by ``pr_lang``;
  * ``loop_functions``: generated functions other than an ``entry``;
  * ``source_bytes``: the length of the compiled source texts;
  * ``visits``: evaluator visits, counted as ``perfbench/tracer.py``
    counts ``pr_lang.visits`` (a converged run's steps, else its budget);
  * ``ensure_entries``: calls of ``PrSet._ensure``, the descriptor memo's
    one way in, hits that return at once included;
  * ``memo_bits``: the bits held, after the list, by the memos of every
    set its jobs built.

The result is stored under ``--label`` in ``BENCH_compile.json`` at the
root of the checkout, keeping the other labels there, so that two commits
can be compared by running this file against each one's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
LISTS = ("conv", "tset")
REPEATS = 11
SEED = 1
SECONDS = 25


def jobs(kind: str):
    """The jobs of one kind in the seed's list, their runner and checker."""
    import run as R
    import workloads as W
    expected = W.load_expected("term_eval")
    keys = W.job_list("term_eval", SEED, R.job_count("term_eval", SECONDS), expected)
    units = expected["units"]
    run = (lambda k: W.run_conv(k, units)) if kind == "conv" else W.run_tset
    return [k for k in keys if k[0] == kind], run, lambda k, out: W.check(k, out, expected)


def install_counters(counts: dict) -> list:
    """Wrap the evaluator's compile() and its clocked entry points, and the
    descriptor memo's growth; return the list every new set is added to."""
    from punctual import pr_lang, sets

    def counting_compile(source, *args, **kwargs):
        counts["compile_calls"] += 1
        counts["source_bytes"] += len(source)
        counts["loop_functions"] += sum(1 for line in source.split("\n")
                                        if line.startswith("def ")
                                        and not line.startswith("def entry("))
        return compile(source, *args, **kwargs)

    clocked, cost = pr_lang.eval_clocked, pr_lang.eval_cost

    def counting_clocked(t, args, budget):
        out = clocked(t, args, budget)
        counts["visits"] += out.steps if isinstance(out, pr_lang.Converged) else max(1, budget)
        return out

    def counting_cost(t, args):
        out = cost(t, args)
        counts["visits"] += out
        return out

    pr_lang.compile = counting_compile
    pr_lang.eval_clocked, pr_lang.eval_cost = counting_clocked, counting_cost

    made, init, ensure = [], sets.PrSet.__init__, sets.PrSet._ensure

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def counting_ensure(self, *args, **kwargs):
        counts["ensure_entries"] += 1
        return ensure(self, *args, **kwargs)

    sets.PrSet.__init__, sets.PrSet._ensure = counting_init, counting_ensure
    return made


def child(kind: str, counted: bool) -> int:
    """Run one list in this interpreter; print its wall time or counters."""
    sys.path.insert(0, PERFBENCH)
    import speed
    keys, run, check = jobs(kind)
    counts = dict(compile_calls=0, loop_functions=0, source_bytes=0, visits=0,
                  ensure_entries=0, memo_bits=0)
    made = install_counters(counts) if counted else []
    outputs, durations, probes = [], [], []
    for k in keys:
        probes.append(speed.probe())
        start = time.perf_counter()
        outputs.append(run(k))
        durations.append(time.perf_counter() - start)
    probes.append(speed.probe())
    counts["memo_bits"] = sum(x.decided for x in made)
    failed = sum(not check(k, out) for k, out in zip(keys, outputs))
    json.dump({"wall_s": sum(durations), "ref_s": sum(speed.scaled(durations, probes)),
               "jobs": len(keys), "failed": failed, **counts}, sys.stdout)
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
        counters = spawn(kind, True)
        runs = [spawn(kind, False) for _ in range(REPEATS)]
        failed = max(r["failed"] for r in (counters, *runs))
        result[kind] = {"median_s": round(statistics.median(r["wall_s"] for r in runs), 4),
                        "median_ref_s": round(statistics.median(r["ref_s"] for r in runs), 4),
                        "jobs": counters["jobs"], "failed": failed,
                        **{k: counters[k] for k in
                           ("compile_calls", "loop_functions", "source_bytes", "visits",
                            "ensure_entries", "memo_bits")}}
    result.update({
        "repeats": REPEATS,
        "seed": SEED,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
    })
    path = os.path.join(ROOT, "BENCH_compile.json")
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {"harness": "tools/bench_compile.py", "runs": {}}
    stored["runs"][args.label] = result
    with open(path, "w") as fh:
        json.dump(stored, fh, indent=2)
        fh.write("\n")
    json.dump({args.label: result}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
