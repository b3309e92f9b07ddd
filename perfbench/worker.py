"""One benchmark process: set-up, then the seeded job list of one workload.

Started by ``run.py`` in a fresh interpreter.  ``--t0`` is the parent's
``time.monotonic()`` just before the start, so the reported set-up time runs
from interpreter start to the first job: the import of ``punctual`` plus
writing the family and trace input files with the library.

Modes:
  setup   set up, check the inputs, report the set-up time and exit;
  run     set up, run the job list without tracing, report job timings
          (raw, and scaled to reference seconds by ``speed``);
  trace   set up and run the same job list with spans around every layer.

The result is one JSON object written to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import punctual  # noqa: F401  (the import is part of set-up)
    import speed
    import workloads as W

    os.chdir(args.workdir)
    tracer = None
    if args.mode == "trace":
        import tracer as T
        tracer = T.install([W])
    setup, runner = W.setup, _runner(W, args.workload)
    if tracer is not None:
        setup = T.root_span(tracer, "setup", setup)
        runner = T.root_span(tracer, "job", runner)
    inputs = setup(".")
    expected_inputs = W.load_expected("setup")
    setup_s = time.monotonic() - args.t0
    setup_ok = inputs == expected_inputs
    if not setup_ok:
        sys.stderr.write(f"set-up inputs differ from expected: {inputs}\n")
    result = {"setup_s": setup_s, "setup_ok": setup_ok}
    if args.mode == "setup":
        return _write(args.result, result)

    expected = W.load_expected(args.workload)
    jobs = W.job_list(args.workload, args.seed, args.jobs, expected)
    durations = []
    probes = []
    failed = []
    trace_bytes = sum(os.path.getsize(n) for n in W.SETUP_FILES if n.endswith(".trace"))
    failures = []
    for i, key in enumerate(jobs):
        probes.append(speed.probe())
        start = time.perf_counter()
        try:
            outputs = runner(key)
        except Exception as exc:  # a job that raises counts as failed
            durations.append(time.perf_counter() - start)
            failed.append(i)
            failures.append(f"{W.key_str(key)}: {type(exc).__name__}: {exc}")
            continue
        durations.append(time.perf_counter() - start)
        trace_bytes += sum(len(p) for p in outputs[0] if isinstance(p, bytes))
        if not W.check(key, outputs, expected):
            failed.append(i)
            failures.append(f"{W.key_str(key)}: output differs from expected")
    probes.append(speed.probe())
    result.update({
        "jobs": [W.key_str(k) for k in jobs],
        "durations": speed.scaled(durations, probes),
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        factor = sum(result["durations"]) / sum(durations)
        result["layers"] = {k: list(v) for k, v in
                            T.layer_metrics(tracer, trace_bytes, factor).items()}
        tracer.dump(os.path.join(args.workdir, "spans.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "jobs": len(jobs)})
    return _write(args.result, result)


def _runner(W, workload):
    if workload == "term_eval":
        units = W.load_expected("term_eval")["units"]

        def run(key):
            if key[0] == "conv":
                return W.run_conv(key, units)
            return W.run_tset(key)
        return run
    if workload == "witness_calculus":
        return W.run_wit
    return W.run_stage


def _write(path, result) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
