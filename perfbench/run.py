"""Layered benchmark of punctual: one workload, one seed, one result line.

    python3 perfbench/run.py --workload term_eval --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop with one client and no threads:
a fresh interpreter sets up its inputs and then runs a job list that is a
pure function of the seed.  ``--seconds`` fixes the length of that list
through a job rate calibrated once per workload (``JOB_RATE``); no run is
cut off by a clock, so two commits always do the same work.

``--trace 0`` reports the end-to-end metrics: set-up time (the median of
``SETUP_SAMPLES`` set-up-only interpreters), job throughput, the median
and 90th percentile job time, peak RSS and the share of jobs whose output
matched.  ``--trace 1`` runs the list once untraced and once with spans
around every layer, and reports the per-layer metrics.  All times are in
reference seconds: wall time scaled by a machine-speed probe that runs
next to every job and set-up (see ``speed.py``), because this machine's
speed drifts by tens of percent within a minute.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the run environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("term_eval", "witness_calculus", "stage_machine")
# jobs per requested second, measured on a 2-CPU x86-64 sandbox
JOB_RATE = {"term_eval": 15.0, "witness_calculus": 16.0, "stage_machine": 10.0}
MIN_JOBS = 100          # ten samples beyond the 90th percentile
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
# fixed for every commit: each start recompiles src/ and writes no bytecode
CHILD_ENV = {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}


def job_count(workload: str, seconds: int) -> int:
    return max(MIN_JOBS, round(seconds * JOB_RATE[workload]))


def run_child(workload, seed, jobs, mode, workdir):
    """Start one worker interpreter, wait for it, return its result."""
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed), "--jobs", str(jobs),
            "--mode", mode, "--workdir", workdir, "--result", result_path]
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def quantile(values, q):
    """The q-quantile (0 < q < 1) by the exclusive method of ``statistics``."""
    return statistics.quantiles(values, n=100, method="exclusive")[round(q * 100) - 1]


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(), "commit": commit, **CHILD_ENV}


def measure(workload, seed, seconds, trace, workdir) -> tuple:
    child = functools.partial(run_child, workload, seed, job_count(workload, seconds))
    if trace:
        plain = child("run", os.path.join(workdir, "run"))
        traced = child("trace", os.path.join(workdir, "trace"))
        if plain["jobs"] != traced["jobs"]:
            raise RuntimeError("traced and untraced runs drew different job lists")
        os.replace(os.path.join(workdir, "trace", "spans.json"),
                   os.path.join(WORK, f"spans-{workload}-{seed}.json"))
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["trace.overhead_share"] = (
            sum(traced["durations"]) / sum(plain["durations"]) - 1.0, "share")
        runs = [plain, traced]
        setup_ok = plain["setup_ok"] and traced["setup_ok"]
    else:
        setups = []
        setup_ok = True
        for i in range(SETUP_SAMPLES):
            probes = [speed.probe() for _ in range(3)]
            sample = child("setup", os.path.join(workdir, f"setup{i}"))
            probes += [speed.probe() for _ in range(3)]
            setups.append(sample["setup_s"] * speed.P_REF / statistics.median(probes))
            setup_ok = setup_ok and sample["setup_ok"]
        main = child("run", os.path.join(workdir, "run"))
        durations = main["durations"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "jobs_per_s": (len(durations) / sum(durations), "1/s"),
            "job_p50_s": (statistics.median(durations), "s"),
            "job_p90_s": (quantile(durations, 0.9), "s"),
            "peak_rss_mb": (main["peak_rss_mb"], "MB"),
            "ok_share": (1.0 - len(main["failed"]) / len(durations), "share"),
        }
        runs = [main]
        setup_ok = setup_ok and main["setup_ok"]
    attempted = len(runs[-1]["jobs"])
    failed = len(set().union(*(r["failed"] for r in runs)))
    correct = failed == 0 and setup_ok
    failures = [line for r in runs for line in r["failures"]]
    return correct, attempted, failed, metrics, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="job-list seed (default: the default seed in design.json)")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed is None:
        with open(os.path.join(HERE, "design.json")) as fh:
            args.seed = json.load(fh)["seeds"]["default"]
    if not os.path.isfile(os.path.join(ROOT, "src", "punctual", "__init__.py")):
        sys.stderr.write(f"no punctual sources under {ROOT}/src; "
                         "run from the root of a source checkout\n")
        return 2

    env = environment()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        correct, attempted, failed, metrics, failures = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures:
        sys.stderr.write(f"job failed: {line}\n")
    print(f"# workload {args.workload} seed {args.seed} jobs {attempted} "
          f"trace {args.trace}")
    if not args.trace:
        print(f"  {'failed_share':28s} {failed / attempted:.6g} share")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
