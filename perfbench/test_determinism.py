"""Determinism self-check of the benchmark.

    python3 -m pytest perfbench/test_determinism.py
    python3 perfbench/test_determinism.py

At a tiny job count, two traced runs of each workload at the same seed
must draw the same job list, pass every output check and give identical
work counters.  The counters are the ones a later change may cite as
evidence, so they must not depend on timing.
"""

from __future__ import annotations

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SEED = 3
JOBS = 12
COUNTERS = ("pr_lang.calls", "sets.calls", "reductions.calls", "lattice.calls",
            "constructions.calls", "cli.calls", "pr_lang.visits", "sets.bits",
            "reductions.table_entries", "constructions.stages",
            "constructions.trace_bytes")


def traced(workload, tag):
    workdir = os.path.join(run.WORK, f"selfcheck-{workload}-{tag}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return run.run_child(workload, SEED, JOBS, "trace", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check(workload):
    a, b = traced(workload, "a"), traced(workload, "b")
    assert a["jobs"] == b["jobs"], workload
    assert len(a["jobs"]) >= JOBS, workload
    assert not a["failed"] and not b["failed"], (a["failures"], b["failures"])
    assert a["setup_ok"] and b["setup_ok"], workload
    ca = {k: a["layers"][k][0] for k in COUNTERS}
    cb = {k: b["layers"][k][0] for k in COUNTERS}
    assert ca == cb, (workload, ca, cb)
    assert all(ca[f"{layer}.calls"] > 0 for layer in
               ("pr_lang", "sets", "constructions", "cli")), ca


def test_term_eval():
    check("term_eval")


def test_witness_calculus():
    check("witness_calculus")


def test_stage_machine():
    check("stage_machine")


if __name__ == "__main__":
    for name in run.WORKLOADS:
        check(name)
        print(f"{name}: job list and counters repeat")
