"""Regenerate the expected outputs of every job the benchmark can draw.

    PYTHONPATH=src:perfbench python3 perfbench/gen_expected.py [workload ...]

Runs every unit of every pool once, in a scratch directory under
``.perfbench_work/``, and writes ``perfbench/expected/<workload>.json``.
The stored digests are the reference the benchmark checks each job
against, so regenerate them only on a commit whose outputs are known to be
right; a change that alters an output is then visible as a diff here.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from punctual import pr_lang

import workloads as W


def _write(name, data):
    path = os.path.join(W.EXPECTED_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def conv_units():
    units = []
    for e, x in W.conv_units_pool():
        out = pr_lang.eval_clocked(pr_lang.unary_wrap(pr_lang.decode(e)), [x],
                                   W.CONV_CAP)
        if isinstance(out, pr_lang.Converged):
            units.append([e, x, out.steps, out.value])
    return units


def digests(pool, run):
    out = {}
    for key in pool:
        parts, refs = run(key)
        if not all(refs):
            raise SystemExit(f"reference check fails for {W.key_str(key)}")
        out[W.key_str(key)] = W.digest(parts)
    return out


def main(argv) -> int:
    wanted = argv or ["setup"] + list(W.RECIPES)
    root = os.path.dirname(W.HERE)
    work = os.path.join(root, ".perfbench_work", "gen")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(W.EXPECTED_DIR, exist_ok=True)
    here = os.getcwd()
    os.chdir(work)
    try:
        inputs = W.setup(".")
        if "setup" in wanted:
            _write("setup", inputs)
        if "term_eval" in wanted:
            _write("term_eval", {"units": conv_units(),
                                 "digests": digests(W.tset_pool(), W.run_tset)})
        if "witness_calculus" in wanted:
            _write("witness_calculus", {"digests": digests(W.wit_pool(), W.run_wit)})
        if "stage_machine" in wanted:
            _write("stage_machine", {"digests": digests(W.stage_pool(), W.run_stage)})
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
