"""Import harness: ``import punctual.cli``, which every command loads, and
one small command, each in a fresh interpreter.

    PYTHONPATH=src python tools/bench_import.py --label after

The package is the ``punctual`` that the given ``PYTHONPATH`` imports, so
the same harness measures any checkout by pointing ``PYTHONPATH`` at its
``src``.  It is copied into two temporary directories, one per mode:

  * ``source``: no bytecode; every module is compiled from its source on
    each start, as ``perfbench/run.py`` starts its workers;
  * ``bytecode``: compiled once beforehand by ``compileall``, as in a
    normal install.

Both modes run with ``PYTHONDONTWRITEBYTECODE=1``, so neither copy
changes.  Each of ``REPEATS`` (15) rounds runs, in both modes in turn:

  * ``import``: a child that times its own ``import punctual.cli`` and
    reports its peak RSS (``ru_maxrss``) and the modules the import added
    to ``sys.modules``;
  * ``cli``: ``python -m punctual profile evens --horizon 10``, timed end
    to end from here.

Each time is reported as a median with its range.  The modules an import
adds are the deterministic counter beside them: their number, the
``punctual`` ones apart, and the names of the others.  The result is
stored under ``--label`` in ``BENCH_import.json`` at the root of the
checkout through ``tools/harness.py``, keeping the other labels there.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import harness
import punctual

REPEATS = 15
MODES = ("source", "bytecode")
CLI = ["-m", "punctual", "profile", "evens", "--horizon", "10"]
CHILD = """\
import json, resource, sys, time
before = set(sys.modules)
start = time.perf_counter()
import punctual.cli
took = time.perf_counter() - start
json.dump({"import_s": took, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "modules": sorted(set(sys.modules) - before)}, sys.stdout)
"""


def copies(package: str, tmp: str) -> dict:
    """The directory to put on ``PYTHONPATH`` for each mode."""
    paths = {}
    for mode in MODES:
        paths[mode] = os.path.join(tmp, mode)
        shutil.copytree(package, os.path.join(paths[mode], "punctual"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(paths["bytecode"], quiet=1):
        raise SystemExit("error: compileall failed")
    return paths


def timed(argv: list, env: dict) -> tuple:
    """Wall time and stdout of one child interpreter."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, *argv], check=True, capture_output=True,
                         text=True, env=env)
    return time.perf_counter() - start, out.stdout


def spread(values: list, scale: float = 1e3, digits: int = 1) -> dict:
    """Median and range of values, in milliseconds unless scaled otherwise."""
    return {"median": round(statistics.median(values) * scale, digits),
            "min": round(min(values) * scale, digits), "max": round(max(values) * scale, digits)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="after")
    args = ap.parse_args()
    package = os.path.dirname(punctual.__file__)
    runs = {mode: {"import_s": [], "rss_kb": [], "cli_s": []} for mode in MODES}
    modules, stdout = {}, set()
    with tempfile.TemporaryDirectory() as tmp:
        paths = copies(package, tmp)
        for _ in range(REPEATS):
            for mode in MODES:
                env = {**os.environ, "PYTHONPATH": paths[mode], "PYTHONDONTWRITEBYTECODE": "1"}
                child = json.loads(timed(["-c", CHILD], env)[1])
                runs[mode]["import_s"].append(child["import_s"])
                runs[mode]["rss_kb"].append(child["rss_kb"])
                modules[mode] = child["modules"]
                took, out = timed(CLI, env)
                runs[mode]["cli_s"].append(took)
                stdout.add(out)
    if len(stdout) != 1:
        raise SystemExit("error: the command's output differs between runs")
    result = {"repeats": REPEATS, "cli": " ".join(["python", *CLI])}
    for mode, r in runs.items():
        others = [m for m in modules[mode] if m.split(".")[0] != "punctual"]
        result[mode] = {"import_ms": spread(r["import_s"]), "cli_ms": spread(r["cli_s"]),
                        "peak_rss_mb": spread(r["rss_kb"], 1 / 1024, 2),
                        "modules_added": len(modules[mode]),
                        "punctual_modules": len(modules[mode]) - len(others),
                        "other_modules": others}
    harness.store("import", args.label, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
