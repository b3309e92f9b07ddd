"""Line coverage of the ``punctual`` package under the Tier-1 suite.

    python tools/line_cover.py

Runs the Tier-1 command (``pytest -q --continue-on-collection-errors``
from the root of this checkout, with ``src`` first on the path) in this
process, under a ``sys.settrace`` tracer (``threading.settrace`` for
other threads) that follows only frames whose code lies in
``src/punctual``.  A module's executable lines are the line numbers of
its code objects (``co_lines``), nested functions, classes and
comprehensions included.  Per module the report gives the executable and
missed counts, then each missed line with its text.

Code run in a subprocess (the ``python -m punctual`` tests) is not seen,
so a line that only such a test reaches reads as missed.  Tracing makes
the suite several times slower (about 4 min against 28 s untraced on a
2-CPU machine), so this is not part of Tier-1.  The exit code is
pytest's.
"""

from __future__ import annotations

import collections
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "punctual")


def executable_lines(source: str, filename: str) -> set:
    """Line numbers that carry bytecode in the module or any code inside it."""
    lines, codes = set(), [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def report(src: str, hits: dict) -> list:
    """Report lines for every module in src, given the hit lines by real path."""
    rows, missed_rows, totals = [], [], [0, 0]
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py")):
        path = os.path.realpath(os.path.join(src, name))
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        executable = executable_lines(text, path)
        missed = sorted(executable - hits.get(path, set()))
        totals[0] += len(executable)
        totals[1] += len(missed)
        rows.append(f"{name:<18}{len(executable):>11}{len(missed):>8}")
        source_lines = text.splitlines()
        missed_rows += [f"{name}:{n}: {source_lines[n - 1].strip()}" for n in missed]
    return ([f"{'module':<18}{'executable':>11}{'missed':>8}", *rows,
             f"{'total':<18}{totals[0]:>11}{totals[1]:>8}"]
            + ([""] + missed_rows if missed_rows else []))


def trace_tier1() -> tuple:
    """Run the Tier-1 suite under the tracer: (pytest's exit code, hits)."""
    prefix = os.path.realpath(SRC) + os.sep
    hits = collections.defaultdict(set)
    files = {}      # co_filename -> its hit set, or None outside src

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        hit = files.get(name, False)
        if hit is False:
            real = os.path.realpath(name)
            hit = files[name] = hits[real] if real.startswith(prefix) else None
        if hit is None:
            return None
        add = hit.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    os.chdir(ROOT)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main() -> int:
    code, hits = trace_tier1()
    print("\n".join(report(SRC, hits)))
    return code


if __name__ == "__main__":
    sys.exit(main())
