"""Golden transcripts of the commands that read trace and witness files.

    PYTHONPATH=src python tools/cli_transcripts.py

Each case in ``CASES`` is one invocation of ``punctual.cli.main``, made
in process inside a fresh temporary directory that holds the case's input
files, so every path in its argv (and in its ``# config`` line) is
relative.  The inputs are a golden trace of ``tests/golden`` with at most
one edit each, and two witness tables written out below.  The script
writes one transcript per case, ``tests/golden/cli/<case>.json``: the
argv, the exit code, and the stdout and stderr texts (UTF-8, newlines as
written).  ``tests/test_transcripts.py`` replays every transcript and
compares each field byte for byte; a change that alters one regenerates
it with this script and says which file changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
OUT = os.path.join(GOLDEN, "cli")

# the golden trace every trace case starts from: two outputs, Y0 and Y1
TRACE = "join-split.empty.trace"

WITNESS = ("claim\treduction\nsource\tevens\ntarget\tevens\nhorizon\t5\n"
           "convention\tindex\nverified\t1\n---\n"
           "0\t0\n1\t1\n2\t0\n3\t3\n4\t0\n5\t5\n")


def _golden(old: bytes = b"", new: bytes = b"", count: int = 1):
    """The golden trace's bytes, the first `count` (-1: every) `old` replaced by `new`."""
    def make() -> bytes:
        with open(os.path.join(GOLDEN, TRACE), "rb") as fh:
            data = fh.read()
        if old not in data:
            raise ValueError(f"{TRACE} holds no {old!r}")
        return data.replace(old, new, count)
    return make


def _witness(old: str = "", new: str = ""):
    return lambda: WITNESS.replace(old, new, 1).encode()


# case name -> (argv, {input file name: its bytes' maker})
CASES = {
    "verify-ok": (["verify", "ok.trace"], {"ok.trace": _golden()}),
    "verify-diverging": (["verify", "diverging.trace"], {
        "diverging.trace": _golden(b"\n5\tF1\tcopy\tY0=1,", b"\n5\tF1\tcopy\tY0=0,")}),
    "verify-malformed-record": (["verify", "malformed.trace"], {
        "malformed.trace": _golden(b"\n7\tF1\t", b"\n7x\tF1\t")}),
    "verify-missing-header-key": (["verify", "no-policy.trace"], {
        "no-policy.trace": _golden(b"policy\tonce\n", b"")}),
    "verify-non-utf8": (["verify", "latin1.trace"], {
        "latin1.trace": _golden(b"\tinit\t", b"\tinit\xe9\t")}),
    "verify-crlf": (["verify", "crlf.trace"], {
        "crlf.trace": _golden(b"\n", b"\r\n", -1)}),
    "verify-missing-file": (["verify", "missing.trace"], {}),
    "profile-trace": (["profile", "trace ok.trace", "--horizon", "8"],
                      {"ok.trace": _golden()}),
    "profile-trace-output": (["profile", "trace ok.trace:Y1", "--horizon", "8"],
                             {"ok.trace": _golden()}),
    "profile-trace-missing-output": (["profile", "trace ok.trace:Y2", "--horizon", "8"],
                                     {"ok.trace": _golden()}),
    "reduce-check-ok": (["reduce", "check", "evens", "evens", "--witness", "ok.table",
                         "--horizon", "5"], {"ok.table": _witness()}),
    "reduce-check-malformed-row": (["reduce", "check", "evens", "evens", "--witness",
                                    "bad.table", "--horizon", "5"],
                                   {"bad.table": _witness("\n3\t3\n", "\n3\tx\n")}),
}


def run(case: str) -> dict:
    """The transcript of one case, run in a fresh temporary directory."""
    from punctual import cli

    argv, inputs = CASES[case]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in inputs.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(make())
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def dumps(transcript: dict) -> str:
    return json.dumps(transcript, indent=1) + "\n"


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    for case in CASES:
        with open(os.path.join(OUT, f"{case}.json"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dumps(run(case)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
