"""Golden command-line transcripts.

    PYTHONPATH=src python tools/cli_transcripts.py

Each case in ``CASES`` is one invocation of ``punctual.cli.main``, made
in process inside a fresh temporary directory that holds the case's input
files, so every path in its argv (and in its ``# config`` line) is
relative.  The cases are every line of README's usage block, argv for
argv, at least one case for each command and op of the parser, and the
commands that read trace and witness files; the runs cover every
construction kind, each followed by ``verify`` of its trace, term
descriptors (one over its declared bound, exit 1) and a stage-budget
exhaustion (exit 2).  The inputs are a golden trace of
``tests/golden`` with at most one edit each, two witness tables written
out below, README's family file, and files that an earlier case writes,
made by running that case.  The script writes one transcript per case,
``tests/golden/cli/<case>.json``: the argv, the exit code, and the stdout
and stderr texts (UTF-8, newlines as written).  ``tests/test_transcripts.py``
replays every transcript and compares each field byte for byte; a change
that alters one regenerates it with this script and says which file
changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
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


def readme_block(heading: str) -> list:
    """The first fenced block after a README heading, as lines."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        body = fh.read().split(f"\n{heading}\n", 1)[1]
    return body.split("```\n", 2)[1].splitlines()


def _family() -> bytes:
    return ("\n".join(readme_block("### Family files")) + "\n").encode()


def _written(case: str, name: str):
    """The bytes of the file `name` that running `case` writes."""
    return lambda: _execute(case, name)[1]


def _linear_bound(a: int, b: int) -> str:
    """The unary term for a*n + b, as ``linear_bound`` of perfbench/workloads.py."""
    return "C(S; " * b + "R(Z; " + "C(S; " * a + "P[3,3]" + ")" * (a + b + 1)


# n mod 2 under the declared step bound 24n + 60 (MOD2 and linear_bound(24, 60)
# of perfbench/workloads.py): a term set has no pattern, so a join over it
# fills from its operands' memos
NOT = "C(R(P[1,1]; C(R(Z; P[3,2]); P[4,4])); P[1,1], C(S; R(Z; P[3,3])))"
MOD2 = f"R(Z; C({NOT}; P[3,3]))"
TERM = f'term "{MOD2}" bound "{_linear_bound(24, 60)}"'
# the same term under 8n + 30, which its evaluation outgrows within a dozen
# bits: a read past there fails with a punctuality violation (exit 1)
OVER = f'term "{MOD2}" bound "{_linear_bound(8, 30)}"'

BASIC = {"basic.fam": _family}


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
    # README's usage block, line by line
    "readme-profile": (["profile", "evens", "--horizon", "10"], {}),
    "readme-lattice-join": (["lattice", "join", "evens", "mod 3", "--horizon", "100"], {}),
    "readme-lattice-distrib": (["lattice", "distrib", "evens", "mod 3", "mod 5",
                                "--horizon", "200"], {}),
    "readme-lattice-equilibrium": (["lattice", "equilibrium", "evens", "blocks 6",
                                    "--horizon", "50"], {}),
    "readme-reduce-synth-g": (["reduce", "synth-g", "evens", "mod 3", "--horizon", "60",
                               "--out", "g.wit"], {}),
    "readme-reduce-check": (["reduce", "check", "evens", "mod 3", "--witness", "g.wit",
                             "--horizon", "60"],
                            {"g.wit": _written("readme-reduce-synth-g", "g.wit")}),
    "readme-diamond-evidence-r": (["diamond", "evidence-r", "drop(evens)", "evens",
                                   "--horizon", "30", "--k", "20"], {}),
    "readme-slow-make": (["slow", "make", "--family", "basic.fam", "--window", "8"], BASIC),
    "readme-construct-join-split": (["construct", "join-split", "mod 3", "--family",
                                     "basic.fam", "--max-stages", "500", "--out", "js.trace"],
                                    BASIC),
    "readme-construct-diamond": (["construct", "diamond", "--x", "meet(evens, blocks 6)",
                                  "--z", "join(evens, blocks 6)", "--family", "basic.fam",
                                  "--max-stages", "500"], BASIC),
    "readme-verify": (["verify", "js.trace"],
                      {"js.trace": _written("readme-construct-join-split", "js.trace")}),
    # constructions, term descriptors and an exhaustion the usage block leaves out
    "construct-meet-split": (["construct", "meet-split", "evens", "--family", "basic.fam",
                              "--max-stages", "300", "--out", "ms.trace"], BASIC),
    "verify-meet-split": (["verify", "ms.trace"],
                          {"ms.trace": _written("construct-meet-split", "ms.trace")}),
    "construct-separator": (["construct", "separator", "--x", "id", "--y",
                             "meet(evens, blocks 6)", "--family", "nat.fam",
                             "--max-stages", "600", "--out", "sep.trace"],
                            {"nat.fam": lambda: b"@id\n@succ\n"}),
    "verify-separator": (["verify", "sep.trace"],
                         {"sep.trace": _written("construct-separator", "sep.trace")}),
    "lattice-join-term": (["lattice", "join", TERM, "evens", "--horizon", "40"], {}),
    "profile-term": (["profile", TERM, "--horizon", "10"], {}),
    "construct-immune-budget": (["construct", "immune", "--family", "basic.fam",
                                 "--max-stages", "3"], BASIC),
    "construct-immune": (["construct", "immune", "--family", "basic.fam", "--max-stages",
                          "300", "--out", "imm.trace"], BASIC),
    "verify-immune": (["verify", "imm.trace"],
                      {"imm.trace": _written("construct-immune", "imm.trace")}),
    "construct-diamond": (["construct", "diamond", "--x", "meet(evens, blocks 6)", "--z",
                           "join(evens, blocks 6)", "--family", "basic.fam",
                           "--max-stages", "500", "--out", "dia.trace"], BASIC),
    "verify-diamond": (["verify", "dia.trace"],
                       {"dia.trace": _written("construct-diamond", "dia.trace")}),
    "construct-incomparable": (["construct", "incomparable", "--r", "evens",
                                "--out", "inc.trace"], {}),
    "verify-incomparable": (["verify", "inc.trace"],
                            {"inc.trace": _written("construct-incomparable", "inc.trace")}),
    "construct-antichain": (["construct", "antichain", "--count", "2", "--out", "ac.trace"],
                            {}),
    "verify-antichain": (["verify", "ac.trace.0"],
                         {"ac.trace.0": _written("construct-antichain", "ac.trace.0")}),
    "construct-dense": (["construct", "dense", "--x", "meet(evens, blocks 6)", "--z",
                         "join(evens, blocks 6)", "--out", "dense.trace"], {}),
    "verify-dense": (["verify", "dense.trace"],
                     {"dense.trace": _written("construct-dense", "dense.trace")}),
    "construct-dense-incomparable": (["construct", "dense-incomparable", "--x",
                                      "meet(evens, mod 3)", "--t", "evens", "--z",
                                      "join(evens, mod 3)", "--max-stages", "600",
                                      "--out", "di.trace"], {}),
    "verify-dense-incomparable": (["verify", "di.trace"], {
        "di.trace": _written("construct-dense-incomparable", "di.trace")}),
    # the same constructions over a family, so that their cycles open
    "construct-incomparable-family": (["construct", "incomparable", "--r", "evens",
                                       "--family", "basic.fam", "--out", "inc.trace"], BASIC),
    "verify-incomparable-family": (["verify", "inc.trace"], {
        "inc.trace": _written("construct-incomparable-family", "inc.trace")}),
    "construct-antichain-family": (["construct", "antichain", "--count", "2", "--family",
                                    "basic.fam", "--out", "ac.trace"], BASIC),
    "verify-antichain-family": (["verify", "ac.trace.0"], {
        "ac.trace.0": _written("construct-antichain-family", "ac.trace.0")}),
    "construct-dense-family": (["construct", "dense", "--x", "meet(evens, blocks 6)", "--z",
                                "join(evens, blocks 6)", "--family", "basic.fam",
                                "--out", "dense.trace"], BASIC),
    "verify-dense-family": (["verify", "dense.trace"], {
        "dense.trace": _written("construct-dense-family", "dense.trace")}),
    "construct-dense-incomparable-family": (["construct", "dense-incomparable", "--x",
                                             "meet(evens, mod 3)", "--t", "evens", "--z",
                                             "join(evens, mod 3)", "--family", "basic.fam",
                                             "--max-stages", "600", "--out", "di.trace"],
                                            BASIC),
    "verify-dense-incomparable-family": (["verify", "di.trace"], {
        "di.trace": _written("construct-dense-incomparable-family", "di.trace")}),
    # a middle set outside the interval: its derived certificate t <= z fails
    "construct-dense-incomparable-middle-above": (["construct", "dense-incomparable", "--x",
                                                   "meet(evens, mod 3)", "--t",
                                                   "join(evens, mod 3)", "--z", "evens",
                                                   "--family", "basic.fam",
                                                   "--max-stages", "60"], BASIC),
    # the other ops of reduce, slow, lattice and diamond
    **{f"reduce-{op}": (["reduce", op, "evens", "mod 3", "--witness", "g.wit",
                         "--horizon", "60"],
                        {"g.wit": _written("readme-reduce-synth-g", "g.wit")})
       for op in ("synth-h", "surjectivize", "respect")},
    "slow-check": (["slow", "check", "evens", "--family", "basic.fam", "--window", "4"],
                   BASIC),
    "lattice-meet": (["lattice", "meet", "evens", "mod 3", "--horizon", "40"], {}),
    "lattice-equilibrium-steps": (["lattice", "equilibrium", "evens", "blocks 6",
                                   "--horizon", "50", "--convention", "steps"], {}),
    "diamond-evidence-q": (["diamond", "evidence-q", "meet(evens, mod 3)", "evens",
                            "--horizon", "40"], {}),
    "diamond-evidence-q-relaxed-index": (["diamond", "evidence-q", "meet(evens, mod 3)",
                                          "evens", "--horizon", "40", "--relaxed",
                                          "--convention", "index"], {}),
    "diamond-evidence-q-witness": (["diamond", "evidence-q", "meet(evens, mod 3)", "evens",
                                    "--horizon", "40", "--q", "g.wit"],
                                   {"g.wit": _written("readme-reduce-synth-g", "g.wit")}),
    "diamond-evidence-r-program": (["diamond", "evidence-r", "drop(evens)", "evens",
                                    "--horizon", "30", "--q-program", "C(S; P[1,1])"], {}),
    "diamond-canonical": (["diamond", "canonical", "meet(evens, mod 3)", "evens",
                           "--horizon", "40"], {}),
    "diamond-restrict": (["diamond", "restrict", "evens", "evens", "evens", "evens",
                          "--horizon", "40"], {}),
    "diamond-restrict-missing-d": (["diamond", "restrict", "meet(evens, blocks 6)",
                                    "join(evens, blocks 6)", "evens", "--horizon", "40"], {}),
    "profile-drop-join": (["profile", "drop(join(evens, mod 3))", "--horizon", "30"], {}),
    # a term over its declared bound fails at the same stage whichever way
    # its counts are read
    "profile-term-over-bound": (["profile", OVER, "--horizon", "12"], {}),
    **{f"lattice-{op}-term-over-bound": (["lattice", op, OVER, "evens",
                                          *(["mod 3"] if op == "distrib" else []),
                                          "--horizon", "12"], {})
       for op in ("join", "meet", "distrib")},
}


def _execute(case: str, written: str | None = None):
    """One case's transcript, run in a fresh temporary directory, and the
    bytes of its file `written` (None if not asked for)."""
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
            data = None if written is None else pathlib.Path(written).read_bytes()
        finally:
            os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}, data


def run(case: str) -> dict:
    """The transcript of one case, run in a fresh temporary directory."""
    return _execute(case)[0]


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
