import argparse
import collections
import io
import os
import pathlib
import random
import re
import shlex
import signal
import subprocess
import sys

import pytest

import punctual
from punctual import pr_lang
from punctual.cli import _check_bounds, build_parser, main
from punctual.constructions import parse_trace, verify_trace_file
from punctual.errors import MisuseError, ParseError, PunctualError, StageBudgetExhausted
from punctual.reductions import load_witness, parse_witness
from punctual.sets import DEFAULT_CEILING

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tools"))
import cli_transcripts  # noqa: E402

FAMILY_TEXTS = [
    "P[1,1]",
    "C(S; P[1,1])",
    "R(Z; P[3,3])",
    "C(S; R(Z; P[3,3]))",
    "R(Z; C(S; C(S; P[3,3])))",
    "C(S; C(S; P[1,1]))",
]


@pytest.fixture
def family_file(tmp_path):
    p = tmp_path / "basic.fam"
    p.write_text("# six basic opponents\n" + "\n".join(FAMILY_TEXTS) + "\n")
    return str(p)


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


class TestProfile:
    def test_evens(self, capsys):
        code, out = run(["profile", "evens", "--horizon", "5"], capsys)
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert rows[-1][0] == "5" and rows[-1][1] == "3"

    def test_singleton(self, capsys):
        code, out = run(["profile", "id", "--horizon", "3"], capsys)
        assert out.splitlines()[-1].startswith("3\t3")

    def test_horizon_zero(self, capsys):
        code, out = run(["profile", "evens", "--horizon", "0"], capsys)
        assert out.startswith("# config ")
        assert out.splitlines()[1] == "0\t0\t0"

    def test_config_echoed(self, capsys):
        _, out = run(["profile", "evens", "--horizon", "2"], capsys)
        head = out.splitlines()[0]
        assert "descriptor=evens" in head and "horizon=2" in head

    def test_bad_descriptor_exit_code(self, capsys):
        assert main(["profile", "nope"]) == 1


@pytest.mark.parametrize("argv", [
    ["profile", "evens", "--horizon", "-5"],
    ["lattice", "join", "evens", "mod 3", "--horizon", "-1"],
    ["slow", "make", "--window", "-2"],
    ["construct", "immune", "--max-stages", "-3"],
    ["construct", "antichain", "--count", "-1"],
    ["diamond", "canonical", "evens", "mod 3", "--k", "-1"],
])
def test_negative_counts_are_misuse(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --")
    assert "must be >= 0" in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["lattice", "join", "evens", "mod 3", "--horizon", "900000000"], "--horizon"),
    (["profile", "evens", "--horizon", "900000000"], "--horizon"),
    (["construct", "immune", "--max-stages", "200001"], "--max-stages"),
    (["slow", "make", "--window", "200001"], "--window"),
])
def test_bounds_past_the_ceiling_are_misuse(argv, flag, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {flag} must be <= the index ceiling 200000, "
                            f"got {argv[-1]}\n")


def test_bounds_at_the_ceiling_pass():
    limits = dict.fromkeys(("horizon", "max_stages", "window"), DEFAULT_CEILING)
    _check_bounds(argparse.Namespace(**limits))


@pytest.mark.parametrize("argv, message", [
    (["reduce", "check", "evens", "evens", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["reduce", "check", "evens", "evens", "--horizon", "x"],
     "argument --horizon: invalid int value: 'x'"),
    (["reduce", "check", "evens", "evens", "--convention", "steps"],
     "unrecognized arguments: --convention steps"),
    (["profile"], "the following arguments are required: descriptor"),
    (["nonesuch"], "argument command: invalid choice: 'nonesuch'"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_are_misuse(argv, message, capsys):
    # exit 2 is reserved for stage-budget exhaustion
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: punctual")
    assert captured.err.splitlines()[-1].startswith(f"error: {message}")


@pytest.mark.parametrize("argv, message", [
    *((["reduce", op, "evens", "mod 3"], f"reduce {op} needs --witness")
      for op in ("check", "synth-h", "surjectivize", "respect")),
    (["slow", "check"], "slow check needs a descriptor"),
    (["diamond", "restrict", "evens", "evens"],
     "diamond restrict needs the operands c and d, missing c and d"),
    (["diamond", "restrict", "evens", "evens", "mod 3"],
     "diamond restrict needs the operands c and d, missing d"),
])
def test_missing_inputs_are_misuse(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("# config ") and len(captured.out.splitlines()) == 1
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["--help"], ["reduce", "--help"],
                                  ["construct", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: punctual")


class TestLattice:
    def test_join(self, capsys):
        code, out = run(["lattice", "join", "evens", "mod 3",
                         "--horizon", "100"], capsys)
        assert code == 0
        assert "profile-identity\tok" in out

    def test_distrib(self, capsys):
        code, out = run(["lattice", "distrib", "evens", "mod 3", "mod 5",
                         "--horizon", "200"], capsys)
        assert code == 0 and "distributivity\tok" in out

    def test_distrib_needs_three_sets(self, capsys):
        assert main(["lattice", "distrib", "evens", "mod 3"]) == 1
        err = capsys.readouterr().err
        assert err.endswith("error: the following arguments are required: c\n")

    def test_equilibrium_reads_its_convention(self, capsys):
        _, index = run(["lattice", "equilibrium", "evens", "mod 3",
                        "--horizon", "30"], capsys)
        _, steps = run(["lattice", "equilibrium", "evens", "mod 3",
                        "--horizon", "30", "--convention", "steps"], capsys)
        assert "convention\tindex\n" in index and "convention\tsteps\n" in steps

    def test_equilibrium_self_pair(self, capsys):
        code, out = run(["lattice", "equilibrium", "evens", "evens",
                         "--horizon", "10"], capsys)
        assert out.count("point\t") == 11

    def test_deterministic_output(self, capsys):
        _, first = run(["lattice", "join", "evens", "mod 3",
                        "--horizon", "50"], capsys)
        _, second = run(["lattice", "join", "evens", "mod 3",
                         "--horizon", "50"], capsys)
        assert first == second


class TestReduce:
    def test_synth_and_check(self, capsys, tmp_path):
        g_path = str(tmp_path / "g.wit")
        code, out = run(["reduce", "synth-g", "evens", "mod 3",
                         "--horizon", "60", "--out", g_path], capsys)
        assert code == 0
        code, out = run(["reduce", "check", "evens", "mod 3",
                         "--witness", g_path, "--horizon", "60"], capsys)
        assert code == 0 and "check\tok" in out

    @pytest.mark.parametrize("op", ["synth-g", "synth-h", "surjectivize"])
    def test_out_file_is_the_printed_witness(self, op, capsys, tmp_path, monkeypatch):
        g_path, out_path = tmp_path / "g.wit", tmp_path / "out.wit"
        assert main(["reduce", "synth-g", "evens", "mod 3", "--horizon", "40",
                     "--out", str(g_path)]) == 0
        capsys.readouterr()
        calls = []
        write = punctual.reductions.serialize_witness
        monkeypatch.setattr(punctual.reductions, "serialize_witness",
                            lambda w: calls.append(w) or write(w))
        witness = [] if op == "synth-g" else ["--witness", str(g_path)]
        code, out = run(["reduce", op, "evens", "mod 3", "--horizon", "40",
                         "--out", str(out_path)] + witness, capsys)
        assert code == 0 and len(calls) == 1
        config, _, printed = out.partition("\n")
        assert config.startswith("# config ")
        assert out_path.read_bytes() == printed.encode()

    def test_surjectivize_round_trip(self, capsys, tmp_path):
        g_path = str(tmp_path / "g.wit")
        run(["reduce", "synth-g", "evens", "mod 3", "--horizon", "40",
             "--out", g_path], capsys)
        code, out = run(["reduce", "surjectivize", "evens", "mod 3",
                         "--witness", g_path, "--horizon", "40"], capsys)
        assert code == 0


class TestDiamondCli:
    def test_evidence_r_dropped_pair(self, capsys):
        code, out = run(["diamond", "evidence-r", "drop(evens)", "evens",
                         "--horizon", "30", "--k", "20"], capsys)
        assert code == 0
        assert "verdict\tevidence(20)" in out

    def test_evidence_q_self(self, capsys):
        code, out = run(["diamond", "evidence-q", "evens", "evens",
                         "--horizon", "40", "--k", "40",
                         "--convention", "steps"], capsys)
        assert code == 0 and "count\t41" in out

    def test_canonical_prints_its_case_and_counts(self, capsys):
        code, out = run(["diamond", "canonical", "evens", "mod 3", "--horizon", "20",
                         "--k", "2"], capsys)
        assert code == 0
        assert out.splitlines()[1:] == ["case\t1", "good-stages\t4", "equilibria\t4"]

    def test_restrict_with_both_operands(self, capsys):
        code, out = run(["diamond", "restrict", "drop(evens)", "evens", "drop(evens)",
                         "evens", "--horizon", "20"], capsys)
        assert code == 0
        assert out.splitlines()[1:] == ["kind\tq-stage", "convention\tsteps", "count\t2",
                                        "verdict\tevidence(1)", "hit\t0", "hit\t1"]


class TestSlowCli:
    def test_make_and_check(self, capsys, family_file, tmp_path):
        code, out = run(["slow", "make", "--family", family_file,
                         "--window", "6"], capsys)
        assert code == 0
        assert out.count("zero\t") == 7

    def test_check_prints_a_verdict_per_member_and_stage(self, capsys, tmp_path):
        fam = tmp_path / "two.fam"
        fam.write_text("P[1,1]\nC(S; C(S; P[1,1]))\n")
        code, out = run(["slow", "check", "evens", "--family", str(fam), "--window", "2"],
                        capsys)
        assert code == 0
        assert out.splitlines()[1:] == [
            "slow-on-window\tno",
            *(f"verdict\tP[1,1]\t{n}\tok" for n in range(3)),
            *(f"verdict\tC(S; C(S; P[1,1]))\t{n}\tfail" for n in range(3))]

    def test_unknown_native_program_in_a_family_is_misuse(self, capsys, tmp_path):
        fam = tmp_path / "nope.fam"
        fam.write_text("P[1,1]\n@nope\n")
        assert main(["slow", "make", "--family", str(fam), "--window", "2"]) == 1
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1
        assert captured.err == "error: unknown native program @nope\n"

    def test_make_past_the_print_limit_is_misuse(self, capsys, tmp_path):
        # squared zeros pass the interpreter's 4,300-digit limit at zero 14
        fam = tmp_path / "sq.fam"
        fam.write_text("@square\n")
        code, out = run(["slow", "make", "--family", str(fam), "--window", "13"], capsys)
        assert code == 0 and out.count("zero\t") == 14
        assert main(["slow", "make", "--family", str(fam), "--window", "14"]) == 1
        captured = capsys.readouterr()
        assert "zero\t" not in captured.out
        assert captured.err.startswith("error: slow make: zero number 14 has more than 4300")

    def test_make_past_the_ceiling_writes_no_zero(self, capsys):
        # the slow set of no family is evens, whose zero 100,000 lies at 200,001
        code, out = run(["slow", "make", "--window", "99999"], capsys)
        assert code == 0 and out.count("zero\t") == 100_000
        assert out.endswith("zero\t99999\t199999\n")
        assert main(["slow", "make", "--window", "150000"]) == 1
        captured = capsys.readouterr()
        assert "zero\t" not in captured.out
        assert captured.err == "error: evens: fewer than 100001 zeros below ceiling 200000\n"

    def test_make_reads_no_descriptor(self, capsys, family_file):
        assert main(["slow", "make", "mod -1", "--family", family_file, "--window", "3"]) == 1
        captured = capsys.readouterr()
        assert "zero\t" not in captured.out
        assert captured.err == "error: slow make does not read a descriptor\n"


class TestConstructCli:
    def test_join_split(self, capsys, family_file, tmp_path):
        trace = str(tmp_path / "js.trace")
        code, out = run(["construct", "join-split", "mod 3",
                         "--family", family_file, "--max-stages", "400",
                         "--out", trace], capsys)
        assert code == 0 and "verdict\tok" in out
        code, out = run(["verify", trace], capsys)
        assert code == 0 and "verify\tok" in out

    def test_immune_empty_family(self, capsys, tmp_path):
        empty = tmp_path / "empty.fam"
        empty.write_text("# none\n")
        code, out = run(["construct", "immune", "--family", str(empty),
                         "--max-stages", "60"], capsys)
        assert code == 0

    def test_diamond_starved_exits_2(self, capsys, family_file):
        code, out = run(["construct", "diamond", "--x", "drop(drop(evens))",
                         "--z", "drop(evens)", "--family", family_file,
                         "--max-stages", "200"], capsys)
        assert code == 2

    def test_corrupted_trace_detected(self, capsys, family_file, tmp_path):
        trace = str(tmp_path / "imm.trace")
        run(["construct", "immune", "--family", family_file,
             "--max-stages", "120", "--out", trace], capsys)
        with open(trace) as fh:
            text = fh.read()
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("50\t"):
                lines[i] = line.replace("Y=1", "Y=0")
                break
        with open(trace, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, out = run(["verify", trace], capsys)
        assert code == 1 and "divergence" in out

    def test_antichain_writes_a_trace_per_member(self, capsys, family_file, tmp_path):
        out_base = tmp_path / "anti.trace"
        code, out = run(["construct", "antichain", "--count", "2", "--family", family_file,
                         "--max-stages", "60", "--out", str(out_base)], capsys)
        assert code == 0
        assert out.splitlines()[1:] == [f"trace\t{out_base}.0", "verdict\t0\tok",
                                        f"trace\t{out_base}.1", "verdict\t1\tok"]
        code, out = run(["verify", f"{out_base}.0"], capsys)
        assert code == 0 and out.splitlines()[1:] == ["verify\tok\tok"]
        # a later member's relations are opaque, so replay rejects its trace
        assert main(["verify", f"{out_base}.1"]) == 1
        assert capsys.readouterr().err == "error: relation R is not replayable: !opaque:R[S0]\n"

    def test_antichain_of_no_member_is_misuse(self, capsys, family_file):
        assert main(["construct", "antichain", "--count", "0", "--family", family_file,
                     "--max-stages", "60"]) == 1
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1
        assert captured.err == "error: antichain needs count >= 1\n"

    def test_missing_trace_is_io_error(self, capsys):
        assert main(["verify", "/nonexistent/path.trace"]) == 3

    def test_out_rewrites_a_longer_file_without_a_tail(self, capsys, family_file, tmp_path):
        trace, fresh = tmp_path / "imm.trace", tmp_path / "fresh.trace"
        argv = ["construct", "immune", "--family", family_file, "--max-stages"]
        run(argv + ["300", "--out", str(trace)], capsys)
        run(argv + ["40", "--out", str(trace)], capsys)      # rewritten in place
        run(argv + ["40", "--out", str(fresh)], capsys)
        assert trace.read_bytes() == fresh.read_bytes()
        code, out = run(["verify", str(trace)], capsys)
        assert code == 0 and "verify\tok" in out

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_out_to_a_fifo(self, capsys, family_file, tmp_path):
        import threading
        fifo, plain = tmp_path / "out.fifo", tmp_path / "plain.trace"
        os.mkfifo(fifo)
        got = []
        # a daemon, so that a run that never opens the FIFO fails the test
        # instead of hanging it
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        argv = ["construct", "join-split", "mod 3", "--family", family_file,
                "--max-stages", "400", "--out"]
        code, _ = run(argv + [str(fifo)], capsys)
        reader.join(timeout=30)
        assert code == 0 and not reader.is_alive()
        run(argv + [str(plain)], capsys)
        assert got == [plain.read_bytes()]


# T(x) = 0, 1, 2, 4, 16, 65536, 2**65536, ... for x = 0, 1, 2, ...: primitive
# recursive, yet no evaluation past x = 5 finishes
TOWER = "R(Z; C(S; C(R(Z; C(S; C(R(P[1,1]; C(S; P[4,4])); P[3,3], P[3,3]))); P[3,3])))"


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM here")
@pytest.mark.parametrize("argv, code", [
    (["join-split", "mod 3"], 0),
    (["meet-split", "evens"], 0),
    (["immune"], 0),
    (["immune", "--policy", "round-robin"], 0),
    (["incomparable", "--r", "evens"], 0),
    (["dense", "--x", "meet(evens, blocks 6)", "--z", "join(evens, blocks 6)"], 0),
    (["dense-incomparable", "--x", "meet(evens, mod 3)", "--t", "evens",
      "--z", "join(evens, mod 3)"], 0),
    (["diamond", "--x", "meet(evens, blocks 6)", "--z", "join(evens, blocks 6)"], 0),
    (["antichain", "--count", "2"], 2),
], ids=["join-split", "meet-split", "immune", "immune-round-robin", "incomparable", "dense",
        "dense-incomparable", "diamond", "antichain"])
def test_a_member_past_every_budget_ends_the_run(argv, code, capsys, tmp_path):
    """A stage machine asks a member only whether it converges within the
    stage budget, so a member whose evaluation never ends in practice still
    lets the run end; the alarm fails a regression instead of hanging."""
    family, trace = tmp_path / "tower.fam", tmp_path / "tower.trace"
    family.write_text(TOWER + "\n")

    def hung(signum, frame):
        pytest.fail(f"construct {argv[0]} over the tower family ran past 20 s")
    before = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        assert run(["construct", *argv, "--family", str(family), "--max-stages", "200",
                    "--out", str(trace)], capsys)[0] == code
        if code == 0:
            code, out = run(["verify", str(trace)], capsys)
            assert code == 0 and out.splitlines()[1:] == ["verify\tok\tok"]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)


@pytest.mark.parametrize("edit, named", [
    (lambda t: t.replace("\n5\tP", "\nbogus\n5\tP", 1), "line 22"),
    (lambda t: t.replace("construction\timmune\n", ""), "'construction'"),
    (lambda t: t.replace("max-stages\t30\n", ""), "'max-stages'"),
    (lambda t: t.replace("construction\timmune", "construction\tnonesuch"),
     "'nonesuch'"),
])
def test_malformed_trace_is_misuse(edit, named, capsys, family_file, tmp_path):
    trace = tmp_path / "imm.trace"
    run(["construct", "immune", "--family", family_file, "--max-stages", "30",
         "--out", str(trace)], capsys)
    trace.write_text(edit(trace.read_text()))
    assert main(["verify", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new, named", [
    ("policy\tround-robin", "policy\tbogus", "policy 'bogus'"),
    ("max-stages\t60", "max-stages\t-1", "max-stages -1"),
    ("cycle-budget\t-", "cycle-budget\t-4", "cycle-budget -4"),
    ("cycle-budget\t-", "cycle-budget\t0", "cycle-budget 0"),
])
def test_out_of_range_trace_header_is_misuse(old, new, named, capsys, tmp_path):
    golden = pathlib.Path(__file__).parent / "golden" / "immune.round-robin.trace"
    trace = tmp_path / "edited.trace"
    trace.write_text(golden.read_text().replace(old, new, 1))
    assert main(["verify", str(golden)]) == 0
    assert main(["verify", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace header") and named in err


@pytest.mark.parametrize("count", [DEFAULT_CEILING + 1, 900000000])
def test_max_stages_past_the_ceiling_costs_no_replay(count, monkeypatch, capsys, tmp_path):
    golden = pathlib.Path(__file__).parent / "golden" / "immune.round-robin.trace"
    trace = tmp_path / "edited.trace"
    trace.write_text(golden.read_text().replace("max-stages\t60", f"max-stages\t{count}", 1))

    def no_replay(*args, **kwargs):
        raise AssertionError("replayed a trace whose max-stages is past the ceiling")

    monkeypatch.setattr(punctual.constructions, "_drive", no_replay)
    assert main(["verify", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace header out of range") and f"max-stages {count}" in err


def test_malformed_record_costs_no_replay(monkeypatch, capsys, tmp_path):
    golden = pathlib.Path(__file__).parent / "golden" / "immune.round-robin.trace"
    text = golden.read_text().replace("max-stages\t60", "max-stages\t1000000000", 1)
    text = text.replace("\n17\t", "\n17\tgarbled\t", 1)
    trace = tmp_path / "edited.trace"
    trace.write_text(text)
    with pytest.raises(punctual.errors.ParseError) as parsed:
        punctual.constructions.parse_trace(text)
    assert "malformed trace record" in str(parsed.value)

    replays = []

    def no_replay(trace):
        replays.append(trace)
        raise AssertionError("replayed a trace with a malformed record")

    monkeypatch.setattr(punctual.constructions, "replay_from_trace", no_replay)
    assert main(["verify", str(trace)]) == 1
    assert capsys.readouterr().err == f"error: {parsed.value}\n"
    assert replays == []


def test_missing_construct_input_is_misuse(capsys):
    assert main(["construct", "diamond", "--z", "evens"]) == 1
    err = capsys.readouterr().err
    assert err == "error: construct diamond needs --x\n"


@pytest.mark.parametrize("argv, flag", [
    (["immune", "--witness", "nonexist.wit"], "--witness"),
    (["immune", "evens"], "target"),
    (["immune", "--z", "mod 3"], "--z"),
    (["antichain", "--x", "evens"], "--x"),
    (["join-split", "evens", "--z", "mod 3"], "target"),
    (["meet-split", "--z", "evens", "--r", "evens"], "--r"),
    (["incomparable", "--r", "evens", "--witness", "nonexist.wit"], "--witness"),
    (["dense", "--x", "evens", "--z", "mod 3", "--t", "evens"], "--t"),
    (["dense", "evens", "--x", "evens", "--z", "mod 3"], "target"),
    (["dense-incomparable", "--x", "evens", "--t", "evens", "--z", "mod 3", "--y", "id"],
     "--y"),
    (["diamond", "--x", "evens", "--z", "mod 3", "--witness", "nonexist.wit"], "--witness"),
    (["separator", "--x", "id", "--y", "evens", "--z", "mod 3"], "--z"),
])
def test_unread_construct_inputs_are_misuse(argv, flag, capsys):
    assert main(["construct", *argv, "--max-stages", "5"]) == 1
    assert capsys.readouterr().err == f"error: construct {argv[0]} does not read {flag}\n"


WITNESS = ("claim\treduction\nsource\tevens\ntarget\tevens\nhorizon\t1\n"
           "convention\tindex\nverified\t1\n---\n0\t0\n1\t1\n")


@pytest.mark.parametrize("edit, named", [
    (lambda t: t.replace("1\t1\n", "1\tx\n"), "line 9"),
    (lambda t: t.replace("1\t1\n", "1\t-1\n"), "negative witness value on line 9"),
    (lambda t: t.replace("0\t0\n", "zero\t0\n"), "line 8"),
    (lambda t: t + "\n", "line 10"),
    (lambda t: t.replace("horizon\t1\n", ""), "'horizon'"),
    (lambda t: t.replace("claim\treduction\n", ""), "'claim'"),
    (lambda t: t.replace("horizon\t1\n", "horizon\tone\n"), "'one'"),
])
def test_malformed_witness_is_misuse(edit, named, capsys, tmp_path):
    wit = tmp_path / "bad.wit"
    wit.write_text(edit(WITNESS))
    assert main(["reduce", "check", "evens", "evens", "--witness", str(wit),
                 "--horizon", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


def test_well_formed_witness_checks(capsys, tmp_path):
    wit = tmp_path / "good.wit"
    wit.write_text(WITNESS)
    code, out = run(["reduce", "check", "evens", "evens", "--witness", str(wit),
                     "--horizon", "1"], capsys)
    assert code == 0 and out.endswith("check\tok\n")


# each command reads witness row 3 as a bit index: (table, argv, line printed)
INDEX_READS = [
    ("g", ["reduce", "check", "evens", "mod 3", "--witness", "{wit}",
           "--horizon", "5"], "check\tok\n"),
    ("h", ["construct", "dense", "--x", "evens", "--z", "mod 3", "--witness",
           "{wit}", "--family", "{fam}", "--max-stages", "400"], "verdict\tok\n"),
    ("h", ["diamond", "evidence-q", "evens", "mod 3", "--q", "{wit}",
           "--horizon", "5"], "verdict\tevidence(1)\n"),
]


def index_read_argv(table, argv, value, tmp_path, family_file, capsys):
    """argv with {wit} a synth-g (g) or synth-h (h) witness for evens ->
    mod 3 at horizon 5 whose row 3 holds value."""
    g, h = tmp_path / "g.wit", tmp_path / "h.wit"
    assert main(["reduce", "synth-g", "evens", "mod 3", "--horizon", "5",
                 "--out", str(g)]) == 0
    assert main(["reduce", "synth-h", "evens", "mod 3", "--witness", str(g),
                 "--horizon", "5", "--out", str(h)]) == 0
    capsys.readouterr()
    wit = g if table == "g" else h
    rows = wit.read_text().splitlines(keepends=True)
    rows[rows.index("---\n") + 4] = f"3\t{value}\n"
    wit.write_text("".join(rows))
    return [a.format(wit=wit, fam=family_file) for a in argv]


@pytest.mark.parametrize("table, argv, line", INDEX_READS)
def test_index_value_past_ceiling_is_misuse(table, argv, line, tmp_path,
                                            family_file, capsys):
    value = DEFAULT_CEILING + 1
    assert main(index_read_argv(table, argv, value, tmp_path, family_file,
                                capsys)) == 1
    captured = capsys.readouterr()
    assert line not in captured.out
    assert captured.err == (f"error: witness maps 3 to {value}, past the index "
                            f"ceiling {DEFAULT_CEILING}\n")


@pytest.mark.parametrize("table, argv, line", INDEX_READS)
def test_index_value_at_ceiling_runs(table, argv, line, tmp_path, family_file,
                                     capsys):
    code, out = run(index_read_argv(table, argv, DEFAULT_CEILING, tmp_path,
                                    family_file, capsys), capsys)
    assert code == 0 and line in out


def test_step_budget_on_pattern_sets_grows_no_memo(tmp_path, family_file, capsys,
                                                 no_step_growth):
    # q maps stage 3 to a budget of 900000000 steps; evens and mod 3 count it
    # by arithmetic, so any memo growth under a step budget is a regression
    argv = ["diamond", "evidence-q", "evens", "mod 3", "--q", "{wit}", "--horizon", "5",
            "--convention", "steps"]
    argv = index_read_argv("h", argv, 900_000_000, tmp_path, family_file, capsys)
    code, out = run(argv, capsys)
    assert code == 0 and "verdict\tevidence(1)\n" in out


ONES = 'term "S" bound "C(S; C(S; P[1,1]))"'     # every n a member, no zero


def test_step_budget_stops_at_the_index_ceiling(tmp_path, family_file, capsys):
    # a term set grows its memo under a step budget, up to the ceiling
    argv = ["diamond", "evidence-q", ONES, "mod 3", "--q", "{wit}", "--horizon", "5",
            "--convention", "steps"]
    argv = index_read_argv("h", argv, 900_000_000_000_000, tmp_path, family_file, capsys)
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: term:S: a budget of 900000000000000 steps reads past bit "
        f"{DEFAULT_CEILING}, the index ceiling\n")


def test_zero_search_stops_at_the_index_ceiling(tmp_path, capsys):
    wit = tmp_path / "h.wit"
    wit.write_text("claim\tgrowth-h\nsource\tevens\ntarget\tterm:S\nhorizon\t3\n"
                   "convention\tindex\nverified\t1\n---\n"
                   + "".join(f"{x}\t1000000\n" for x in range(4)))
    argv = ["reduce", "synth-g", "evens", ONES, "--witness", str(wit), "--horizon", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: term:S: a search for zero number 1 reads past bit {DEFAULT_CEILING}, "
        f"the index ceiling\n")


def test_trace_bit_other_than_0_or_1_is_misuse(tmp_path, capsys):
    trace = tmp_path / "b.trace"
    assert main(["construct", "join-split", "--z", "mod 3", "--max-stages", "20",
                 "--out", str(trace)]) == 0
    trace.write_text(trace.read_text().replace("\tY0=0,", "\tY0=7,", 1))
    capsys.readouterr()
    assert main(["profile", f"trace {trace}", "--horizon", "5"]) == 1
    assert capsys.readouterr().err == (
        f"error: trace {trace} output Y0 bit 1 is 7, not 0 or 1\n")


@pytest.mark.parametrize("argv", [
    ["construct", "immune", "--family", "{bad}", "--max-stages", "5"],
    ["reduce", "check", "evens", "evens", "--witness", "{bad}", "--horizon", "1"],
    ["verify", "{bad}"],
    ["profile", "trace {bad}"],
])
def test_non_utf8_input_is_misuse(argv, capsys, tmp_path):
    bad = tmp_path / "bad.in"
    bad.write_bytes(b"\xff\xfe\n")
    assert main([a.format(bad=bad) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad} is not UTF-8 text (invalid start byte at byte 0)\n"


@pytest.mark.parametrize("levels", [400, 1000])
@pytest.mark.parametrize("where", ["descriptor", "family"])
def test_deeply_nested_term_is_misuse(levels, where, capsys, tmp_path):
    text = "C(S; " * levels + "P[1,1]" + ")" * levels
    if where == "descriptor":
        argv = ["profile", f'term "{text}" bound "C(S; P[1,1])"', "--horizon", "3"]
    else:
        family = tmp_path / "deep.fam"
        family.write_text(text + "\n")
        argv = ["construct", "immune", "--family", str(family), "--max-stages", "5"]
    assert main(argv) == 1
    limit = pr_lang.MAX_TERM_DEPTH
    err = capsys.readouterr().err
    at = 5 * limit + (6 if where == "descriptor" else 0)   # past 'term "'
    assert err == f"error: term nested deeper than {limit} levels (at position {at})\n"


@pytest.mark.parametrize("descriptor, message", [
    ("mod ²", "mod needs a number (at position 4)"),
    ("blocks ³", "blocks needs a number (at position 7)"),
    ("mod 99999999999999999999999",
     "mod K needs K <= the index ceiling 200000, got 99999999999999999999999"),
    ("mod 1000000000", "mod K needs K <= the index ceiling 200000, got 1000000000"),
    ("blocks 200001", "blocks K needs K <= the index ceiling 200000, got 200001"),
    ('term "P\u00e9" bound "S"', "term text must be ASCII"),
    ('term "P[100000000000000000000,1]" bound "S"',
     "projection P[100000000000000000000,1] needs n <= 4096 (at position 6)"),
    ('term "P[1000000000,1]" bound "S"',
     "projection P[1000000000,1] needs n <= 4096 (at position 6)"),
    # past int()'s 4,300-digit limit: the digit run's start
    pytest.param("mod " + "1" * 5000, "number of 5000 digits is too long (at position 4)",
                 id="mod-5000-digits"),
    pytest.param("blocks " + "1" * 4301, "number of 4301 digits is too long (at position 7)",
                 id="blocks-4301-digits"),
    pytest.param(f'term "P[{"1" * 5000},1]" bound "S"',
                 "number of 5000 digits is too long (at position 8)", id="projection-5000-digits"),
])
def test_oversized_descriptor_numbers_are_misuse(descriptor, message, capsys):
    assert main(["profile", descriptor, "--horizon", "3"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    (tmp_path / "basic.fam").write_text(
        "\n".join(cli_transcripts.readme_block("### Family files")) + "\n")
    monkeypatch.chdir(tmp_path)
    lines = cli_transcripts.readme_block("## Command-line usage")
    assert len(lines) == 11 and all(line.startswith("punctual ") for line in lines)
    # in order: the --out files of earlier lines feed later ones
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
    # and each line is pinned by exactly one golden transcript
    argvs = [argv for argv, _ in cli_transcripts.CASES.values()]
    for line in lines:
        assert argvs.count(shlex.split(line)[1:]) == 1, line


def test_readme_states_no_benchmark_figure():
    """Figures belong in CHANGES.md and the BENCH_*.json files, where a
    later change cannot turn them false."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    figure = re.compile(r"jobs/s|jobs_per_s|job_p50|job_p90|peak_rss|\d\s*(?:ms|us|MB|KB)\b")
    assert [line for line in readme.splitlines() if figure.search(line)] == []


def test_trace_descriptor_unknown_output_is_misuse(capsys):
    golden = pathlib.Path(__file__).parent / "golden" / "join-split.once.trace"
    assert main(["profile", f"trace {golden}:Y1", "--horizon", "4"]) == 0
    assert main(["profile", f"trace {golden}:Nope", "--horizon", "4"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: trace {golden} has no output 'Nope'; its outputs are Y0, Y1\n"


def test_quoted_trace_path_may_hold_blanks(capsys, tmp_path):
    golden = pathlib.Path(__file__).parent / "golden" / "join-split.once.trace"
    trace = tmp_path / "a b" / "js.trace"
    trace.parent.mkdir()
    trace.write_bytes(golden.read_bytes())
    for descriptor, rows in ((f'trace "{trace}"', ["0\t0\t0", "1\t1\t0", "2\t2\t0"]),
                             (f'trace "{trace}:Y1"', ["0\t0\t0", "1\t0\t0", "2\t1\t0"])):
        code, out = run(["profile", descriptor, "--horizon", "2"], capsys)
        assert code == 0 and out.splitlines()[1:] == rows


def test_every_library_error_maps_to_an_exit_code():
    """main catches MisuseError (exit 1) and StageBudgetExhausted (exit 2),
    so no other PunctualError may exist."""
    def subclasses(cls):
        return [sub for direct in cls.__subclasses__() for sub in (direct, *subclasses(direct))]

    errors = subclasses(PunctualError)
    assert ParseError in errors
    assert all(issubclass(e, (MisuseError, StageBudgetExhausted)) for e in errors)


def test_consecutive_calls_echo_their_own_config(capsys, family_file):
    calls = [
        (["profile", "evens", "--horizon", "2"],
         "command=profile descriptor=evens horizon=2"),
        (["lattice", "join", "evens", "mod 3", "--horizon", "3"],
         "a=evens b=mod 3 command=lattice horizon=3 lattice_op=join"),
        (["lattice", "distrib", "evens", "mod 3", "id", "--horizon", "3"],
         "a=evens b=mod 3 c=id command=lattice horizon=3 lattice_op=distrib"),
        (["lattice", "equilibrium", "evens", "mod 3", "--horizon", "3"],
         "a=evens b=mod 3 command=lattice convention=index horizon=3"
         " lattice_op=equilibrium"),
        (["profile", "mod 3"],
         "command=profile descriptor=mod 3 horizon=100"),
        (["reduce", "synth-g", "evens", "mod 3", "--horizon", "4"],
         "a=evens b=mod 3 command=reduce horizon=4 out=None reduce_op=synth-g"
         " witness=None"),
        (["construct", "immune", "--family", family_file, "--max-stages", "5",
          "--policy", "round-robin"],
         f"command=construct construct_op=immune count=2 family={family_file} k=1"
         " max_stages=5 out=None policy=round-robin r=None t=None target=None"
         " witness=None x=None y=None z=None"),
        (["construct", "immune", "--max-stages", "4"],
         "command=construct construct_op=immune count=2 family=None k=1"
         " max_stages=4 out=None policy=once r=None t=None target=None"
         " witness=None x=None y=None z=None"),
    ]
    for argv, config in calls:
        _, out = run(argv, capsys)
        assert out.splitlines()[0] == f"# config {config}"


def test_python_m_punctual_runs_the_cli(capsys):
    src = str(pathlib.Path(punctual.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["profile", "evens", "--horizon", "10"]
    proc = subprocess.run([sys.executable, "-m", "punctual", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout == run(argv, capsys)[1]


def test_a_small_command_loads_no_heavy_stdlib_module():
    # dataclasses (with inspect under it) and hashlib each cost a command
    # milliseconds of import; profile needs none of them, and the package
    # alone loads no module but itself
    src = str(pathlib.Path(punctual.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import punctual\n"
            "print(sorted(set(sys.modules) - before))\n"
            "from punctual import cli\n"
            "cli.main(['profile', 'evens', '--horizon', '3'])\n"
            "print([m for m in ('dataclasses', 'inspect', 'hashlib') if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "['punctual']" and lines[-1] == "[]"


def test_python_m_punctual_usage_error_exits_1():
    src = str(pathlib.Path(punctual.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "punctual", "reduce", "check",
                           "evens", "evens", "--bogus"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.endswith("error: unrecognized arguments: --bogus\n")


# every option each subcommand accepts; a new option must be read by its
# command, and then it belongs in this table
OPTION_DESTS = {
    "profile": ["horizon"],
    "lattice": [],
    "lattice join": ["horizon"],
    "lattice meet": ["horizon"],
    "lattice distrib": ["horizon"],
    "lattice equilibrium": ["horizon", "convention"],
    "reduce": ["witness", "out", "horizon"],
    "diamond": ["q", "q_program", "k", "relaxed", "horizon", "convention"],
    "slow": ["family", "window"],
    "construct": ["z", "family", "max_stages", "policy", "x", "y", "t", "r",
                  "count", "k", "witness", "out"],
    "verify": [],
}


def test_cli_option_surface():
    surface = {}

    def walk(parser, prefix):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sp in action.choices.items():
                    path = f"{prefix} {name}".strip()
                    surface[path] = [a.dest for a in sp._actions
                                     if a.option_strings and a.dest != "help"]
                    walk(sp, path)

    walk(build_parser(), "")
    assert surface == OPTION_DESTS


@pytest.mark.parametrize("argv", [
    ["profile", "evens", "--out", "x"],
    ["profile", "evens", "--convention", "steps"],
    ["lattice", "join", "evens", "mod 3", "--out", "x"],
    ["lattice", "join", "evens", "mod 3", "--convention", "steps"],
    ["lattice", "meet", "evens", "mod 3", "--convention", "index"],
    ["lattice", "distrib", "evens", "mod 3", "id", "--convention", "steps"],
    ["lattice", "join", "evens", "mod 3", "id"],
    ["diamond", "canonical", "evens", "mod 3", "--out", "x"],
    ["slow", "make", "--out", "x"],
])
def test_unread_options_are_rejected(argv, capsys):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


FUZZ_PIECES = [b"0", b"7", b"-", b"x", b"\t", b"\n", b" ", b"(", b";", b"#", b"P[",
               b"\xff", b"\x00"]


def fuzz_mutation(rng, data):
    """One seeded edit: replace, insert or delete bytes, drop or swap a
    line, or truncate."""
    lines = data.split(b"\n")
    op = rng.randrange(6)
    i = rng.randrange(len(data))
    if op == 0:
        return data[:i] + rng.choice(FUZZ_PIECES) + data[i + 1:]
    if op == 1:
        return data[:i] + rng.choice(FUZZ_PIECES) + data[i:]
    if op == 2:
        return data[:i] + data[i + rng.randint(1, 8):]
    if op == 3:
        del lines[rng.randrange(len(lines))]
        return b"\n".join(lines)
    if op == 4:
        a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[a], lines[b] = lines[b], lines[a]
        return b"\n".join(lines)
    return data[:i]


def test_fuzzed_input_files_end_in_a_documented_exit(tmp_path, family_file, capsys):
    trace, witness = str(tmp_path / "t.trace"), str(tmp_path / "w.wit")
    assert main(["construct", "immune", "--family", family_file, "--max-stages", "40",
                 "--out", trace]) == 0
    assert main(["reduce", "synth-g", "evens", "mod 3", "--horizon", "30",
                 "--out", witness]) == 0
    mutant = str(tmp_path / "mutant")
    commands = {
        trace: ["verify", mutant],
        witness: ["reduce", "check", "evens", "mod 3", "--witness", mutant,
                  "--horizon", "30"],
        family_file: ["construct", "immune", "--family", mutant, "--max-stages", "30"],
    }
    rng = random.Random(10)
    for path, argv in commands.items():
        with open(path, "rb") as fh:
            original = fh.read()
        codes = collections.Counter()
        for _ in range(150):
            data = fuzz_mutation(rng, original)
            if data == original:
                continue
            with open(mutant, "wb") as fh:
                fh.write(data)
            capsys.readouterr()
            code = main(argv)      # a traceback would escape main as an exception
            codes[code] += 1
            out, err = capsys.readouterr()
            assert code in (0, 1), (path, data)
            # a failure is reported as a misuse error or a failed check
            assert code == 0 or err.startswith("error: ") or "\tfail" in out, (out, err)
            # a trace verifies byte for byte, so no edit of one passes
            assert code == 1 or path != trace
        assert codes[1] >= 50, codes
        os.remove(mutant)
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")


# ---------------------------------------------------------------------------
# Lines end only at the newlines read_text folds: "\n", "\r\n" and "\r"

# the line breaks of str.splitlines that are not newlines, and the
# whitespace that int() strips from a number (a blank, not "\x1c"-"\x1e")
OTHER_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
STRIPPED = [" ", "\v", "\f", "\x85", "\u2028", "\u2029"]
GOLDEN_TRACE = pathlib.Path(__file__).parent / "golden" / "join-split.empty.trace"


@pytest.mark.parametrize("brk", OTHER_BREAKS)
def test_a_bad_line_is_named_by_its_file_line_past_other_breaks(brk, tmp_path):
    row = f"1\tx{brk}"
    witness = tmp_path / "w.table"
    witness.write_bytes(WITNESS.replace("\n", f"{brk}\n", 1)
                        .replace("\n1\t1\n", f"\n{row}\n").encode())
    with pytest.raises(ParseError) as info:
        load_witness(witness)
    assert str(info.value) == f"malformed witness row on line 9: {row!r}"

    record = f"7x{brk}\tF1\ttransition\tY0=0,Y1=1\tclose:F1;open:F2"
    trace = tmp_path / "t.trace"
    trace.write_bytes(GOLDEN_TRACE.read_text()
                      .replace("construction\tjoin-split\n", f"construction\tjoin-split{brk}\n")
                      .replace("\n7\tF1\ttransition\tY0=0,Y1=1\tclose:F1;open:F2\n",
                               f"\n{record}\n").encode())
    with pytest.raises(ParseError) as info:
        verify_trace_file(trace)
    assert str(info.value) == f"malformed trace record on line 19: {record!r}"


@pytest.mark.parametrize("space", STRIPPED)
def test_whitespace_that_int_strips_reads_as_a_leading_space_does(space):
    text = GOLDEN_TRACE.read_text()
    padded = parse_trace(text.replace("\n7\tF1\t", f"\n7{space}\tF1\t", 1))
    assert padded.serialize() == text
    table = parse_witness(WITNESS.replace("\n1\t1\n", f"\n1\t1{space}\n"))
    assert list(table.program.values) == [0, 1]


def test_a_crlf_file_reads_as_its_lf_text_and_fails_verify_at_the_first_cr(tmp_path, capsys):
    text = GOLDEN_TRACE.read_text()
    trace = tmp_path / "crlf.trace"
    trace.write_bytes(text.replace("\n", "\r\n").encode())
    assert parse_trace(trace.read_bytes().decode()).serialize() == text
    assert main(["verify", str(trace)]) == 1
    assert capsys.readouterr().out.endswith("\nverify\tfail\tdivergence at byte 16: line 1\n")
    witness = tmp_path / "w.table"
    witness.write_bytes(WITNESS.replace("\n", "\r\n").encode())
    assert list(load_witness(witness).program.values) == [0, 1]
