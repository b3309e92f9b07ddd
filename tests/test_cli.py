import io

import pytest

from punctual.cli import main

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


class TestSlowCli:
    def test_make_and_check(self, capsys, family_file, tmp_path):
        code, out = run(["slow", "make", "--family", family_file,
                         "--window", "6"], capsys)
        assert code == 0
        assert out.count("zero\t") == 7


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

    def test_missing_trace_is_io_error(self, capsys):
        assert main(["verify", "/nonexistent/path.trace"]) == 3


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


def test_missing_construct_input_is_misuse(capsys):
    assert main(["construct", "diamond", "--z", "evens"]) == 1
    err = capsys.readouterr().err
    assert err == "error: construct diamond needs --x\n"


WITNESS = ("claim\treduction\nsource\tevens\ntarget\tevens\nhorizon\t1\n"
           "convention\tindex\nverified\t1\n---\n0\t0\n1\t1\n")


@pytest.mark.parametrize("edit, named", [
    (lambda t: t.replace("1\t1\n", "1\tx\n"), "line 9"),
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
