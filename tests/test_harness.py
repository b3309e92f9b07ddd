"""The bench harnesses' shared counting and result storage, tools/harness.py,
and the line counter tools/src_lines.py."""
import json
import pathlib
import sys

import pytest
from conftest import BOUND_LINEAR, EVENS_TERM

from punctual import constructions, reductions, sets
from punctual.constructions import construct_immune, save_trace
from punctual.pr_lang import parse_term
from punctual.sets import PrSet, parse_set, set_join, term_set

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tools"))
import harness  # noqa: E402
import src_lines  # noqa: E402

BITS = {"bit_calls": (PrSet, "bit")}


def counted(read) -> dict:
    counts = {}
    with harness.counting(counts, BITS):
        read()
    return harness.with_per_bit(counts)


def test_a_pattern_read_is_one_fill():
    s = parse_set("join(evens, mod 3)")
    assert counted(lambda: s.bit(100)) == {
        "ensure_entries": 1, "memo_bits": 101, "pattern_fill_bits": 101,
        "operand_fill_bits": 0, "bit_calls": 1, "per_bit_bits": 0}


def test_term_reads_go_bit_by_bit_and_a_join_fills_from_their_memo():
    t = term_set(parse_term(EVENS_TERM), parse_term(BOUND_LINEAR))
    assert counted(lambda: [t.bit(n) for n in range(100)]) == {
        "ensure_entries": 100, "memo_bits": 100, "pattern_fill_bits": 0,
        "operand_fill_bits": 0, "bit_calls": 100, "per_bit_bits": 100}
    # building the join reads bit 0 of each operand; reading it then grows
    # mod 3's other 99 bits by a pattern fill and its own 100 from the
    # operands' memos
    j = set_join(parse_set("mod 3"), t)
    assert counted(lambda: j.bit(99)) == {
        "ensure_entries": 3, "memo_bits": 199, "pattern_fill_bits": 99,
        "operand_fill_bits": 100, "bit_calls": 1, "per_bit_bits": 0}


def test_counts_keep_their_order_and_given_keys():
    counts = {"first": 7}
    with harness.counting(counts, {"fallbacks": (reductions, "_parse_rows")}):
        pass
    assert list(counts.items()) == [("first", 7), ("ensure_entries", 0), ("memo_bits", 0),
                                    ("pattern_fill_bits", 0), ("operand_fill_bits", 0),
                                    ("fallbacks", 0)]


def test_every_patched_attribute_is_restored():
    spots = [(PrSet, "_ensure"), (sets._Pattern, "__call__"), (sets._MemoFill, "__call__"),
             (PrSet, "bit"), (reductions, "_parse_rows")]
    calls = {"bit_calls": spots[3], "fallbacks": spots[4]}
    originals = [vars(owner)[name] for owner, name in spots]

    def restored():
        return all(vars(owner)[name] is original
                   for (owner, name), original in zip(spots, originals))

    counts = {}
    with harness.counting(counts, calls):
        assert not any(vars(owner)[name] is original
                       for (owner, name), original in zip(spots, originals))
        parse_set("evens").bit(3)
    assert restored() and counts["bit_calls"] == counts["ensure_entries"] == 1
    with pytest.raises(ZeroDivisionError):
        with harness.counting({}, calls):
            1 / 0
    assert restored()


def test_parses_count_on_empty_caches_and_leave_the_kept_ones(tmp_path):
    path = tmp_path / "t.trace"
    save_trace(construct_immune([], 20), str(path))
    descs = [f"trace {path}", f"join(trace {path}, mod 3)", "meet(evens, mod 3)"]
    for desc in descs:
        parse_set(desc)
    kept = [constructions._trace_outputs, sets._lattice_pattern_of]
    held = [cache.cache_info() for cache in kept]
    counts = {}
    with harness.counting_parses(counts):
        for desc in descs * 3:
            parse_set(desc)
    # one parse per text, one build per pattern, though both were kept before
    assert counts == {"trace_parses": 1, "pattern_builds": 2}
    assert [constructions._trace_outputs, sets._lattice_pattern_of] == kept
    assert [cache.cache_info() for cache in kept] == held


def test_store_keeps_the_other_labels(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "ROOT", str(tmp_path))
    path = tmp_path / "BENCH_x.json"
    harness.store("x", "before", {"n": 1})
    harness.store("x", "after", {"n": 2})
    stored = json.loads(path.read_text())
    assert stored["harness"] == "tools/bench_x.py"
    assert list(stored["runs"]) == ["before", "after"]
    assert [list(run) for run in stored["runs"].values()] == [["n", "machine"]] * 2
    harness.store("x", "before", {"n": 3})
    stored = json.loads(path.read_text())
    assert [run["n"] for run in stored["runs"].values()] == [3, 2]
    echoed = capsys.readouterr().out.split("\n}\n")
    assert json.loads(echoed[-2] + "}") == {"before": stored["runs"]["before"]}


def test_src_lines_counts_a_package_and_refuses_an_empty_directory(tmp_path, capsys):
    (tmp_path / "mod.py").write_text('"""Doc."""\n\nx = 1  # one\n# alone\n')
    (tmp_path / "notes.txt").write_text("x = 2\n")
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["mod.py", "4", "1", "1", "1", "1"]
    assert out[2].split() == ["total", "4", "1", "1", "1", "1"]
    (tmp_path / "mod.py").unlink()
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: no *.py file in {tmp_path}\n"
