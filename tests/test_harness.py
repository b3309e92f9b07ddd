"""The bench harnesses' shared counting and result storage, tools/harness.py,
the line counter tools/src_lines.py and the coverage report
tools/line_cover.py."""
import json
import os
import pathlib
import sys

import pytest
from conftest import BOUND_LINEAR, EVENS_TERM, MOD2

from punctual import constructions, pr_lang, reductions, sets
from punctual.constructions import construct_immune, save_trace
from punctual.pr_lang import parse_term
from punctual.sets import PrSet, parse_set, set_join, term_set

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tools"))
import harness  # noqa: E402
import line_cover  # noqa: E402
import src_lines  # noqa: E402

BITS = {"bit_calls": (PrSet, "bit")}


def counted(read) -> dict:
    counts = {}
    with harness.counting(counts, BITS):
        read()
    return harness.with_per_bit(counts)


def test_a_pattern_read_is_one_fill():
    s = parse_set("join(evens, mod 3)")
    assert counted(lambda: s.prefix(100)) == {
        "ensure_entries": 1, "memo_bits": 101, "pattern_fill_bits": 101,
        "operand_fill_bits": 0, "pattern_bit_reads": 0, "term_visits": 0, "bit_calls": 0,
        "per_bit_bits": 0}
    # a bit past the memo is read off the pattern, with no memo entry
    assert counted(lambda: s.bit(10 ** 15)) == {
        "ensure_entries": 0, "memo_bits": 0, "pattern_fill_bits": 0,
        "operand_fill_bits": 0, "pattern_bit_reads": 1, "term_visits": 0, "bit_calls": 1,
        "per_bit_bits": 0}
    assert s.decided == 101


def test_term_reads_go_bit_by_bit_and_a_join_fills_from_their_memo():
    term = parse_term(EVENS_TERM)
    t = term_set(term, parse_term(BOUND_LINEAR))
    assert counted(lambda: [t.bit(n) for n in range(100)]) == {
        "ensure_entries": 100, "memo_bits": 100, "pattern_fill_bits": 0,
        "operand_fill_bits": 0, "pattern_bit_reads": 0,
        "term_visits": sum(pr_lang.eval_cost(term, [n]) for n in range(100)),
        "bit_calls": 100, "per_bit_bits": 100}
    # building the join reads bit 0 of each operand, mod 3's off its
    # pattern; reading the join then grows mod 3's 100 bits by a pattern
    # fill and its own 100 from the operands' memos
    j = set_join(parse_set("mod 3"), t)
    assert counted(lambda: j.bit(99)) == {
        "ensure_entries": 3, "memo_bits": 200, "pattern_fill_bits": 100,
        "operand_fill_bits": 100, "pattern_bit_reads": 0, "term_visits": 0, "bit_calls": 1,
        "per_bit_bits": 0}


def test_term_visits_are_the_visits_of_the_bits_grown():
    term = parse_term(EVENS_TERM)
    t = parse_set(f'term "{EVENS_TERM}" bound "{BOUND_LINEAR}"')
    t.bit(4)
    # bits 5..12 grow, each once, by a read and a step query past the memo;
    # reads the memo holds, and the sets built over it, add none
    counts = counted(lambda: (t.zeros_by_index(9), t.bit(3), t.cum_cost(12),
                              t.zeros_by_steps(t.cum_cost(7))))
    assert counts["memo_bits"] == 8
    assert counts["term_visits"] == sum(pr_lang.eval_cost(term, [n]) for n in range(5, 13))
    assert counted(lambda: set_join(parse_set("evens"), t).prefix(12))["term_visits"] == 0
    # a join forces 0 into a term set without it by a flip that keeps its
    # dsl; the flip reads the term set's costs and runs no term
    odd = parse_set(f'term "{MOD2}" bound "{BOUND_LINEAR}"')
    counts = counted(lambda: set_join(odd, parse_set("evens")).prefix(20))
    assert odd.decided > 20
    assert counts["term_visits"] == sum(pr_lang.eval_cost(parse_term(MOD2), [n])
                                        for n in range(odd.decided))


def test_counts_keep_their_order_and_given_keys():
    counts = {"first": 7}
    with harness.counting(counts, {"fallbacks": (reductions, "_parse_rows")}):
        pass
    assert list(counts.items()) == [("first", 7), ("ensure_entries", 0), ("memo_bits", 0),
                                    ("pattern_fill_bits", 0), ("operand_fill_bits", 0),
                                    ("pattern_bit_reads", 0), ("term_visits", 0),
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
        evens = parse_set("evens")
        evens.bit(3)
        evens.prefix(3)
    # PrSet.bit is wrapped twice, and each wrap counts the one read
    assert restored() and counts["bit_calls"] == counts["pattern_bit_reads"] == 1
    assert counts["ensure_entries"] == 1 and counts["memo_bits"] == 4
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


def test_line_cover_reports_the_executable_lines_no_hit_reached(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Doc."""\n'
        "import os\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Doc."""\n'
        "    if x:\n"
        "        return [y for y in os.sep]\n"
        "    return 0\n")
    (tmp_path / "empty.py").write_text("# nothing\n")
    path = os.path.realpath(tmp_path / "mod.py")
    assert line_cover.executable_lines((tmp_path / "mod.py").read_text(), path) == {
        1, 2, 5, 7, 8, 9}
    assert line_cover.report(str(tmp_path), {path: {1, 2, 5, 7, 9}}) == [
        "module             executable  missed",
        "empty.py                    0       0",
        "mod.py                      6       1",
        "total                       6       1",
        "",
        "mod.py:8: return [y for y in os.sep]"]
    assert line_cover.report(str(tmp_path), {path: set(range(10))})[-1].split() == [
        "total", "6", "0"]
