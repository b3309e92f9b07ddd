"""Fast synthesis and memo paths against the definitional paths they replace.

The references below are the earlier, definitional versions: the two
"least fresh zero" mu-searches that rescan from 0 for every pick, the
per-stage step-rate table, the bit-by-bit step-profile count, the
principal-zero scan, the one-row-at-a-time witness writer and reader
(which the column writer and, under the decimal cap, the column reader
replace), the
per-line trace record loop, one profile read per stage, the all-pairs
reduction check, one cost read per index in the step-rate syntheses,
one zero search per fresh pick, one step count per budget of a pattern
set's steps column, one ``value`` read per point of a program's
column, and one ``converges_within`` read per point of the least-pair
scan.  Each fast
path must give the same table or value, or raise the same exception class
with the same message, and must not materialise a bit past the one the
reference reads up to.  Range fills are checked against the per-bit memo
loop, which stays in ``PrSet._ensure``, sets built as patterns from
pattern operands against the lattice and flip fills they replace, and
sets built from kept trace parses and lattice patterns against sets built
after the caches are cleared.
"""

import bisect
import collections
import contextlib
import itertools
import math
import os
import pathlib
import random
import sys

import pytest

from punctual import _text, constructions, pr_lang, reductions, sets
from punctual._text import decode_text
from punctual.constructions import (
    _fresh_zero_table,
    _parse_record_lines,
    _parse_records,
    _split_trace,
    construct_dense,
    construct_immune,
    construct_join_split,
    save_trace,
)
from punctual.errors import (
    BudgetExceeded,
    CeilingExceeded,
    NotAReduction,
    NotCertified,
    ParseError,
    PreconditionFailed,
    PunctualityViolation,
    WitnessBoundViolated,
)
from punctual.pr_lang import (
    FloorTableProgram,
    NativeProgram,
    TableProgram,
    TermProgram,
    parse_term,
)
from punctual.lattice import equilibrium_points
from punctual.reductions import (
    Counterexample,
    ReductionWitness,
    _massage_for_growth,
    as_program,
    domination_certificate,
    parse_witness,
    require_reduction,
    respect_normal_form,
    serialize_witness,
    surjectivize,
    synth_p_from_reduction,
    synth_reduction_from_h,
)
from punctual.sets import (
    IdentityRelation,
    PredicateRelation,
    Prefix,
    PrSet,
    SetRelation,
    blocks_set,
    drop_least_zero,
    evens_set,
    mod_set,
    normal_form,
    override_zero_member,
    parse_set,
    prefix_set,
    set_join,
    set_meet,
    zero_list_set,
)

from conftest import BOUND_LINEAR, EVENS_TERM, FAMILY_TEXTS, MOD2
from test_cli import fuzz_mutation

IDENTITY = NativeProgram("id", lambda x: x)


# ---------------------------------------------------------------------------
# Definitional references


def ref_synth_reduction_from_h(x, y, h, horizon):
    if y.bit(0) != 1:
        raise PreconditionFailed("growth-to-reduction synthesis needs 0 in the target set")
    hp = as_program(h)
    used = set()
    table = []
    for v in range(horizon + 1):
        if x.bit(v) == 1:
            table.append(0)
            continue
        ceiling = hp.value(v)
        pick = None
        for cand in range(ceiling + 1):
            if cand not in used and y.bit(cand) == 0:
                pick = cand
                break
        if pick is None:
            raise WitnessBoundViolated(
                f"mu-search under h({v})={ceiling} found no fresh zero of {y.name}")
        used.add(pick)
        table.append(pick)
    w = ReductionWitness(TableProgram(table, "g"), "reduction",
                         x.name, y.name, horizon, "index")
    require_reduction(w, SetRelation(x), SetRelation(y), horizon)
    return table


def ref_surjectivize(f, x, y, horizon):
    w = respect_normal_form(f, x, y, horizon)
    prog = w.program
    y0 = None
    for cand in range(horizon + 1):
        if y.bit(cand) == 1:
            y0 = cand
            break
    if y0 is None:
        raise PreconditionFailed(f"{y.name} has no member below the horizon")
    used = set()
    table = []
    running = 0
    for v in range(horizon + 1):
        running = max(running, prog.value(v))
        if x.bit(v) == 1:
            table.append(y0)
            continue
        pick = None
        for cand in range(running + 1):
            if cand not in used and y.bit(cand) == 0:
                pick = cand
                break
        if pick is None:
            raise NotAReduction(
                f"mu-search under max f on 0..{v} found no fresh zero of {y.name}")
        used.add(pick)
        table.append(pick)
    require_reduction(table, SetRelation(x), SetRelation(y), horizon)
    comp = [n for n in range(horizon + 1) if x.bit(n) == 0]
    for a, b in zip(comp, comp[1:]):
        if not table[a] < table[b]:
            raise NotAReduction("surjectivized table is not increasing on the complement")
    return table


def ref_synth_p_table(f, x, y, horizon):
    k_max = 0
    while x.cum_cost(k_max + 1) <= horizon:
        k_max += 1
    prog = _massage_for_growth(f, x, y, k_max)
    table = []
    running = 0
    for s in range(horizon + 1):
        if s <= k_max:
            running = max(running, prog.value(s))
        table.append(max(s + 1, y.cum_cost(running)))
    return table


def ref_zeros_by_steps(x, s):
    total = zeros = n = 0
    while True:
        total += x.bit_cost(n)
        if total > s:
            return zeros
        zeros += 1 - x.bit(n)
        n += 1


def ref_next_zero(x, after, ceiling):
    return next((p for p in range(after + 1, ceiling + 1) if x.bit(p) == 0), None)


def ref_principal_zero(x, n, ceiling):
    seen = 0
    for pos in range(ceiling + 1):
        if x.bit(pos) == 0:
            if seen == n:
                return pos
            seen += 1
    raise CeilingExceeded(
        f"{x.name}: fewer than {n + 1} zeros below ceiling {ceiling}")


def outcome(fn, *args):
    """A call's table or value, or its exception's class and message."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    return list(out.program.values) if isinstance(out, ReductionWitness) else out


# ---------------------------------------------------------------------------
# Descriptors: builtin, derived, drop and trace-backed, each made fresh


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    family = [TermProgram(parse_term(t)) for t in FAMILY_TEXTS]
    d = tmp_path_factory.mktemp("traces")
    save_trace(construct_immune(family, 200), str(d / "imm.trace"))
    save_trace(construct_join_split(parse_set("mod 3"), family, 200), str(d / "js.trace"))
    save_trace(construct_immune(family, 30), str(d / "short.trace"))
    # an edited trace, whose bits no run emitted: every member made a non-member
    with open(d / "imm.trace") as fh:
        (d / "odd.trace").write_text(fh.read().replace("\tY=1\t", "\tY=0\t"))
    return {"imm": str(d / "imm.trace"), "js": str(d / "js.trace"),
            "odd": str(d / "odd.trace"), "short": str(d / "short.trace")}


PAIRS = [
    ("meet(evens, mod 3)", "mod 3"),
    ("evens", "join(evens, mod 3)"),
    ("meet(blocks 3, evens)", "evens"),
    ("drop(evens)", "evens"),
    ("drop(mod 3)", "mod 3"),
    ("evens", "mod 3"),
    ("mod 3", "evens"),
    ("mod 5", "id"),
    ("meet(trace {imm}, evens)", "evens"),
    ("trace {imm}", "join(trace {imm}, mod 3)"),
    ("meet(trace {js}:Y0, mod 3)", "mod 3"),
    ("trace {js}:Y1", "drop(trace {js}:Y0)"),
    ("{evens}", "join({evens}, mod 3)"),
    ("mod 3", "{odds}"),                        # target lacks 0: no synthesis
]
SYNTH_PAIRS = range(len(PAIRS) - 1)
TERMS = {"evens": f'term "{EVENS_TERM}" bound "{BOUND_LINEAR}"',
         "odds": f'term "{MOD2}" bound "{BOUND_LINEAR}"'}


def make_pair(traces, i):
    return tuple(parse_set(d.format(**traces, **TERMS)) for d in PAIRS[i])


def h_tables(seed, horizon):
    """Seeded growth bounds, loose and tight, so some syntheses fail."""
    rng = random.Random(seed)
    out = [IDENTITY, NativeProgram("double", lambda v: 2 * v)]
    for slack in (0, 1, 3):
        t, top = [], 0
        for v in range(horizon + 1):
            top = max(top, v + rng.randint(-slack, 2 * slack + 1))
            t.append(top)
        out.append(TableProgram(t, f"h{slack}"))
    out.append(TableProgram([v // 2 for v in range(horizon + 1)], "half"))
    return out


@pytest.mark.parametrize("pair", range(len(PAIRS)))
def test_synth_reduction_from_h_matches_mu_search(pair, traces):
    for h in h_tables(pair, 120):
        x, y = make_pair(traces, pair)
        want = outcome(ref_synth_reduction_from_h, x, y, h, 120)
        x, y = make_pair(traces, pair)
        assert outcome(synth_reduction_from_h, x, y, h, 120) == want, h.name


def test_synth_reduction_from_h_covers_failures(traces):
    kinds = set()
    for pair in range(len(PAIRS)):
        for h in h_tables(pair, 120):
            x, y = make_pair(traces, pair)
            got = outcome(synth_reduction_from_h, x, y, h, 120)
            kinds.add(got[0] if isinstance(got, tuple) else "ok")
    assert kinds == {"ok", WitnessBoundViolated, PreconditionFailed}


BIG = NativeProgram("big", lambda v: 4 * v + 8)


def reduction_tables(x, y, horizon):
    """A synthesized reduction, one whose members stray out of y, and a
    table that is no reduction."""
    g = list(synth_reduction_from_h(x, y, BIG, horizon).program.values)
    a = y.principal_zero(horizon + 1)          # past every pick of g
    stray = [a if x.bit(n) == 1 else v for n, v in enumerate(g)]
    return [g, stray, [0] * len(g)]


@pytest.mark.parametrize("pair", SYNTH_PAIRS)
def test_surjectivize_matches_mu_search(pair, traces):
    horizon = 100
    x, y = make_pair(traces, pair)
    for t in reduction_tables(x, y, horizon):
        x, y = make_pair(traces, pair)
        want = outcome(ref_surjectivize, t, x, y, horizon)
        x, y = make_pair(traces, pair)
        assert outcome(surjectivize, t, x, y, horizon) == want


@pytest.mark.parametrize("pair", SYNTH_PAIRS)
def test_synth_p_table_matches_per_stage_formula(pair, traces):
    x, y = make_pair(traces, pair)
    g = synth_reduction_from_h(x, y, BIG, 60)
    horizon = x.cum_cost(60)
    for f, extra in [(g, 0), (g, 1), (g, 7), ([0] * 61, 0)]:
        x, y = make_pair(traces, pair)
        want = outcome(ref_synth_p_table, f, x, y, horizon + extra)
        x, y = make_pair(traces, pair)
        assert outcome(synth_p_from_reduction, f, x, y, horizon + extra) == want


def test_synth_p_tail_shapes():
    # past k_max the table is a run of one constant c, then s + 1; targets
    # of rising cost give a bare climb, a run then a climb, and a bare run
    def costly(name, bit, k):
        return lambda: PrSet(name, bit, lambda n: k * (n + 1))

    make_x = costly("costly evens", lambda n: 1 - n % 2, 1)
    targets = [lambda: parse_set("evens"), lambda: parse_set("join(evens, mod 3)"),
               costly("costly mod 3", lambda n: 1 if n % 3 == 0 else 0, 4)]
    shapes = set()
    for make_y in targets:
        g = synth_reduction_from_h(make_x(), make_y(), BIG, 30)
        horizon = make_x().cum_cost(30)
        for extra in (0, 1, 31):
            want = ref_synth_p_table(g, make_x(), make_y(), horizon + extra)
            got = synth_p_from_reduction(g, make_x(), make_y(), horizon + extra)
            assert isinstance(got.program, FloorTableProgram)
            assert list(got.program.values) == want
            assert [got.value(s) for s in range(len(want))] == want
            tail = want[31:]
            shapes.add((tail[0] == tail[1], tail[-1] == len(want)))
    assert shapes == {(False, True), (True, True), (True, False)}


def ref_synth_p(f, x, y, horizon):
    """ref_synth_p_table, then the self-check at the boundaries where the
    source reveals a bit, every cost read one index at a time."""
    table = ref_synth_p_table(f, x, y, horizon)
    k_max = 0
    while x.cum_cost(k_max + 1) <= horizon:
        k_max += 1
    boundaries = [0] + [x.cum_cost(k) for k in range(k_max + 1) if x.cum_cost(k) <= horizon]
    for s in boundaries:
        if x.zeros_by_steps(s) > y.zeros_by_steps(table[s]):
            raise NotAReduction(f"step-rate synthesis failed its own bound at s={s}")
    return table


def ref_synth_reduction_from_p(x, y, p, horizon):
    """synth_reduction_from_h under h(m) = p(cum_cost(m)), one read per m."""
    pp = as_program(p)
    table = [pp.value(x.cum_cost(m)) for m in range(horizon + 1)]
    return synth_reduction_from_h(x, y, TableProgram(table, "h-from-p"), horizon)


def ahead_of_its_memo(traces):
    """drop of a term set whose memo runs 150 bits past the drop's, so that
    the first read past the drop's memo catches up in one fill."""
    t = parse_set(TERMS["evens"])
    t.bit(150)
    return drop_least_zero(t)


def step_rate_pairs(traces):
    """Fresh-pair makers: the synthesis pairs, and a source whose fill, of
    bounded reach, can catch up."""
    return [lambda i=i: make_pair(traces, i) for i in SYNTH_PAIRS] + [
        lambda: (ahead_of_its_memo(traces), parse_set(TERMS["evens"]))]


def test_step_rate_syntheses_match_per_index_reads(traces):
    """Tables, errors and memo lengths of the column reads against one
    cost read per index, at budgets from 0 past the horizon's cost, on
    fresh sources and on sources grown past some of those budgets."""
    seen = set()
    for make in step_rate_pairs(traces):
        x, y = make()
        g = synth_reduction_from_h(x, y, BIG, 60)
        top = x.cum_cost(60)
        for f in (g, [0] * 61):
            for horizon in (0, 1, 2, 17, top - 1, top, top + 1, top + 40):
                for grown in (70, 0, -1):
                    runs = []
                    for synth in (ref_synth_p, synth_p_from_reduction):
                        x, y = make()
                        if grown >= 0:
                            x.bit(grown)
                        runs.append((outcome(synth, f, x, y, horizon), x.decided, y.decided))
                    assert runs[0] == runs[1], (make()[0].name, horizon, grown)
                seen.add(type(runs[0][0]))
                if type(runs[0][0]) is not list:
                    continue
                for h in (0, 1, 60):
                    p = TableProgram(runs[0][0], "p")
                    short = TableProgram(runs[0][0][:top // 2], "short")
                    for q in (p, short):
                        got = []
                        for synth in (ref_synth_reduction_from_p, reductions.synth_reduction_from_p):
                            x, y = make()
                            got.append((outcome(synth, x, y, q, h), x.decided, y.decided))
                        if type(got[0][0]) is not list:
                            # the column read may grow the source past the
                            # index whose cost the table does not cover
                            got = [run[0] for run in got]
                        assert got[0] == got[1], (make()[0].name, horizon, h, q.name)
    assert seen == {list, tuple}


def test_bits_within_matches_per_index_reads(traces):
    """The count of bits within a budget, and a memo grown to the first bit
    past it and no further (none for budgets of 0 and below)."""
    makers = [*(lambda k=k: SET_KINDS[k](traces) for k in SET_KINDS),
              lambda: ahead_of_its_memo(traces),
              lambda: prefix_set("costly", [1, 0, 0, 1], cost_fn=lambda n: 5 * n + 9)]
    for make in makers:
        for grown in (-1, 0, 1, 30):
            for s in (-3, 0, 1, 8, 9, 10, 100, 2000):
                x, ref = make(), make()
                if grown >= 0:
                    x.bit(grown)
                before = x.decided
                past = next(j for j in itertools.count() if ref.cum_cost(j) > s)
                assert x.bits_within(s) == past, (x.name, s)
                assert x.decided == (before if s <= 0 else max(before, past + 1)), (x.name, s)


def ref_bits_within(x, s):
    """``bits_within`` as defined: a step-limited growth for every budget."""
    if s > 0:
        x._ensure(s, steps=s)
    return bisect.bisect_right(x._cost_cum, s)


def ensure_entries(x) -> list:
    """The list each ``_ensure`` entry on x is appended to from now on."""
    entries, ensure = [], x._ensure
    x._ensure = lambda *args, **kwargs: entries.append(args) or ensure(*args, **kwargs)
    return entries


def overrun_term_set():
    """A term set whose bound, 12 n + 100, the term's cost overtakes at some
    bit past 0; with that bit."""
    bound = "C(S; " * 100 + "R(Z; " + "C(S; " * 12 + "P[3,3]" + ")" * 113
    term, limit = parse_term(EVENS_TERM), parse_term(bound)
    first = next(n for n in itertools.count()
                 if pr_lang.eval_cost(term, [n]) >= pr_lang.eval_total(limit, [n]))
    return lambda: parse_set(f'term "{EVENS_TERM}" bound "{bound}"'), first


def test_step_reads_skip_growth_the_memo_decides(traces):
    """A budget the memo's total cost already passes is answered without an
    ``_ensure`` entry; every budget gives the count, memo and error of the
    definitional growth, a bound overrun past the memo included."""
    overrun, first = overrun_term_set()
    makers = [*(lambda k=k: SET_KINDS[k](traces) for k in SET_KINDS),
              lambda: prefix_set("costly", [1, 0, 0, 1], cost_fn=lambda n: 5 * n + 9),
              overrun]
    skipped = raised = 0
    for make in makers:
        for grown in (-1, 0, 1, first - 1, 30):
            x, ref = make(), make()
            if grown >= 0:
                assert outcome(x.bit, grown) == outcome(ref.bit, grown), (x.name, grown)
            top = x._cost_cum[-1] if x.decided else 0
            for s in sorted({-3, 0, 1, 8, 9, 10, 100, 2000, 50_000, top - 1, top, top + 1}):
                entries = ensure_entries(x)
                decided = x.decided > 0 and x._cost_cum[-1] > s
                got = outcome(x.bits_within, s)
                assert got == outcome(ref_bits_within, ref, s), (x.name, grown, s)
                assert x.decided == ref.decided, (x.name, grown, s)
                if s > 0 and decided:
                    assert entries == [], (x.name, grown, s)
                    skipped += 1
                raised += isinstance(got, tuple) and got[0] is PunctualityViolation
                del x._ensure
    assert skipped > 50 and raised >= 5
    # the overrun raises at the bit where the growth reaches it, and again
    x = overrun()
    x.bit(first - 1)
    for _ in range(2):
        with pytest.raises(PunctualityViolation, match=f"at n={first}$"):
            x.bits_within(x.cum_cost(first - 1) + 1)
        assert x.decided == first


def test_step_reads_past_the_ceiling_raise_only_on_a_short_memo():
    """A budget past the index ceiling, on a memo whose cost already passes
    it, is answered with no CeilingExceeded, as the growth answers it; a
    memo within the budget still grows to the ceiling and raises."""
    s = 450_000     # bits cost 2 each: the ceiling's 200,001 bits cost 400,002
    make = lambda: sets._pattern_set("twos", sets._Pattern((), (1, 0), True, 1), None)
    ceiling = sets.DEFAULT_CEILING
    message = f"twos: a budget of {s} steps reads past bit {ceiling}, the index ceiling"
    for grown in (-1, 0, ceiling + 10_000, s // 2 + 5_000):
        x, ref = make(), make()
        if grown >= 0:
            x.bit(grown)
            ref.bit(grown)
        entries = ensure_entries(x)
        got = outcome(x.bits_within, s)
        assert got == outcome(ref_bits_within, ref, s)
        assert x.decided == ref.decided == max(grown + 1, ceiling + 1)
        if 2 * (grown + 1) > s:
            assert got == s // 2 and entries == []
        else:
            assert got == (CeilingExceeded, message)


def test_synth_p_stops_at_the_index_ceiling():
    x, y = parse_set("evens"), parse_set("join(evens, mod 3)")
    g = synth_reduction_from_h(x, y, IDENTITY, 50)
    for horizon in (250_000, 10 ** 9):
        x, y = parse_set("evens"), parse_set("join(evens, mod 3)")
        with pytest.raises(CeilingExceeded, match=(
                f"^evens: a budget of {horizon} steps reads past bit 200000, "
                "the index ceiling$")):
            synth_p_from_reduction(g, x, y, horizon)
        assert x.decided == sets.DEFAULT_CEILING + 1
    # a budget met by bit 200,000 passes the ceiling, to fail on g's horizon
    x, y = parse_set("evens"), parse_set("join(evens, mod 3)")
    assert outcome(synth_p_from_reduction, g, x, y, 200_000)[0] is BudgetExceeded


def ref_pick_table(xbits, y, ceiling, member):
    """Members to member, the j-th zero v of x to the least zero of y past
    the last pick and at most ceiling(v), read one bit at a time; the table
    ends at the first zero of x without one."""
    table, last = [], -1
    for v, b in enumerate(xbits):
        if b:
            table.append(member)
            continue
        last = ref_next_zero(y, last, ceiling(v))
        if last is None:
            break
        table.append(last)
    return table


def raising_after(k, ceiling):
    def read(v):
        if v > k:
            raise BudgetExceeded(f"ceiling read at {v}")
        return ceiling(v)

    return read


def ceiling_programs():
    """Ceilings as the programs the pick table reads them from: natives
    that stop the table, let it run, or raise part-way, and tables whose
    horizon ends part-way, at the start, or past every zero."""
    natives = [lambda v: v, lambda v: 2 * v + 3, lambda v: v // 2, lambda v: 400,
               lambda v: -1]
    natives += [raising_after(k, c) for k in (0, 9, 40, 119) for c in natives[:3]]
    tables = [TableProgram([2 * v + 3 for v in range(n)], f"c{n}") for n in (0, 1, 41, 121)]
    return [NativeProgram("c", fn) for fn in natives] + tables + [
        FloorTableProgram([5, 1, 9], 30, n, "f") for n in (2, 60, 120)]


def test_fresh_picks_match_the_per_pick_search(traces):
    """The picks from y's memo and one fresh_zeros pass against a search
    per pick, on fresh y and on y grown before the picks, under ceilings
    that stop the table, let it run, or raise part-way."""
    kinds = collections.Counter()
    for low, high in [(0, 4), (3, 2), (5, 1), (6, 0), (12, 12), (13, 12)]:
        xbits = make_pair(traces, low)[0].prefix(120).bits
        for ceiling in ceiling_programs():
            for grown in (-1, 5, 60, 500):
                runs = []
                for pick, c in ((ref_pick_table, ceiling.value),
                                (reductions._fresh_pick_table, ceiling)):
                    y = make_pair(traces, high)[1]
                    if grown >= 0:
                        y.bit(grown)
                    runs.append((outcome(pick, xbits, y, c, 7), y.decided))
                assert runs[0] == runs[1], (low, high, grown, ceiling.name)
                got = runs[0][0]
                kinds["raised" if isinstance(got, tuple) else
                      "ended" if len(got) < len(xbits) else "full"] += 1
    assert len(kinds) == 3 and min(kinds.values()) >= 20, kinds


# ---------------------------------------------------------------------------
# Descriptor memo


SET_KINDS = {
    "builtin": lambda t: parse_set("mod 3"),
    "term": lambda t: parse_set(TERMS["evens"]),
    "trace": lambda t: parse_set(f"trace {t['imm']}"),
    "join": lambda t: parse_set(f"join(blocks 3, trace {t['js']}:Y0)"),
    "meet": lambda t: parse_set("meet(evens, mod 3)"),
    "drop": lambda t: parse_set(f"drop(trace {t['imm']})"),
}


@pytest.mark.parametrize("kind", SET_KINDS)
def test_zeros_by_steps_matches_brute_force(kind, traces):
    make = SET_KINDS[kind]
    n = 40
    ref = make(traces)
    top = ref.cum_cost(n) + 1
    want = [ref_zeros_by_steps(ref, s) for s in range(-1, top + 1)]
    asc = make(traces)
    assert [asc.zeros_by_steps(s) for s in range(-1, top + 1)] == want
    order = list(range(-1, top + 1))
    random.Random(kind).shuffle(order)
    mixed = make(traces)
    assert {s: mixed.zeros_by_steps(s) for s in order} == dict(zip(range(-1, top + 1), want))
    # a fresh memo stops at the first bit whose cost passes s; a pattern
    # set counts by arithmetic and leaves its memo unchanged
    for s in (1, 2, top // 3, top):
        fresh = make(traces)
        fresh.zeros_by_steps(s)
        k = len(fresh._bits)
        if fresh._pattern is not None:
            assert k == 0
            continue
        assert fresh.cum_cost(k - 1) > s and (k == 1 or fresh.cum_cost(k - 2) <= s)


@pytest.mark.parametrize("kind", ["term", "trace", "join", "meet", "drop"])
def test_principal_zero_matches_scan(kind, traces):
    make = SET_KINDS[kind]
    ref = make(traces)
    x = make(traces)
    assert not isinstance(x, sets._ZeroListSet)
    for n in [3, 0, 10, 5, 25, 24, 1]:
        want = ref_principal_zero(ref, n, 10_000)
        assert x.principal_zero(n, 10_000) == want
        fresh = make(traces)
        assert fresh.principal_zero(n) == want
        assert len(fresh._bits) == want + 1


@pytest.mark.parametrize("kind", ["term", "trace", "join", "meet", "drop"])
def test_principal_zero_ceiling(kind, traces):
    make = SET_KINDS[kind]
    ref = make(traces)
    pos = ref_principal_zero(ref, 6, 10_000)
    for ceiling in (pos - 1, pos // 2, 0):
        want = outcome(ref_principal_zero, make(traces), 6, ceiling)
        assert want[0] is CeilingExceeded
        fresh = make(traces)
        assert outcome(fresh.principal_zero, 6, ceiling) == want
        assert len(fresh._bits) == ceiling + 1
        # a memo that already runs past the ceiling still answers by it
        grown = make(traces)
        grown.bit(pos + 20)
        assert outcome(grown.principal_zero, 6, ceiling) == want
    assert make(traces).principal_zero(6, pos) == pos


def test_principal_zero_reads_no_bit_past_ceiling():
    x = PrSet("fragile", lambda n: 1 if n % 4 == 0 or n > 10 else 0,
              lambda n: 1 if n <= 12 else 1 // 0)
    with pytest.raises(CeilingExceeded):
        x.principal_zero(20, ceiling=12)
    assert x.principal_zero(3, ceiling=12) == 5


ZERO_SEARCH_KINDS = dict(SET_KINDS, **{
    d: (lambda t, d=d: parse_set(d))
    for d in ("evens", "id", "blocks 3", "drop(evens)")},
    zero_list=lambda t: zero_list_set("gaps", lambda zs: zs[-1] * 2 + 1 if zs else 2),
    costly=lambda t: PrSet("costly", lambda n: 1 if n % 3 == 0 else 0, lambda n: 2 * n + 1))


@pytest.mark.parametrize("kind", ZERO_SEARCH_KINDS)
def test_next_zero_matches_scan(kind, traces):
    make = ZERO_SEARCH_KINDS[kind]
    ref = make(traces)
    span = [ref.bit(n) for n in range(60)]
    zero, member = span.index(0, 2), 59 - span[::-1].index(1)    # last member
    cases = 0
    for after in (-1, 0, zero, member):
        answer = ref_next_zero(ref, after, 10_000)
        for ceiling in (answer - 1, answer, answer + 7, after, after - 1):
            want = ref_next_zero(ref, after, ceiling)
            fresh = make(traces)
            assert fresh.next_zero(after, ceiling) == want, (after, ceiling)
            # a fresh memo ends at the zero found, or at the ceiling
            read = -1 if after >= ceiling else ceiling if want is None else want
            assert len(fresh._bits) == read + 1
            grown = make(traces)
            grown.bit(answer + 20)
            assert grown.next_zero(after, ceiling) == want
            cases += want is None
    assert cases                                # some ceilings hid the zero


def test_next_zero_reads_no_bit_past_ceiling():
    x = PrSet("fragile", lambda n: 1 if n % 4 == 0 or n > 10 else 0,
              lambda n: 1 if n <= 12 else 1 // 0)
    assert x.next_zero(-1, 12) == 1
    assert x.next_zero(8, 12) == 9
    assert x.next_zero(10, 12) is None
    assert x.next_zero(13, 12) is None
    assert x.next_zero(12, 12) is None
    assert len(x._bits) == 13


def next_zero_loop(x, ceilings):
    """One next_zero search per ceiling, each from the last pick."""
    picks, last = [], -1
    for ceiling in ceilings:
        last = x.next_zero(last, ceiling)
        if last is None:
            break
        picks.append(last)
    return picks


def ref_fresh_zeros(x, ceilings):
    picks, last = [], -1
    for ceiling in ceilings:
        last = ref_next_zero(x, last, ceiling)
        if last is None:
            break
        picks.append(last)
    return picks


@pytest.mark.parametrize("kind", ZERO_SEARCH_KINDS)
def test_fresh_zeros_matches_next_zero_loop(kind, traces):
    make = ZERO_SEARCH_KINDS[kind]
    ref = make(traces)
    zeros = [n for n in range(200) if ref.bit(n) == 0][:12]
    hide = len(zeros) // 2
    ceilings = {
        "tight": zeros,
        "loose": [z + 40 for z in zeros],
        "non-monotone": [z + 30 * (j % 2) for j, z in enumerate(zeros)],
        "falling": [zeros[-1] + 50 - j for j in range(len(zeros))],
        "hides": zeros[:hide] + [zeros[hide] - 1] + zeros[hide + 1:],
        "at the last pick": zeros[:hide] + [zeros[hide - 1]] + zeros[hide:],
        "none": [],
    }
    stopped = 0
    for name, cs in ceilings.items():
        want = ref_fresh_zeros(ref, cs)
        loop = make(traces)
        assert next_zero_loop(loop, cs) == want, name
        fresh = make(traces)
        assert list(fresh.fresh_zeros(cs)) == want, name
        # a fresh memo ends where the loop of searches ends it
        assert len(fresh._bits) == len(loop._bits), name
        grown = make(traces)
        grown.bit(zeros[-1] + 60)
        assert list(grown.fresh_zeros(cs)) == want, name
        stopped += len(want) < len(cs)
    assert stopped >= 2                         # some ceilings hid their zero


def test_fresh_zeros_reads_one_ceiling_per_pick():
    read = []

    def ceilings():
        for c in (5, 5, 5, 1, 9):
            read.append(c)
            yield c

    assert list(parse_set("mod 3").fresh_zeros(ceilings())) == [1, 2, 4]
    assert read == [5, 5, 5, 1]


@pytest.mark.parametrize("k", [0, 4, 9, 30])
def test_fresh_zeros_fails_where_the_next_zero_loop_fails(k):
    kinds = set()
    for cs in ([1, 2, 4, 5, 7, 8, 10, 11], [40] * 8, [3, 2, 40, 40], [50, 50, 3], [12] * 9,
               [0, 5], [60] * 30):
        loop = fragile(k)
        want = outcome(next_zero_loop, loop, cs)
        fresh = fragile(k)
        assert outcome(lambda x: list(x.fresh_zeros(cs)), fresh) == want, cs
        assert len(fresh._bits) == len(loop._bits), cs
        kinds.add(want[0] if isinstance(want, tuple) else "picks")
    assert kinds == {PunctualityViolation, "picks"}


@pytest.mark.parametrize("k", [0, 5, 20, 50])
def test_synth_reduction_from_h_with_a_fragile_source(k):
    # the source raises past bit k: a failed pick or a failing target below
    # k is reported first, else the source's own failure
    horizon = 60
    bounds = [IDENTITY, BIG, TableProgram([v // 2 for v in range(horizon + 1)], "half"),
              TableProgram([v + 1 for v in range(12)], "short")]
    targets = [lambda: parse_set("mod 3"), lambda: parse_set("evens"),
               lambda: fragile(k // 2 + 3, "target")]
    seen = set()
    for h in bounds:
        for make_y in targets:
            want = outcome(ref_synth_reduction_from_h, fragile(k), make_y(), h, horizon)
            assert outcome(synth_reduction_from_h, fragile(k), make_y(), h, horizon) == want
            if want[0] is PunctualityViolation:
                seen.add(want[1].split(":")[0])     # which set failed
            else:
                seen.add(want[0])
    assert "fragile" in seen


def test_synth_reduction_from_h_failures_before_the_source_fails():
    # the pick for zero 1 fails, or the target fails, long before bit 51 of x
    cases = [(TableProgram([v // 2 for v in range(61)], "half"), lambda: parse_set("mod 3"),
              WitnessBoundViolated),
             (IDENTITY, lambda: fragile(10, "target"), PunctualityViolation)]
    for h, make_y, kind in cases:
        want = outcome(ref_synth_reduction_from_h, fragile(50), make_y(), h, 60)
        assert want[0] is kind
        assert outcome(synth_reduction_from_h, fragile(50), make_y(), h, 60) == want


PROGRAMS = [
    TableProgram([5, 6, 7], "t"),
    FloorTableProgram([5, 6], 9, 12, "f"),
    TermProgram(parse_term(FAMILY_TEXTS[1])),
    NativeProgram("double", lambda v: 2 * v),
]
PROGRAM_IDS = ["table", "floor", "term", "native"]


@pytest.mark.parametrize("prog", PROGRAMS, ids=PROGRAM_IDS)
def test_values_upto_matches_value(prog):
    """The values up to n, read as the column values_at(range(n + 1))."""
    for n in (-3, -1, 0, 1, 2, 3, 5, 12, 13, 20):
        want = outcome(lambda: [prog.value(x) for x in range(n + 1)])
        assert outcome(lambda: list(prog.values_at(range(n + 1)))) == want, n


def point_columns(top):
    """Points around a horizon of top: empty, ranges from 0 and from k > 0
    (up by 1 and by 3), falling, sorted and unsorted lists with repeats,
    negative points and 0, points past the top, and a huge one."""
    rng = random.Random(top)
    unsorted = [rng.randint(0, top) for _ in range(30)]
    return [[], range(0), range(top + 1), range(top + 2), range(3, top + 1), range(3, top + 9),
            range(0, top + 1, 3), range(top, -1, -1), range(5, 2), range(0, -3),
            sorted(unsorted), unsorted, [0, 0, top], [-1], [2, -1, 0], [0, 1, -5, top + 1],
            [top, top + 1, 0], [1, 10 ** 12]]


def test_values_at_matches_value():
    """values_at against one value read per point, on all four program
    classes (tables of each kind at several horizons, natives that raise
    part-way), for the same values or the same error at the same point,
    reading an iterator no further than the per-point loop reads it."""
    progs = PROGRAMS + [TableProgram(range(40), "t40"), TableProgram([], "empty"),
                        FloorTableProgram([], 3, 7, "f7"),
                        FloorTableProgram([4, 1, 8], 0, 2, "f2"),
                        NativeProgram("upto 9", raising_after(9, lambda v: v * v))]
    for prog in progs:
        for points in point_columns(12) + point_columns(40):
            want = outcome(lambda: [prog.value(x) for x in points])
            assert outcome(lambda: list(prog.values_at(points))) == want, (prog, points)
            read = []
            logged = (read.append(x) or x for x in points)
            assert outcome(lambda: list(prog.values_at(logged))) == want, (prog, points)
            first_bad = next((i for i, x in enumerate(points)
                              if isinstance(outcome(prog.value, x), tuple)), len(points) - 1)
            assert len(read) == first_bad + 1, (prog, points)


def test_native_identity_is_the_identity():
    """``@id`` runs a C function; on ints it is the plain identity, through
    ``value`` and ``values_at`` alike, and it still prints as ``@id``."""
    ident = pr_lang.NATIVE_REGISTRY["id"]
    assert pr_lang.program_text(ident) == "@id"
    for points in point_columns(12) + [[-10 ** 12, -1, 0, 10 ** 12], range(-5, 6)]:
        want = [x for x in points]
        assert [ident.value(x) for x in points] == want, points
        assert list(ident.values_at(points)) == want, points
        assert list(ident.values_at(iter(points))) == want, points
    assert ident.cost(10 ** 12) == 1


def test_floor_values_upto_reads_no_dense_table(monkeypatch):
    def dense(self):
        raise AssertionError("the dense values were read")

    monkeypatch.setattr(FloorTableProgram, "values", property(dense))
    for prefix, floor, horizon in [([5, 6], 9, 12), ([], 3, 7), ([4, 1, 8], 0, 501_500),
                                   ([2] * 6, 2, 5)]:
        prog = FloorTableProgram(prefix, floor, horizon, "f")
        for n in (-3, -1, 0, 1, 2, 3, 5, 10, 12, 13, 20, 501_500):
            want = outcome(lambda: [prog.value(x) for x in range(min(n, 30) + 1)])
            if n <= 30 or n > prog.horizon:
                assert outcome(lambda: list(prog.values_at(range(n + 1)))) == want, n
            else:
                got = prog.values_at(range(n + 1))
                assert len(got) == n + 1 and list(got[:31]) == want
                assert got[-1] == prog.value(n)


def ref_fresh_zero_table(lower, upper, horizon):
    table, last = [], -1
    for s in range(horizon + 1):
        if lower.bit(s) == 1:
            table.append(0)
            continue
        last = ref_next_zero(upper, last, s)
        if last is None:
            break
        table.append(last)
    return table


def test_fresh_zero_table_ends_at_the_first_zero_without_a_partner():
    # zeros of the lower set at 1, 3, 4, 6; of the upper set at 1, 2, 6
    lower = prefix_set("lower", [1, 0, 1, 0, 0, 1, 0])
    upper = prefix_set("upper", [1, 0, 0, 1, 1, 1, 0])
    assert _fresh_zero_table(lower, upper, 6) == [0, 1, 0, 2]
    pairs = [("meet(evens, blocks 6)", "evens"), ("evens", "join(evens, blocks 6)"),
             ("evens", "meet(evens, blocks 3)"), ("mod 3", "evens")]
    ended = 0
    for low, high in pairs:
        want = ref_fresh_zero_table(parse_set(low), parse_set(high), 300)
        assert _fresh_zero_table(parse_set(low), parse_set(high), 300) == want
        ended += len(want) < 301
    assert ended == 2


@pytest.mark.parametrize("make", [
    lambda: [1, 0, 0, 1], lambda: (0, 1, 1), lambda: [], lambda: [True, False, True],
    lambda: [1, 0, True], lambda: ("1", "0", "0"), lambda: [2, 0, -1, 1],
    lambda: [1.0, 0, 1], lambda: range(3), lambda: (b for b in (1, 0, 1)),
], ids=["list", "tuple", "empty", "bools", "mixed", "strings", "ints", "floats",
        "range", "generator"])
def test_prefix_set_normalises_like_the_generator(make):
    want = tuple(1 if int(b) else 0 for b in make())
    head = prefix_set("t", make())._pattern.head
    assert head == want and [type(b) for b in head] == [int] * len(want)


def test_cursor_reads_no_bit_past_h():
    # the target raises on every bit past 10; the bound stops the scan first
    def bit(n):
        if n > 10:
            raise PunctualityViolation(f"bit {n} read")
        return 1 if n % 3 == 0 else 0

    x = parse_set("evens")
    h = TableProgram([v + 1 if v < 6 else 10 for v in range(20)], "tight")
    want = outcome(ref_synth_reduction_from_h, x, PrSet("fragile", bit), h, 19)
    assert want[0] is WitnessBoundViolated
    assert outcome(synth_reduction_from_h, x, PrSet("fragile", bit), h, 19) == want


# ---------------------------------------------------------------------------
# Range fills against the per-bit loop


@contextlib.contextmanager
def setting(name, value):
    """The module constant sets.<name> is `value` inside."""
    saved = getattr(sets, name)
    setattr(sets, name, value)
    try:
        yield
    finally:
        setattr(sets, name, saved)


def per_bit():
    """Every memo extension inside takes the per-bit loop."""
    return setting("_FILL_MIN", sys.maxsize)


def generic_fills():
    """Every derived set built inside keeps the generic fill: the lattice
    closures and ``_flip_fill``, over its operands' memos."""
    return setting("_PATTERN_MAX", 0)


FILLED = [
    "evens", "mod 3", "mod 7", "id", "blocks 1", "blocks 4", "bits 0,1,1,0,0",
    "bits 0,2,-1,0,3", "trace {imm}", "trace {odd}", "trace {js}:Y1",
    "drop(evens)", "drop(trace {imm})",
    "join(evens, mod 3)", "meet(join(evens, mod 3), mod 5)",
    "join(trace {imm}, mod 3)", "join(trace {odd}, mod 3)", "meet(drop(blocks 2), id)",
    "meet(trace {js}:Y0, join(trace {js}:Y1, evens))",
    "meet(join(trace {imm}, evens), mod 5)",
]
FILL_MINS = [1, 5, sets._FILL_MIN]


def make_filled(desc, traces):
    if desc.startswith("bits "):
        return prefix_set(desc, [int(c) for c in desc[5:].split(",")])
    return parse_set(desc.format(**traces))


def assert_memo_matches(x, ref):
    """x's memo is a prefix of the reference's, with every bit cost >= 1."""
    k = len(x._bits)
    assert x._bits == ref._bits[:k]
    assert x._zero_cum == ref._zero_cum[:k]
    assert x._cost_cum == ref._cost_cum[:k]
    assert all(b > a for a, b in zip([0] + x._cost_cum, x._cost_cum))


def read_orders(seed, top):
    rng = random.Random(seed)
    ascending, i = [], 0
    while i <= top:
        ascending.append(i)
        i += rng.randint(1, 70)
    return {"ascending": ascending, "shuffled": rng.sample(range(top + 1), 80),
            "jump": [top]}


@pytest.mark.parametrize("fill_min", FILL_MINS)
@pytest.mark.parametrize("desc", FILLED)
def test_fill_matches_per_bit_loop(desc, fill_min, traces, monkeypatch):
    monkeypatch.setattr(sets, "_FILL_MIN", fill_min)
    top = 600
    ref = make_filled(desc, traces)
    with per_bit():
        ref.bit(top + 1)
    for order, reads in read_orders(desc, top).items():
        x = make_filled(desc, traces)
        assert x._fill is not None
        if order == "jump":
            x._bit_fn = x._cost_fn = None      # only the fill can answer
        high = -1
        for i in reads:
            assert x.zeros_by_index(i) == ref.zeros_by_index(i)
            assert x.bit(i) == ref.bit(i)
            high = max(high, i)
            assert len(x._bits) == high + 1, (order, i)
            assert_memo_matches(x, ref)


@pytest.mark.parametrize("fill_min", FILL_MINS)
@pytest.mark.parametrize("desc", FILLED)
def test_fill_zeros_by_steps_matches_per_bit_loop(desc, fill_min, traces, monkeypatch):
    monkeypatch.setattr(sets, "_FILL_MIN", fill_min)
    ref = make_filled(desc, traces)
    with per_bit():
        top = ref.cum_cost(40) + 1
        ref.bit(top + 1)
    steps = list(range(-1, top + 1))
    shuffled = random.Random(desc).sample(steps, len(steps))
    for order in (steps, shuffled):
        x, mirror = make_filled(desc, traces), make_filled(desc, traces)
        mirror._pattern = None              # the mirror counts from its memo
        for s in order:
            with per_bit():
                want = mirror.zeros_by_steps(s)
            assert x.zeros_by_steps(s) == want
            # the memo stops where the per-bit loop stops; a pattern set's
            # memo is unchanged by the query
            assert len(x._bits) == (0 if x._pattern else len(mirror._bits)), s
            assert_memo_matches(x, ref)
    for s in random.Random(desc).sample(steps, 12) + [top]:
        fresh = make_filled(desc, traces)
        fresh.zeros_by_steps(s)
        assert len(fresh._bits) == (0 if s <= 0 or fresh._pattern else
                                    bisect.bisect_right(ref._cost_cum, s) + 1)
        assert_memo_matches(fresh, ref)


@pytest.mark.parametrize("desc", FILLED)
def test_reader_matches_bit_and_grows_no_memo(desc, traces):
    """``reader(n)`` is ``bit`` on bits 0..n: the memo list's lookup once the
    memo holds them, else ``bit`` itself; asking for it grows no memo."""
    top = 300
    ref = make_filled(desc, traces)
    want = [ref.bit(i) for i in range(top + 1)]
    ref.bit(top + 40)
    for ahead in (-1, top - 1, top, top + 40):
        x = make_filled(desc, traces)
        if ahead >= 0:
            x.read_ahead(ahead)
        before = x.decided
        read = x.reader(top)
        assert x.decided == before
        # a memo that holds bits 0..top reads them from the list itself
        assert (read == x._bits.__getitem__) == (before > top), ahead
        assert [read(i) for i in range(top + 1)] == want, ahead
        assert_memo_matches(x, ref)


# descriptors built from a pattern, which count step budgets by arithmetic;
# every builtin period ends in a non-member, so two raw patterns end in one
PATTERNED = ["evens", "id", *(f"mod {k}" for k in range(2, 10)),
             *(f"blocks {k}" for k in range(1, 5)), "bits 0,2,-1,0,3", "bits 0,1,1,0,0",
             "trace {imm}", "trace {odd}", "trace {js}:Y1", "trace {short}",
             "pattern 1,1,0 0,1,1 unit", "pattern - 1,1,0,1 n+1"]


def make_patterned(desc, traces):
    """make_filled, or a raw "pattern <head or -> <period> <unit or n+1>"."""
    if not desc.startswith("pattern "):
        return make_filled(desc, traces)
    _, head, period, cost = desc.split()
    fill = sets._Pattern(tuple(map(int, head.split(","))) if head != "-" else (),
                         tuple(map(int, period.split(","))), cost == "unit")
    return PrSet(desc, fill.bit, fill.cost, fill=fill)


def memo_zeros_by_steps(x, s):
    """Zeros within s steps, read off x's memo grown under that budget."""
    if s <= 0:
        return 0
    x._ensure(s, steps=s)
    k = bisect.bisect_right(x._cost_cum, s)
    return x._zero_cum[k - 1] if k else 0


@pytest.mark.parametrize("desc", PATTERNED)
def test_pattern_steps_count_matches_memo_read(desc, traces):
    ref = make_patterned(desc, traces)
    assert ref._pattern is not None
    rng = random.Random(desc)
    # seeded budgets that decide up to 50,000 bits
    cap = 50_000 if ref._pattern.unit_cost else 50_000 * 50_001 // 2
    ascending = sorted([*range(-1, 2001), *(rng.randrange(2001, cap) for _ in range(8))])
    want = {s: memo_zeros_by_steps(ref, s) for s in ascending}
    assert ref.decided > len(ref._pattern.head)      # the budgets reach the tail
    shuffled = rng.sample(ascending, len(ascending))
    repeated = [s for s in ascending[::37] for _ in range(3)]
    for points in (ascending, shuffled, repeated):
        x = make_patterned(desc, traces)
        read = rng.randrange(300)
        for grown in (0, read + 1):
            # a steps query leaves the memo as it was
            assert [x.zeros_by_steps(s) for s in points] == [want[s] for s in points]
            assert list(x.profile(points, "steps")) == [want[s] for s in points]
            assert list(x.profile(iter(points), "steps")) == [want[s] for s in points]
            assert x.decided == grown
            # a later bit read grows the memo exactly as on a set never asked
            x.bit(read)
            plain = make_patterned(desc, traces)
            plain.bit(read)
            assert (x._bits, x._zero_cum, x._cost_cum) == (
                plain._bits, plain._zero_cum, plain._cost_cum)


def test_pattern_steps_count_needs_no_memo(traces, no_step_growth):
    big = 10 ** 12
    k = (math.isqrt(8 * big + 1) - 1) // 2           # bits decided at cost n + 1
    assert k * (k + 1) // 2 <= big < (k + 1) * (k + 2) // 2
    known = {"evens": big // 2, "mod 3": big - (big + 2) // 3, "id": big - 1,
             "blocks 4": big // 2, "bits 0,2,-1,0,3": 2 + (k - 5) // 2}
    for desc in PATTERNED:
        x = make_patterned(desc, traces)
        got = x.zeros_by_steps(big)
        assert list(x.profile([big, 0, big], "steps")) == [got, 0, got]
        assert got == known.get(desc, got) and 0 < got < big
        assert x.decided == 0


def budget_columns(rng, top):
    """Step budgets: empty, ranges from 0 and from k > 0 (up by 1 and by 7),
    falling, sorted and unsorted lists with repeats, negative budgets and
    0, and sparse columns reaching 10^12."""
    unsorted = [rng.randint(-3, top) for _ in range(60)]
    return [[], range(0), range(1), range(top + 1), range(17, top + 1), range(0, top + 1, 7),
            range(top, -4, -1), range(-5, 3), sorted(unsorted), unsorted, unsorted * 2,
            [0], [-7], [5], [top], [10 ** 12], [3, 10 ** 12, 0, -1, 10 ** 6],
            [rng.randrange(10 ** 12) for _ in range(20)]]


def assert_steps_columns(x, rng, top=3000):
    """Every budget column of pattern set x, as steps_column and as steps
    profile of a list and of an iterator, against one zeros_by_steps call
    per budget and, for budgets up to 10^4, against a memo grown under the
    budget; no column grows the memo."""
    p = x._pattern
    ref = PrSet("ref", p.bit, p.cost)
    for points in budget_columns(rng, top):
        want = [x.zeros_by_steps(s) for s in points]
        assert p.steps_column(points) == want, (x.name, points)
        assert list(x.profile(points, "steps")) == want, (x.name, points)
        assert list(x.profile(iter(points), "steps")) == want, (x.name, points)
        if max(points, default=0) <= 10 ** 4:
            assert want == [memo_zeros_by_steps(ref, s) for s in points], (x.name, points)
    assert x.decided == 0


@pytest.mark.parametrize("desc", [d for d in PATTERNED if d not in FILLED])
def test_reader_of_a_pattern_set_matches_bit(desc, traces):
    x, ref = make_patterned(desc, traces), make_patterned(desc, traces)
    x.read_ahead(200)
    read = x.reader(200)
    assert x.decided == 201 and read == x._bits.__getitem__
    assert [read(i) for i in range(201)] == [ref.bit(i) for i in range(201)]
    assert x.reader(201) == x.bit and x.decided == 201


@pytest.mark.parametrize("desc", [*FILLED, *(d for d in PATTERNED if d not in FILLED)])
def test_steps_column_matches_per_point_counts(desc, traces):
    """Builtin, lattice, drop and trace-backed pattern sets."""
    x = make_patterned(desc, traces)
    assert x._pattern is not None
    assert_steps_columns(x, random.Random(desc))


def test_random_steps_columns_match_per_point_counts():
    """Random heads and periods, at unit cost or n + 1, with 0 to 3 extra steps."""
    rng = random.Random(31)
    for i in range(60):
        head = tuple(rng.randint(0, 1) for _ in range(rng.choice([0, 1, 5, 40, 300])))
        period = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 9))) + (0,)
        fill = sets._Pattern(head, period, rng.random() < 0.5, rng.randint(0, 3))
        assert_steps_columns(PrSet(f"p{i}", fill.bit, fill.cost, fill=fill), rng,
                             rng.choice([1, 40, 3000]))


def test_dense_steps_column_makes_no_per_point_call(monkeypatch):
    """A dense steps column makes a fixed few calls into the pattern; a
    sparse one, with huge budgets, counts point by point."""
    calls = collections.Counter()
    for name in ("steps_column", "_zeros_below", "bits", "bit", "cost", "__call__"):
        def counted(*args, _name=name, _fn=getattr(sets._Pattern, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(sets._Pattern, name, counted)
    for x in (parse_set("evens"), parse_set("join(evens, mod 3)"), prefix_set("b", [0, 1, 1])):
        calls.clear()
        assert len(list(x.profile(range(2001), "steps"))) == 2001
        assert calls == {"steps_column": 1, "bits": 1}, (x.name, calls)
        calls.clear()
        list(x.profile([10 ** 12, 5, 10 ** 9], "steps"))
        assert calls["steps_column"] == 1 and calls["_zeros_below"] == 3, (x.name, calls)


@pytest.mark.parametrize("fill_min", FILL_MINS)
def test_step_limited_fill_bounds_operand_run_ahead(fill_min, monkeypatch):
    # operands of a filled join never pass bit m + s - c, the last bit the
    # budget left over the join's memo (m bits, total cost c) could pay for;
    # a pattern join reads no operand bit once built
    monkeypatch.setattr(sets, "_FILL_MIN", fill_min)
    for s, read, generic in itertools.product(range(1, 600, 7), (-1, 17, 40), (False, True)):
        a, b = evens_set(), mod_set(3)      # both hold 0: they are the operands
        with generic_fills() if generic else contextlib.nullcontext():
            j = set_join(a, b)
        assert (j._pattern is None) == generic
        if read >= 0:
            j.bit(read)
        m, c = len(j._bits), j._cost_cum[-1] if j._bits else 0
        ahead = max(len(a._bits), len(b._bits))
        j.zeros_by_steps(s)
        assert j.cum_cost(len(j._bits) - 1) > s or len(j._bits) == m
        assert max(len(a._bits), len(b._bits)) <= max(ahead, m + s - c + 1, 0)


# ---------------------------------------------------------------------------
# Derived pattern sets against the lattice definition


def assert_defined_alike(build):
    """build() gives the set it gives under generic_fills(): the same bits,
    zero counts, costs and step counts, past the head plus three periods of
    its pattern.  Returns both builds."""
    x = build()
    with generic_fills():
        ref = build()
    p = x._pattern
    top = max(64, len(p.head) + 3 * len(p.period) if p is not None else 0)
    assert x.prefix(top) == ref.prefix(top)
    assert list(x.profile(range(top + 1))) == list(ref.profile(range(top + 1)))
    costs = [ref.cum_cost(i) for i in range(top + 1)]
    assert [x.cum_cost(i) for i in range(top + 1)] == costs
    # the step count changes only where a bit's total cost is reached
    budgets = sorted({-1, 0, *(c + d for c in costs for d in (-1, 0, 1))})
    assert ([x.zeros_by_steps(s) for s in budgets]
            == [memo_zeros_by_steps(ref, s) for s in budgets])
    return x, ref


@pytest.mark.parametrize("desc", FILLED)
def test_pattern_build_matches_the_lattice_definition(desc, traces):
    x, ref = assert_defined_alike(lambda: make_filled(desc, traces))
    if desc.startswith(("join", "meet", "drop")):
        assert x._pattern is not None and ref._pattern is None


@pytest.mark.parametrize("desc, span", [
    ("join(mod 31, mod 33)", 1_023), ("meet(blocks 31, blocks 32)", 1_984),
    ("meet(blocks 45, blocks 46)", 4_140), ("join(mod 251, mod 257)", 64_507),
])
def test_pattern_cap_bounds_the_build_span(desc, span, monkeypatch):
    # past the cap the generic fill stays; above it the build still holds
    assert (parse_set(desc)._pattern is None) == (span > sets._PATTERN_MAX)
    monkeypatch.setattr(sets, "_PATTERN_MAX", span)
    x, _ = assert_defined_alike(lambda: parse_set(desc))
    assert x._pattern is not None


def random_pattern_set(rng, name, period=None, head=None):
    """A pattern set with a random cost, a random head and a random period
    holding a zero, unless a head or period is given."""
    if head is None:
        head = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 12)))
    if period is None:
        period = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 7))) + (0,)
        period = tuple(rng.sample(period, len(period)))
    fill = sets._Pattern(head, period, rng.random() < 0.5, rng.randint(0, 2))
    return PrSet(name, fill.bit, fill.cost, fill=fill)


def zero_rate(x):
    return x._pattern.period.count(0) / len(x._pattern.period)


def costly_unit_side(a, b):
    """Whether one operand costs unit steps, the other n + 1, and the unit
    side costs more at bit 0: then max of the costs is of neither form."""
    unit, other = (a, b) if a._pattern.unit_cost else (b, a)
    return (unit._pattern.unit_cost and not other._pattern.unit_cost
            and unit.bit_cost(0) > other.bit_cost(0))


def random_operands(rng, case):
    """Two pattern sets whose join and meet fall in the given case."""
    while True:
        # a head of zeros puts a ahead for many spans of a lower rate
        a = random_pattern_set(rng, "a", head=(0,) * rng.randint(20, 40)
                               if case == "late lead" else None)
        if case == "equal rates":
            # the same bits in another order, once or twice over
            period = a._pattern.period * rng.randint(1, 2)
            b = random_pattern_set(rng, "b", tuple(rng.sample(period, len(period))))
        else:
            b = random_pattern_set(rng, "b")
        if case == "dominating" and zero_rate(a) == zero_rate(b):
            continue
        if case == "late lead" and zero_rate(a) >= zero_rate(b):
            continue
        if costly_unit_side(a, b) == (case == "costly unit side"):
            return a, b


DERIVED_OVER = {
    "join": lambda a, b: set_join(a, b),
    "meet": lambda a, b: set_meet(b, a),
    "drop": lambda a, b: drop_least_zero(a),
    "override": lambda a, b: override_zero_member(b),
    "nested": lambda a, b: set_meet(set_join(a, b), drop_least_zero(b)),
    "deep": lambda a, b: set_join(set_meet(a, drop_least_zero(a)), set_join(b, a)),
}
CASES = ["equal rates", "dominating", "late lead", "over the cap", "costly unit side"]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", range(15))
def test_random_pattern_builds_match_the_lattice_definition(case, seed, monkeypatch):
    rng = random.Random(f"{case}-{seed}")
    a, b = random_operands(rng, case)
    if case == "over the cap":
        # below either operand's head plus period: no pattern is built
        cap = min(len(x._pattern.head) + len(x._pattern.period) for x in (a, b)) - 1
        monkeypatch.setattr(sets, "_PATTERN_MAX", cap)
    built = {}
    for name, derive in DERIVED_OVER.items():
        # fresh operands for each build, as the generic build reads their memos
        built[name], _ = assert_defined_alike(lambda: derive(*random_operands(
            random.Random(f"{case}-{seed}"), case)))
    patterned = {name for name, x in built.items() if x._pattern is not None}
    if case in ("equal rates", "dominating", "late lead"):
        # a nested build may meet a costly unit side
        assert {"join", "meet", "drop", "override"} <= patterned
    elif case == "over the cap":
        assert patterned == ({"override"} if b.bit(0) == 1 else set())
    else:
        assert patterned == {"drop", "override"}


def test_term_backed_descriptors_never_fill(traces):
    term = TERMS["evens"]
    nf = normal_form(SetRelation(parse_set("mod 3")))[0]
    listed = zero_list_set("zl", lambda zs: 2 * len(zs) + 1)
    plain = [parse_set(term), nf, listed, prefix_set("unit", [1, 0], cost_fn=lambda n: 1)]
    for x in plain:
        assert x._fill is None
        for over in (set_join(x, evens_set()), set_meet(mod_set(3), x), drop_least_zero(x),
                     set_join(set_join(x, evens_set()), mod_set(5))):
            # a drop over a zero-list set is a zero-list set, with no fill
            assert over._fill is not None or isinstance(over, sets._ZeroListSet)
            assert over._fill is None or over._fill.reach() < sys.maxsize
            held = over.decided, x.decided
            over.read_ahead(400)
            assert (over.decided, x.decided) == held
    # a term set still evaluates one bit at a time, once per bit
    seen = []
    x = parse_set(term)
    bit_fn = x._bit_fn
    x._bit_fn = lambda n: seen.append(n) or bit_fn(n)
    j = set_join(x, parse_set(f"trace {traces['imm']}"))
    j.bit(300)
    assert seen == list(range(301))


def seeded_columns(seed):
    """Pairs of int columns: empty, one element, short, and 2,000 long,
    with few and with many distinct values, and of unequal lengths."""
    rng = random.Random(seed)
    for n in (0, 1, 2, 7, 2000):
        for spread in (1, 3, 10 ** 6):
            a = [rng.randrange(spread) for _ in range(n)]
            b = [rng.randrange(spread) for _ in range(n)]
            yield a, b
            yield a, b[:n // 2]


@pytest.mark.parametrize("pick", [max, min])
def test_picked_columns_match_the_builtin_map(pick):
    for a, b in seeded_columns(11):
        assert sets._picked(pick, a, b) == list(map(pick, a, b))


def random_plain_set(rng, name):
    """A set with random bits and costs and no fill."""
    bits = [rng.randint(0, 1) for _ in range(400)]
    costs = [rng.randint(1, 9) for _ in range(400)]
    return PrSet(name, bits.__getitem__, costs.__getitem__)


@pytest.mark.parametrize("pick", [max, min])
def test_generic_lattice_fill_columns_match_the_builtin_map(pick):
    rng = random.Random(29)
    for _ in range(5):
        x, y = random_plain_set(rng, "x"), random_plain_set(rng, "y")
        d = (set_join if pick is max else set_meet)(x, y)
        x, y = override_zero_member(x), override_zero_member(y)
        assert d._pattern is None
        x.bit(300), y.bit(300)
        for m, n in [(0, 0), (0, 1), (5, 5), (6, 5), (0, 300), (37, 250), (299, 300)]:
            lo = m - 1 if m else 0
            zc = list(map(pick, x._zero_cum[lo:n + 1], y._zero_cum[lo:n + 1]))
            costs = list(map(max, sets._bit_costs(x, m, n), sets._bit_costs(y, m, n)))
            want = (sets._climbs([0] * (not m) + zc), [c + 1 for c in costs])
            assert d._fill(m, n) == want, (m, n)


@pytest.mark.parametrize("pick, op", [(max, sets.string_join), (min, sets.string_meet)])
def test_string_ops_match_the_builtin_map(pick, op):
    rng = random.Random(31)
    for n in (0, 1, 2, 9, 500):
        for _ in range(20):
            sigma = Prefix(tuple(rng.randint(0, 1) for _ in range(n)))
            bits = list(sigma.bits)
            rng.shuffle(bits)                       # the same length and zero count
            tau = Prefix(tuple(bits))
            zc = list(map(pick, sets._zero_counts(sigma.bits), sets._zero_counts(tau.bits)))
            assert op(sigma, tau) == Prefix(tuple(sets._climbs(zc)))


# ---------------------------------------------------------------------------
# Derived descriptors over term sets: one catch-up over the operands' memos


def linear_bound(slope, offset):
    """Bound term text computing slope * n + offset."""
    step = "P[3,3]"
    for _ in range(slope):
        step = f"C(S; {step})"
    bound = f"R(Z; {step})"
    for _ in range(offset):
        bound = f"C(S; {bound})"
    return bound


def term_pair(bound=BOUND_LINEAR):
    """Fresh term sets: "ev" holds 0, "od" does not, so joins normalise it."""
    return {"ev": parse_set(f'term "{EVENS_TERM}" bound "{bound}"'),
            "od": parse_set(f'term "{MOD2}" bound "{bound}"')}


# each derived descriptor with the term sets it reads
OVER_TERMS = {
    "join": ("od", lambda ev, od: set_join(od, mod_set(3))),
    "meet": ("ev", lambda ev, od: set_meet(ev, blocks_set(2))),
    "override": ("od", lambda ev, od: override_zero_member(od)),
    "drop": ("ev", lambda ev, od: drop_least_zero(ev)),
    "nested": ("ev od", lambda ev, od: set_meet(set_join(od, mod_set(3)),
                                                drop_least_zero(ev))),
}


@pytest.fixture
def eval_calls(monkeypatch):
    """Every evaluator call a term set makes, as its argument."""
    calls = []
    total, clocked = pr_lang.eval_total, pr_lang.eval_clocked
    monkeypatch.setattr(pr_lang, "eval_total",
                        lambda t, args: calls.append(args[0]) or total(t, args))
    monkeypatch.setattr(pr_lang, "eval_clocked",
                        lambda t, args, b: calls.append(args[0]) or clocked(t, args, b))
    return calls


def read_over_terms(desc, reads, ahead, calls, bound=BOUND_LINEAR):
    """Build desc over fresh term sets read up to `ahead`, then read it at
    each point: (point, answer or failure text, evaluator calls) per read."""
    terms = term_pair(bound)
    for name, n in ahead.items():
        terms[name].bit(n)
    d = OVER_TERMS[desc][1](terms["ev"], terms["od"])
    log = []
    for i in reads:
        calls.clear()
        try:
            got = (d.zeros_by_index(i), d.bit(i), d.cum_cost(i))
        except PunctualityViolation as exc:
            got = str(exc)
        log.append((i, got, len(calls)))
    return d, terms, log


def over_terms_orders(seed, top):
    rng = random.Random(seed)
    ascending = sorted(rng.sample(range(top + 1), 50))
    return {"ascending": ascending, "shuffled": rng.sample(range(top + 1), 50),
            "repeated": [i for i in rng.sample(range(top + 1), 15) for _ in range(3)]}


@pytest.mark.parametrize("fill_min", [1, sets._FILL_MIN])
@pytest.mark.parametrize("desc", OVER_TERMS)
def test_catch_up_matches_per_bit_growth(desc, fill_min, monkeypatch, eval_calls):
    monkeypatch.setattr(sets, "_FILL_MIN", fill_min)
    # term memos read ahead, and the top read: reads past them take the per-bit loop
    for ahead, top in [({"ev": 150, "od": 230}, 300), ({"od": 300}, 600)]:
        for order, reads in over_terms_orders(desc, top).items():
            d, terms, log = read_over_terms(desc, reads, ahead, eval_calls)
            with per_bit():
                ref, ref_terms, ref_log = read_over_terms(desc, reads, ahead, eval_calls)
            # the same answers, and the same evaluator calls at each read
            assert log == ref_log, (ahead, order)
            assert ([t.decided for t in terms.values()]
                    == [t.decided for t in ref_terms.values()])
            assert d.decided >= ref.decided
            with per_bit():
                ref.bit(d.decided)
            assert_memo_matches(d, ref)


@pytest.mark.parametrize("desc", OVER_TERMS)
def test_catch_up_reads_only_term_memos(desc, eval_calls):
    terms = term_pair()
    terms["ev"].bit(150)
    terms["od"].bit(230)
    uses, build = OVER_TERMS[desc]
    d = build(terms["ev"], terms["od"])
    held = {name: t.decided for name, t in terms.items()}
    reach = min(held[name] for name in uses.split()) - 1
    for t in terms.values():
        t._bit_fn = t._cost_fn = None      # a term generator call would raise
    eval_calls.clear()
    d.bit(0)
    # one read catches the memo up to the term sets' reach, past the bit read
    assert d.decided == reach + 1
    assert {name: t.decided for name, t in terms.items()} == held
    assert eval_calls == []
    ref = build(*term_pair().values())
    with per_bit():
        ref.bit(reach)
    assert (d._bits, d._zero_cum, d._cost_cum) == (ref._bits, ref._zero_cum, ref._cost_cum)


@pytest.mark.parametrize("fill_min", [1, sets._FILL_MIN])
@pytest.mark.parametrize("desc", OVER_TERMS)
def test_catch_up_fails_where_per_bit_growth_fails(desc, fill_min, monkeypatch, eval_calls):
    monkeypatch.setattr(sets, "_FILL_MIN", fill_min)
    bound = linear_bound(12, 100)
    stops = {}
    for name, t in term_pair(bound).items():
        with pytest.raises(PunctualityViolation) as info:
            t.bit(200)
        stops[name] = t.decided
        assert str(info.value).endswith(f"at n={t.decided}")
    assert stops == {"ev": 87, "od": 98}
    k = min(stops[name] for name in OVER_TERMS[desc][0].split())
    ahead = {"ev": 70, "od": 80}
    orders = over_terms_orders(desc, 130)
    orders["repeated"] += [k - 1, k, k, 60, k + 5]
    for order, reads in orders.items():
        assert max(reads) >= k
        d, _, log = read_over_terms(desc, reads, ahead, eval_calls, bound)
        with per_bit():
            ref, _, ref_log = read_over_terms(desc, reads, ahead, eval_calls, bound)
        # the same read fails with the same message, and the memo stops at k
        assert log == ref_log, order
        assert any(isinstance(got, str) for _, got, _ in log)
        assert d.decided == ref.decided == k
        assert (d._bits, d._zero_cum, d._cost_cum) == (ref._bits, ref._zero_cum, ref._cost_cum)


# ---------------------------------------------------------------------------
# Witness text


def test_serialize_witness_bytes(traces):
    x, y = make_pair(traces, 9)
    g = synth_reduction_from_h(x, y, IDENTITY, 200)
    p = synth_p_from_reduction(g, x, y, x.cum_cost(200))
    for w in (g, p):
        head = [f"claim\t{w.claim}", f"source\t{w.source}", f"target\t{w.target}",
                f"horizon\t{w.horizon}", f"convention\t{w.convention}",
                f"verified\t{int(w.verified)}", "---"]
        rows = [f"{i}\t{v}" for i, v in enumerate(w.program.values)]
        assert serialize_witness(w) == "\n".join(head + rows) + "\n"
        assert parse_witness(serialize_witness(w)).program.values == w.program.values


def ref_witness_text(w):
    head = [f"claim\t{w.claim}", f"source\t{w.source}", f"target\t{w.target}",
            f"horizon\t{w.horizon}", f"convention\t{w.convention}",
            f"verified\t{int(w.verified)}", "---"]
    return "\n".join(head + [f"{i}\t{v}" for i, v in enumerate(w.program.values)]) + "\n"


def floor_triples(seed):
    """(prefix length, floor c, horizon) at and around the 1000-row blocks:
    c inside the prefix, c past horizon + 1, horizons under 1000, and
    seeded draws."""
    lengths = (0, 1, 999, 1000, 1001)
    floors = (0, 3, 999, 1000, 1001, 2000, 2500, 5000)
    horizons = (0, 500, 998, 999, 1000, 1001, 2999, 3000, 3001)
    rng = random.Random(seed)
    drawn = [(rng.randint(0, 2100), rng.randint(0, 4500), rng.randint(0, 4500))
             for _ in range(40)]
    return [(n, c, h) for n in lengths for c in floors for h in horizons] + drawn


def test_floor_table_matches_its_dense_values():
    rng = random.Random(7)
    for n, c, h in floor_triples(7):
        prefix = [rng.randint(0, 10 ** 6) for _ in range(n)]
        t = FloorTableProgram(prefix, c, h, "p")
        values = t.values
        assert len(values) == t.horizon + 1 == max(h, n - 1) + 1
        assert values[:n] == tuple(prefix)
        assert all(t.value(x) == v for x, v in enumerate(values)), (n, c, h)
        assert values[n:] == tuple(max(x + 1, c) for x in range(n, t.horizon + 1))
        w = ReductionWitness(t, "growth-p", "a", "b", t.horizon, "steps", True)
        text = serialize_witness(w)
        assert text == ref_witness_text(w), (n, c, h)
        assert parse_witness(text).program.values == values


CAP = _text._DECIMAL_CAP


def ref_rows(lo, values):
    return "".join(f"{i}\t{v}\n" for i, v in zip(itertools.count(lo), values))


@pytest.mark.parametrize("lo", [0, 1, CAP - 3, CAP - 2, CAP - 1, CAP, CAP + 1])
def test_table_rows_match_the_row_writer(lo):
    cases = [[], [0], [CAP - 1], [CAP], [CAP + 1], [CAP - 1, 0, CAP - 1], [0, CAP, 1],
             [-1, 3], [5, -2], list(range(CAP - 3, CAP + 2))[:3], [7] * 5]
    for values in cases:
        index = _text.decimals(range(lo, lo + len(values)))
        assert _text.rows([index, _text.decimals(values)]) == ref_rows(lo, values), values


@pytest.mark.parametrize("n", [0, 1, 2, CAP - 1, CAP, CAP + 1])
@pytest.mark.parametrize("top", [CAP - 1, CAP, CAP + 1])
def test_table_witness_text_matches_the_row_writer(n, top):
    """Tables of n rows (n = 0 is empty, n = 1 is horizon 0) whose values
    reach top: their text is the per-row text, and it reads back."""
    rng = random.Random(n * 7 + top)
    values = [rng.randint(0, top) for _ in range(n)]
    if n:
        values[rng.randrange(n)] = top
    w = ReductionWitness(TableProgram(values, "t"), "reduction", "a", "b", n - 1)
    text = serialize_witness(w)
    assert text == ref_witness_text(w)
    assert outcome(parsed, text) == outcome(ref_parse_witness, text) == (
        "reduction", "a", "b", n - 1, "index", False, values)


def test_floor_table_text_at_the_cap():
    rng = random.Random(11)
    for n in (0, 1, CAP - 1, CAP, CAP + 1):
        for c in (0, 5, CAP - 1, CAP, CAP + 1):
            for h in (0, CAP - 2, CAP - 1, CAP, CAP + 1):
                for top in (CAP - 1, CAP + 1):
                    prefix = [rng.randint(0, top) for _ in range(n)]
                    t = FloorTableProgram(prefix, c, h, "p")
                    w = ReductionWitness(t, "growth-p", "a", "b", t.horizon, "steps", True)
                    assert serialize_witness(w) == ref_witness_text(w), (n, c, h, top)


def test_decimals_match_str():
    for ints in ([], [0], list(range(CAP)), [CAP - 1, CAP], [CAP], [CAP + 1, 0], [-1],
                 [3, -1, 2], list(range(CAP + 2)), [10 ** 30, 5], (4, 4, 0),
                 *column_ranges(CAP)):
        assert _text.decimals(ints) == list(map(str, ints))


def ref_columns(text, width):
    """The columns of text read line by line: None unless every line ends
    in a newline and has exactly width tab-separated cells."""
    if text and not text.endswith("\n"):
        return None
    lines = [line.split("\t") for line in text.split("\n")[:-1]]
    if any(len(cells) != width for cells in lines):
        return None
    return [[cells[k] for cells in lines] for k in range(width)]


@pytest.mark.parametrize("width", [2, 5])
def test_columns_read_exactly_the_blocks_rows_writes(width):
    # every text of up to 9 characters over a cell character and both separators
    seen = collections.Counter()
    for n in range(10):
        for chars in itertools.product("a\t\n", repeat=n):
            text = "".join(chars)
            want = ref_columns(text, width)
            assert _text.columns(text, width) == want, text
            if want is not None:
                assert _text.rows(want) == text
            seen[want is None] += 1
    assert seen[False] >= 20, seen
    # written blocks of random cells read back, and one line off by a cell does not
    rng = random.Random(width)
    for n in (0, 1, 2, 7, 300):
        cols = [[rng.choice(["", "0", "x=1", "a;b", "12345"]) for _ in range(n)]
                for _ in range(width)]
        text = _text.rows(cols)
        assert _text.columns(text, width) == cols
        lines = text.split("\n")
        for k in range(n):
            for line in (lines[k] + "\t", lines[k].rpartition("\t")[0]):
                bad = "\n".join(lines[:k] + [line] + lines[k + 1:])
                assert _text.columns(bad, width) is None, (n, k, line)


def test_decimal_table_stays_at_its_cap():
    _text._decimal_table.cache_clear()
    n = 200_000
    for prog in (TableProgram(range(n), "t"), TableProgram([7] * n, "t"),
                 FloorTableProgram([3, 1], 5, n - 1, "p")):
        w = ReductionWitness(prog, "growth-p", "a", "b", n - 1, "steps", True)
        text = serialize_witness(w)
        assert parse_witness(text).program.values == prog.values
        strs, index = _text._decimal_table()
        assert len(strs) == len(index) == CAP
        assert strs == dict(zip(range(CAP), map(str, range(CAP))))
        assert index == dict(zip(map(str, range(CAP)), range(CAP)))


@pytest.mark.parametrize("table, values", [(TableProgram([5, 6, 7], "t"), [5, 6, 7]),
                                           (FloorTableProgram([5, 6], 9, 2, "t"), [5, 6, 9])])
def test_table_reads_off_the_table_raise(table, values):
    assert [table.value(x) for x in range(3)] == values
    for x in (-1, -3, 3, 10):
        with pytest.raises(BudgetExceeded, match=f"has horizon 2, asked for {x}$"):
            table.value(x)


@pytest.mark.parametrize("pair", SYNTH_PAIRS)
def test_rewrites_verify_input_and_result_once(pair, traces, monkeypatch):
    horizon = 60
    x, y = make_pair(traces, pair)
    g, stray, _ = reduction_tables(x, y, horizon)
    seen = []               # the table each check_reduction_prefix call verifies
    check = reductions.check_reduction_prefix

    def counted(f, source, target, n):
        seen.append([as_program(f).value(v) for v in range(n + 1)])
        return check(f, source, target, n)
    monkeypatch.setattr(reductions, "check_reduction_prefix", counted)
    for rewrite in (respect_normal_form, surjectivize):
        for t in (g, stray):
            seen.clear()
            out = rewrite(t, x, y, horizon)
            assert seen == [t, list(out.program.values)]
    seen.clear()
    assert _massage_for_growth(g, x, y, horizon).values == tuple(g)
    assert seen == [g]
    seen.clear()
    out = _massage_for_growth(stray, x, y, horizon)
    assert seen == [stray, list(out.values)]
    assert out.values == surjectivize(stray, x, y, horizon).program.values


# ---------------------------------------------------------------------------
# Whole-profile reads against one read per point


PROFILED = FILLED + ["{evens}", "join({evens}, mod 3)", "drop({odds})", "zero-list",
                     "costly"]


def make_profiled(desc, traces):
    if desc == "zero-list":
        return zero_list_set("zl", lambda zs: zs[-1] + 3 if zs else 1)
    if desc == "costly":
        return prefix_set("costly", [1, 0, 0, 1, 1, 0], cost_fn=lambda n: n % 3 + 1)
    if "{evens}" in desc or "{odds}" in desc:
        return parse_set(desc.format(**TERMS))
    return make_filled(desc, traces)


def profile_points(seed, convention, top):
    """Unsorted points with repeats, 0 and (for budgets) below, and past the
    memo a caller grew before the read."""
    rng = random.Random(f"{seed}:{convention}")
    low = -3 if convention == "steps" else 0
    points = [rng.randint(low, top) for _ in range(40)] + [0, top, top, 2 * top + 7]
    rng.shuffle(points)
    return points


@pytest.mark.parametrize("convention", ["index", "steps"])
@pytest.mark.parametrize("desc", PROFILED)
def test_profile_matches_per_call_reads(desc, convention, traces):
    top = 120 if "{" in desc else 700
    read = f"zeros_by_{convention}"
    for grown in (-1, 0, 37, top):
        x, ref = make_profiled(desc, traces), make_profiled(desc, traces)
        if grown >= 0:
            x.bit(grown)
            ref.bit(grown)
        points = profile_points(desc, convention, top)
        assert list(x.profile(points, convention)) == [getattr(ref, read)(p) for p in points]
        # the set's own memo ends where one read per point ends it
        assert x._bits == ref._bits and x._cost_cum == ref._cost_cum
        assert list(x.profile([], convention)) == []
        assert list(x.profile(range(top + 1), convention)) == \
            [getattr(ref, read)(p) for p in range(top + 1)]


def column_ranges(top):
    """Ranges of index points: empty, step 3, a negative start, falling,
    and stops around top (the decimal cap)."""
    return [range(0), range(5, 5), range(7, 3), range(0, -4), range(0, 50, 3),
            range(4, 61, 3), range(-4, 20), range(-4, -1), range(40, 3, -3),
            range(0, top - 1), range(0, top), range(0, top + 5), range(3, top + 5),
            range(top - 2, top + 5)]


@pytest.mark.parametrize("desc", PROFILED)
def test_index_columns_match_per_call_reads(desc, traces):
    """profile and cum_costs over ranges, slices of the memo where they
    start at 0 or above with step 1, against one read per point."""
    for grown in (-1, 37):
        for points in column_ranges(CAP if "{" not in desc else 120):
            x, ref = make_profiled(desc, traces), make_profiled(desc, traces)
            if grown >= 0:
                x.bit(grown)
                ref.bit(grown)
            assert list(x.profile(points)) == [ref.zeros_by_index(p) for p in points], points
            assert list(x.cum_costs(points)) == [ref.cum_cost(p) for p in points], points
            assert x._bits == ref._bits and x._cost_cum == ref._cost_cum


def test_cost_columns_fail_where_per_point_reads_fail():
    for k in (0, 4, 30):
        for points in (range(80), list(range(80, -1, -3)), range(2, 50, 2)):
            want = outcome(lambda x: [x.cum_cost(p) for p in points], fragile(k))
            assert outcome(lambda x: list(x.cum_costs(points)), fragile(k)) == want
            assert want[0] is PunctualityViolation


def test_profile_rejects_an_unknown_convention():
    with pytest.raises(ValueError, match="unknown convention 'principal'"):
        evens_set().profile([1, 2], "principal")


def fragile(k, name="fragile"):
    """Members are the multiples of 3; deciding any bit past k raises."""
    def bit(n):
        if n > k:
            raise PunctualityViolation(f"{name}: bit {n} read")
        return 1 if n % 3 == 0 else 0

    return PrSet(name, bit)


def ref_domination(low, high, horizon):
    """The per-stage comparison domination_certificate makes, one read per stage."""
    for s in range(horizon + 1):
        a, b = low.zeros_by_index(s), high.zeros_by_index(s)
        if a > b:
            raise NotCertified(f"profile of {low.name} exceeds {high.name} at s={s} ({a} > {b})")
    return list(range(horizon + 1))


def ref_equilibria(x, y, horizon, convention):
    read = f"zeros_by_{convention}"
    return tuple(s for s in range(horizon + 1)
                 if getattr(x, read)(s) == getattr(y, read)(s))


@pytest.mark.parametrize("k", [0, 4, 9, 30, 200])
def test_profile_consumers_fail_where_per_stage_reads_fail(k):
    # a fragile set next to one whose profile it passes early or late; the
    # per-stage reads raise at the first stage that needs bit k + 1, unless
    # the comparison fails first
    partners = [lambda: parse_set("id"), lambda: parse_set("mod 2"),
                lambda: parse_set("drop(evens)"), lambda: fragile(k // 2, "other")]
    for partner in partners:
        for convention in ("index", "steps"):
            pair = lambda: (fragile(k), partner())
            want = outcome(ref_equilibria, *pair(), 60, convention)
            assert outcome(lambda a, b: equilibrium_points(a, b, 60, convention).points,
                           *pair()) == want
            want = outcome(ref_equilibria, *reversed(pair()), 60, convention)
            assert outcome(lambda a, b: equilibrium_points(a, b, 60, convention).points,
                           *reversed(pair())) == want
        for low, high in ((fragile(k), partner()), (partner(), fragile(k))):
            want = outcome(ref_domination, low, high, 60)
            low2, high2 = ((fragile(k), partner()) if low.name == "fragile"
                           else (partner(), fragile(k)))
            assert outcome(domination_certificate, low2, high2, 60) == want
    # list consumers see the per-point failure too
    for convention in ("index", "steps"):
        read = f"zeros_by_{convention}"
        points = list(range(80, -1, -3))
        want = outcome(lambda x: [getattr(x, read)(p) for p in points], fragile(k))
        assert outcome(lambda x: list(x.profile(points, convention)), fragile(k)) == want


# ---------------------------------------------------------------------------
# Class maps in check_reduction_prefix


def ref_check_all_pairs(f, source, target, n):
    """Definitional check: the least pair (l, m), l != m, whose relatedness
    the table does not carry over, with every pair compared."""
    values = [as_program(f).value(x) for x in range(n + 1)]
    for l in range(n + 1):
        for m in range(n + 1):
            if l != m:
                left = source.related(l, m)
                right = target.related(values[l], values[m])
                if left != right:
                    return Counterexample("reduction", l, m, n, left, right,
                                          (values[l], values[m]))
    return None


def ref_check_upward(f, source, target, n):
    """The earlier check: class representatives element by element, upward,
    stopping at the first class clash, and then the least-pair rescan."""
    def rep_fn(rel):
        if isinstance(rel, SetRelation):
            return lambda x: -1 if rel.carrier.bit(x) == 1 else x
        if isinstance(rel, IdentityRelation):
            return lambda x: x
        return lambda x: next((y for y in range(x + 1) if rel.related(y, x)), x)

    values = [as_program(f).value(x) for x in range(n + 1)]
    rep_s, rep_t = rep_fn(source), rep_fn(target)
    image_rep = [rep_t(v) for v in values]
    forward, backward = {}, {}
    for x in range(n + 1):
        a, b = rep_s(x), image_rep[x]
        if forward.setdefault(a, b) != b or backward.setdefault(b, a) != a:
            return ref_check_all_pairs(f, source, target, n)
    return None


RELATIONS = {
    "evens": lambda tr: SetRelation(parse_set("evens")),
    "mod 3": lambda tr: SetRelation(parse_set("mod 3")),
    "join": lambda tr: SetRelation(parse_set("join(evens, mod 3)")),
    "trace": lambda tr: SetRelation(parse_set(f"trace {tr['imm']}")),
    "term": lambda tr: SetRelation(parse_set(TERMS["evens"])),
    "id": lambda tr: IdentityRelation(),
    "cong3": lambda tr: PredicateRelation(lambda a, b: a % 3 == b % 3, "cong3"),
    "fours": lambda tr: PredicateRelation(lambda a, b: a // 4 == b // 4, "fours"),
}


def check_tables(rng, n):
    """Seeded tables: the identity, injective and class-collapsing maps,
    and copies with one entry moved, so both verdicts occur."""
    perm = rng.sample(range(3 * n), n + 1)
    tables = [list(range(n + 1)), perm, [v // 2 for v in range(n + 1)],
              [3 * v for v in range(n + 1)], [0] * (n + 1),
              [rng.randint(0, 2 * n) for _ in range(n + 1)]]
    for t in list(tables):
        moved = list(t)
        moved[rng.randrange(n + 1)] = rng.randint(0, 3 * n)
        tables.append(moved)
    return [TableProgram(t, "t") for t in tables]


@pytest.mark.parametrize("source", RELATIONS)
@pytest.mark.parametrize("target", RELATIONS)
def test_check_reduction_prefix_matches_all_pairs(source, target, traces):
    rng = random.Random(f"{source}->{target}")
    n = 30
    verdicts = set()
    for f in check_tables(rng, n):
        want = ref_check_all_pairs(f, RELATIONS[source](traces), RELATIONS[target](traces), n)
        got = reductions.check_reduction_prefix(
            f, RELATIONS[source](traces), RELATIONS[target](traces), n)
        assert got == want, f.values
        verdicts.add(got is None)
    if source == target:
        assert verdicts == {True, False}


@pytest.mark.parametrize("pair", SYNTH_PAIRS)
def test_check_reduction_prefix_on_synthesised_tables(pair, traces):
    x, y = make_pair(traces, pair)
    g, stray, _ = reduction_tables(x, y, 60)
    rng = random.Random(pair)
    moved = list(g)
    moved[rng.randrange(61)] += 1
    for t in (g, stray, moved):
        x, y = make_pair(traces, pair)
        want = ref_check_all_pairs(t, SetRelation(x), SetRelation(y), 60)
        x, y = make_pair(traces, pair)
        assert reductions.check_reduction_prefix(t, SetRelation(x), SetRelation(y), 60) == want


@pytest.mark.parametrize("k", [0, 2, 5, 11, 25, 40])
def test_check_reduction_prefix_with_a_fragile_carrier(k):
    # a carrier that raises past bit k, on either side: the verdict or the
    # exception is the one the upward check gives
    n = 40
    rng = random.Random(k)
    tables = check_tables(rng, n) + [
        TableProgram([v if v < k else v + 1 for v in range(n + 1)], "late"),
        TableProgram([1 if v == k // 2 else v for v in range(n + 1)], "early"),
    ]
    sides = [lambda: SetRelation(parse_set("mod 3")), lambda: IdentityRelation(),
             lambda: PredicateRelation(lambda a, b: a % 3 == b % 3 or min(a, b) > 0
                                       and a % 3 and b % 3, "m3"),
             lambda: SetRelation(fragile(k // 3, "other"))]
    kinds = set()
    for f in tables:
        for other in sides:
            for make in ((lambda: (SetRelation(fragile(k)), other())),
                         (lambda: (other(), SetRelation(fragile(k))))):
                want = outcome(ref_check_upward, f, *make(), n)
                assert outcome(reductions.check_reduction_prefix, f, *make(), n) == want
                kinds.add(want[0] if type(want) is tuple else type(want))
    assert kinds >= {PunctualityViolation, Counterexample}


def class_test_tables(x, y, n):
    """A reduction of the set relation of x to that of y on 0..n (members
    to a member of y, non-members to the zeros of y in order), and one
    edit of it for each way the set class test can fail."""
    bits = x.prefix(n).bits
    members = [v for v, b in enumerate(bits) if b]
    rest = [v for v, b in enumerate(bits) if not b]
    inside = [v for v in range(4 * n) if y.bit(v)][:2]
    zeros = [y.principal_zero(j) for j in range(len(rest) + 1)]
    good = [inside[0]] * (n + 1)
    for v, z in zip(rest, zeros):
        good[v] = z
    tables = {"reduction": good}

    def edit(name, v, value):
        tables[name] = good[:v] + [value] + good[v + 1:]

    if len(members) > 1:
        edit("members over two classes", members[-1], zeros[-1])
    if members and rest:
        edit("a non-member on the members' class", rest[-1], inside[0])
        if len(inside) > 1:
            edit("a non-member on another member of y", rest[len(rest) // 2], inside[1])
    if len(rest) > 1:
        edit("two non-members on one image", rest[-1], good[rest[0]])
    return tables


CLASS_TEST_SOURCES = {
    "no member": lambda: prefix_set("none", [0] * 301),
    "one member": lambda: prefix_set("one", [0] * 150 + [1] + [0] * 150),
}


def class_test_pairs(traces):
    """Fresh-pair makers: the set pairs, and sources with no member and
    with one member below 300 against a builtin and a trace-backed target."""
    makers = [lambda i=i: make_pair(traces, i) for i in range(len(PAIRS))]
    for make_x in CLASS_TEST_SOURCES.values():
        for target in ("evens", f"trace {traces['imm']}"):
            makers.append(lambda make_x=make_x, target=target: (make_x(), parse_set(target)))
    return makers


def test_set_class_test_matches_all_pairs(traces):
    n = 300
    kinds = collections.Counter()
    for make in class_test_pairs(traces):
        for name, table in class_test_tables(*make(), n).items():
            x, y = make()
            want = ref_check_all_pairs(table, SetRelation(x), SetRelation(y), n)
            assert (want is None) == (name == "reduction"), (x.name, name)
            x, y = make()
            assert reductions.check_reduction_prefix(
                table, SetRelation(x), SetRelation(y), n) == want, (x.name, name)
            kinds[name] += 1
    assert len(kinds) == 5 and min(kinds.values()) >= 10, kinds


# ---------------------------------------------------------------------------
# Witness rows in bulk against the per-row reader


def ref_parse_witness(text):
    """The per-row reader: header fields, then each row split at its first
    tab, both sides read with int, the value checked to be a natural number
    and the index checked against the row count."""
    head, _, body = text.partition("---\n")
    fields = dict(line.partition("\t")[::2] for line in head.splitlines())
    values = []
    for lineno, line in enumerate(body.splitlines(), len(head.splitlines()) + 2):
        i, _, v = line.partition("\t")
        try:
            index, value = int(i), int(v)
        except ValueError:
            raise ParseError(f"malformed witness row on line {lineno}: {line!r}") from None
        if value < 0:
            raise ParseError(f"negative witness value on line {lineno}: {line!r}")
        if index != len(values):
            raise PreconditionFailed(f"witness table rows out of order at {i}")
        values.append(value)
    for key in ("claim", "source", "target", "horizon", "convention", "verified"):
        if key not in fields:
            raise ParseError(f"witness header has no {key!r} line")
    try:
        horizon = int(fields["horizon"])
    except ValueError:
        raise ParseError(f"malformed witness horizon {fields['horizon']!r}") from None
    if horizon != len(values) - 1:
        raise PreconditionFailed("witness table length does not match its horizon")
    return (fields["claim"], fields["source"], fields["target"], horizon,
            fields["convention"], fields["verified"] == "1", values)


def parsed(text):
    w = parse_witness(text)
    return (w.claim, w.source, w.target, w.horizon, w.convention, w.verified,
            list(w.program.values))


ROW_EDITS = [
    ("non-integer value", lambda rows, k: rows[k].replace("\t", "\tx", 1)),
    ("non-integer index", lambda rows, k: "#" + rows[k]),
    ("no tab", lambda rows, k: rows[k].replace("\t", " ")),
    ("two tabs", lambda rows, k: rows[k] + "\t7"),
    ("trailing tab", lambda rows, k: rows[k] + "\t"),
    ("padded", lambda rows, k: " " + rows[k].replace("\t", " \t ") + " "),
    ("signed", lambda rows, k: "+" + rows[k].replace("\t", "\t-")),
    ("underscored", lambda rows, k: rows[k] + "_0"),
    ("empty", lambda rows, k: ""),
    ("index off", lambda rows, k: f"{k + 1}\t{rows[k].partition(chr(9))[2]}"),
    ("index swapped", lambda rows, k: rows[k - 1] if k else rows[-1]),
    ("leading zero", lambda rows, k: "0" + rows[k]),
    ("carriage return", lambda rows, k: rows[k] + "\r"),
]


def check_row_edits(edit, top, sizes, parse=parsed):
    """Each edit of one row of tables drawn from 0..top reads as the per-row
    reader reads it; the unedited tables round-trip."""
    change = dict(ROW_EDITS)[edit]
    rng = random.Random(edit)
    for n in sizes:
        w = ReductionWitness(TableProgram([rng.randint(0, top) for _ in range(n)], "t"),
                             "reduction", "a", "b", n - 1)
        text = serialize_witness(w)
        assert parse(text) == ref_parse_witness(text)
        head, _, body = text.partition("---\n")
        if top < CAP:   # the table path reads every unedited table: no per-row reader
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reductions, "_parse_rows", None)
                assert parse(text) == ref_parse_witness(text)
        rows = body.splitlines()
        for k in sorted({0, n - 1, rng.randrange(n)}):
            edited = rows[:k] + [change(rows, k)] + rows[k + 1:]
            for tail in ("\n", ""):
                bad = head + "---\n" + "\n".join(edited) + tail
                assert outcome(parse, bad) == outcome(ref_parse_witness, bad), (n, k)


@pytest.mark.parametrize("edit", [name for name, _ in ROW_EDITS])
def test_parse_witness_rows_match_the_per_row_reader(edit):
    check_row_edits(edit, 10 ** 6, (1, 2, 7, 300))


def parsed_cold(text):
    _text._decimal_table.cache_clear()
    return parsed(text)


@pytest.mark.parametrize("table", ["cold", "warm"])
@pytest.mark.parametrize("edit", [name for name, _ in ROW_EDITS])
def test_parse_witness_table_path_matches_the_per_row_reader(edit, table):
    """Values under the cap reach the table path first, with the table
    built inside the parse (cold) or before it (warm)."""
    _text._decimal_table()
    check_row_edits(edit, CAP - 1, (1, 2, 7, 300, CAP, CAP + 1),
                    parsed_cold if table == "cold" else parsed)


def test_parse_witness_headers_match_the_per_row_reader():
    w = ReductionWitness(TableProgram([4, 5, 6], "t"), "growth-h", "a", "b", 2)
    text = serialize_witness(w)
    variants = [text.replace("horizon\t2", "horizon\tx"), text.replace("horizon\t2", "horizon\t3"),
                text.replace("claim\tgrowth-h\n", ""), text.replace("---\n", ""),
                text.split("---\n")[0] + "---\n", text + "3\t7\n", "", "---\n"]
    for bad in variants:
        assert outcome(parsed, bad) == outcome(ref_parse_witness, bad)


# ---------------------------------------------------------------------------
# Trace records by column against the per-line loop


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def fallbacks(monkeypatch):
    """Each call from _parse_records to the per-line loop, recorded."""
    calls = []
    monkeypatch.setattr(constructions, "_parse_record_lines",
                        lambda *args: calls.append(args) or _parse_record_lines(*args))
    return calls


def family6():
    return [TermProgram(parse_term(t)) for t in FAMILY_TEXTS]


def record_lines(text):
    _, lines, first, _ = _split_trace(text)
    return lines, first


def test_record_columns_match_the_per_line_loop_on_golden_traces(fallbacks):
    names = sorted(GOLDEN.glob("*.trace"))
    assert len(names) == 40
    for path in names:
        lines, first = record_lines(decode_text(path.read_bytes(), path))
        assert _parse_records(lines, first) == _parse_record_lines(lines, first), path.name
    assert not fallbacks


# one record line edited: a name order, a name repeated or added, integers
# other than 0 and 1, and lines the per-line loop rejects
RECORD_EDITS = [
    lambda line: line.replace("Y0=0,Y1=1", "Y1=1,Y0=0"),
    lambda line: line.replace("Y0=", "Y1=", 1),
    lambda line: line.replace("Y1=1", "Y1=1,Z=0"),
    lambda line: line.replace("\tY0=1,Y1=0\t", "\t-\t"),
    lambda line: line.replace("Y0=1", "Y0=7").replace("Y1=0", "Y1=-1"),
    lambda line: line.replace("Y0=", " Y0="),
    lambda line: line.replace("Y0=1", "Y0=1=2"),
    lambda line: line.replace("Y0=1", "Y0"),
    lambda line: line.replace("Y1=0", "Y1=x"),
    lambda line: line.replace("Y1=", "Y1=\u0663", 1),
    lambda line: " " + line,
    lambda line: "+" + line,
    lambda line: "x" + line,
    lambda line: line + "\t-",
    lambda line: line.rpartition("\t")[0],
    lambda line: "",
]


def test_record_columns_match_the_per_line_loop_on_edits(fallbacks):
    lines, first = record_lines(construct_join_split(mod_set(3), family6()[:2], 40)
                                .trace.serialize())
    assert outcome(_parse_records, [], first) == outcome(_parse_record_lines, [], first)
    seen = collections.Counter()
    for edit in RECORD_EDITS:
        for k in (0, 1, 5, 17, len(lines) - 1):
            edited = lines[:k] + [edit(lines[k])] + lines[k + 1:]
            before = len(fallbacks)
            want = outcome(_parse_record_lines, edited, first)
            assert outcome(_parse_records, edited, first) == want, (k, edited[k])
            # the columns read the good lines, and every bad line falls back
            assert (len(fallbacks) > before) == (want[0] is ParseError)
            seen[want[0] is ParseError] += 1
    assert min(seen.values()) >= 20 and len(seen) == 2, seen


def test_record_columns_match_the_per_line_loop_on_mutants(fallbacks):
    saved = [construct_immune(family6(), 40),
             construct_join_split(mod_set(3), family6()[:2], 40),
             construct_dense(parse_set("meet(evens, blocks 6)"),
                             parse_set("join(evens, blocks 6)"), None, family6(), 40)]
    rng = random.Random(20)
    seen = collections.Counter()
    for result in saved:
        original = result.trace.serialize().encode()
        for _ in range(300):
            try:
                lines, first = record_lines(decode_text(fuzz_mutation(rng, original), "m"))
            except ParseError:
                continue
            before = len(fallbacks)
            want = outcome(_parse_record_lines, lines, first)
            assert outcome(_parse_records, lines, first) == want, lines
            # only a malformed line leaves the columns
            error = want[0] is ParseError
            assert (len(fallbacks) > before) == error
            seen["malformed" if error else "records" if lines else "no records"] += 1
    assert min(seen.values()) >= 20 and len(seen) == 3, seen


# ---------------------------------------------------------------------------
# The least-pair scan against one converges_within read per point


def ref_least_violation(flavor, p, source, target, s, member=None):
    """The least violating pair, from ``converges_within`` at every point."""
    domain = s + 1 if isinstance(source, sets.Relation) else len(source)
    images = None if isinstance(target, sets.Relation) else len(target)
    conv = {}
    for x in range(domain):
        v = p.converges_within(x, s)
        if v is not None and (images is None or v < images):
            conv[x] = v
    pair = reductions._PAIR_PREDICATES[flavor]
    for l, vl in conv.items():
        for m, vm in conv.items():
            if m != l:
                left, right = pair(source, target, l, m, vl, vm)
                if left == right:
                    return Counterexample(flavor, l, m, s, left, right, (vl, vm), member)
    return None


def least_programs(rng):
    """Term, native and table programs whose costs fall below and past the
    stages scanned."""
    terms = [TermProgram(parse_term(t)) for t in (*FAMILY_TEXTS, EVENS_TERM, MOD2)]
    values = [[rng.randrange(12) for _ in range(48)] for _ in range(6)]
    costs = [[rng.randrange(40) for _ in range(48)] for _ in range(6)]
    return {"term": terms,
            "native": [NativeProgram(f"n{i}", v.__getitem__, c.__getitem__)
                       for i, (v, c) in enumerate(zip(values, costs))],
            "table": [TableProgram(v, f"t{i}") for i, v in enumerate(values)]}


def least_sides(rng, flavor):
    """The flavour's source and target: relations, or prefixes of random bits."""
    def side(relation):
        if relation:
            return rng.choice([IdentityRelation(), SetRelation(evens_set()), SetRelation(
                prefix_set("r", [rng.randrange(2) for _ in range(8)]))])
        return Prefix(tuple(rng.randrange(2) for _ in range(rng.randrange(30))))
    return {"R_to_RY": (side(True), side(False)), "RY_to_R": (side(False), side(True)),
            "RX_to_RY": (side(False), side(False))}[flavor]


@pytest.mark.parametrize("flavor", sorted(reductions._PAIR_PREDICATES))
def test_least_violation_matches_per_point_reads(flavor):
    rng = random.Random(f"least-{flavor}")
    seen = collections.Counter()
    for kind, programs in least_programs(rng).items():
        for p in programs:
            for _ in range(12):
                source, target = least_sides(rng, flavor)
                s = rng.randrange(41)
                want = outcome(ref_least_violation, flavor, p, source, target, s, "m")
                got = outcome(reductions._least_violation, flavor, p, source, target, s, "m")
                assert got == want, (kind, p.name, s)
                seen[kind, want is None] += 1
    # each kind of program fires in some scans and in others does not
    assert len(seen) == 6, seen
    # a term program runs once per point of the domain
    p, runs = TermProgram(parse_term(FAMILY_TEXTS[4])), []
    run = p._run
    p._run = lambda x: runs.append(x) or run(x)
    source, target = least_sides(rng, flavor)
    reductions._least_violation(flavor, p, source, target, 30)
    assert runs == list(range(31 if isinstance(source, sets.Relation) else len(source)))


# ---------------------------------------------------------------------------
# Kept trace parses and lattice patterns against fresh builds


def clear_kept():
    constructions._trace_outputs.cache_clear()
    sets._lattice_pattern_of.cache_clear()


def dual(desc):
    """desc with every join a meet and every meet a join."""
    return desc.replace("join", "\0").replace("meet", "join").replace("\0", "meet")


@pytest.mark.parametrize("generic", [False, True], ids=["patterns", "generic"])
@pytest.mark.parametrize("desc", FILLED)
def test_kept_parses_and_patterns_build_what_fresh_ones_build(desc, generic, traces):
    clear_kept()
    for d in FILLED:            # every text and pattern kept at the default cap
        make_filled(d, traces), make_filled(dual(d), traces)
    with generic_fills() if generic else contextlib.nullcontext():
        warm = make_filled(desc, traces)
        clear_kept()
        cold = make_filled(desc, traces)
    assert (warm._pattern is None) == (cold._pattern is None)
    assert warm._pattern is None or not (generic and desc.startswith(("join", "meet")))
    top = 200
    assert warm.prefix(top) == cold.prefix(top)
    assert list(warm.cum_costs(range(top + 1))) == list(cold.cum_costs(range(top + 1)))
    budgets = range(-1, cold.cum_cost(top) + 2)
    for convention, points in (("index", range(top + 1)), ("steps", budgets)):
        assert (list(warm.profile(points, convention))
                == list(cold.profile(points, convention))), convention


def test_a_rewritten_trace_parses_afresh(traces, tmp_path):
    path = tmp_path / "t.trace"
    imm, odd = (pathlib.Path(traces[k]).read_text() for k in ("imm", "odd"))
    assert len(imm) == len(odd)
    path.write_text(imm)
    stamp = path.stat()
    first = parse_set(f"trace {path}")
    path.write_text(odd)
    # the same path, size and times: only the text tells the two apart
    os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    second = parse_set(f"trace {path}")
    assert first.prefix(150) == parse_set(f"trace {traces['imm']}").prefix(150)
    assert second.prefix(150) == parse_set(f"trace {traces['odd']}").prefix(150)
    assert first.prefix(150) != second.prefix(150)


@pytest.mark.parametrize("text, message", [
    ("not a trace\n", "not a trace file"),
    (f"{constructions.TRACE_FORMAT}\noutputs\tY\n---\n0\t-\tinit\tY=x\t-\n---\n",
     "malformed trace record on line 4: '0\\t-\\tinit\\tY=x\\t-'"),
    (f"{constructions.TRACE_FORMAT}\nconstruction\timmune\n---\n---\n",
     "trace header has no 'outputs' line"),
], ids=["format", "record", "header"])
def test_a_malformed_trace_raises_alike_and_is_not_kept(text, message, tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text(text)
    clear_kept()
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            parse_set(f"trace {path}")
        assert message in str(info.value)
        assert constructions._trace_outputs.cache_info().currsize == 0


@pytest.mark.parametrize("desc", ["trace {imm}", "join(evens, mod 3)",
                                  "meet(trace {js}:Y0, join(trace {js}:Y1, evens))"])
def test_sets_from_one_text_share_bits_not_memos(desc, traces):
    a, b = (parse_set(desc.format(**traces)) for _ in range(2))
    # a lattice pattern is built once and shared; a trace set's is rebuilt
    assert (a._pattern is b._pattern) == desc.startswith(("join", "meet"))
    a.bit(120)
    assert a.decided > 120 and b.decided == 0
    assert b.prefix(90) == a.prefix(90) and b.decided == 91 and a.decided > 120


def test_kept_parses_and_patterns_stay_within_their_bounds(tmp_path):
    clear_kept()
    for n in range(constructions._TRACE_TEXTS + 3):
        path = tmp_path / f"{n}.trace"
        save_trace(construct_immune([], n), str(path))
        parse_set(f"trace {path}")
    for k in range(2, sets._LATTICE_PATTERNS + 5):
        assert parse_set(f"join(mod {k}, mod {k + 1})")._pattern is not None
    for kept, bound in ((constructions._trace_outputs, constructions._TRACE_TEXTS),
                        (sets._lattice_pattern_of, sets._LATTICE_PATTERNS)):
        info = kept.cache_info()
        assert info.maxsize == info.currsize == bound < info.misses, info
