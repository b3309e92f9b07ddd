"""Fast synthesis and memo paths against the definitional paths they replace.

The references below are the earlier, definitional versions: the two
"least fresh zero" mu-searches that rescan from 0 for every pick, the
per-stage step-rate table, the bit-by-bit step-profile count and the
principal-zero scan.  Each fast path must give the same table or value, or
raise the same exception class with the same message, and must not
materialise a bit past the one the reference reads up to.
"""

import random

import pytest

from punctual.constructions import construct_immune, construct_join_split, save_trace
from punctual.errors import (
    CeilingExceeded,
    NotAReduction,
    PreconditionFailed,
    PunctualityViolation,
    WitnessBoundViolated,
)
from punctual.pr_lang import NativeProgram, TableProgram, TermProgram, parse_term
from punctual.reductions import (
    ReductionWitness,
    _massage_for_growth,
    as_program,
    parse_witness,
    require_reduction,
    respect_normal_form,
    serialize_witness,
    surjectivize,
    synth_p_from_reduction,
    synth_reduction_from_h,
)
from punctual.sets import PrSet, SetRelation, parse_set

from conftest import BOUND_LINEAR, EVENS_TERM, FAMILY_TEXTS, MOD2

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
        if v == 0:
            z = y.principal_zero(0)
            used.add(z)
            table.append(z)
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
    return {"imm": str(d / "imm.trace"), "js": str(d / "js.trace")}


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
            assert list(got.program.values) == want
            tail = want[31:]
            shapes.add((tail[0] == tail[1], tail[-1] == len(want)))
    assert shapes == {(False, True), (True, True), (True, False)}


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
    # a fresh memo stops at the first bit whose cost passes s
    for s in (1, 2, top // 3, top):
        fresh = make(traces)
        fresh.zeros_by_steps(s)
        k = len(fresh._bits)
        assert fresh.cum_cost(k - 1) > s and (k == 1 or fresh.cum_cost(k - 2) <= s)


@pytest.mark.parametrize("kind", ["term", "trace", "join", "meet", "drop"])
def test_principal_zero_matches_scan(kind, traces):
    make = SET_KINDS[kind]
    ref = make(traces)
    x = make(traces)
    assert x._zeros_fast is None
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
