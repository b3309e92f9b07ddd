"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything runs at desk scale with pinned horizons and exact integer
comparisons; no tolerances anywhere.
"""

import itertools
import random

import pytest

from punctual.constructions import (
    construct_dense,
    construct_diamond,
    construct_immune,
    construct_incomparable,
    construct_join_split,
    construct_meet_split,
    construct_separator,
    save_trace,
    verify_trace_file,
)
from punctual.errors import StageBudgetExhausted
from punctual.lattice import (
    check_slowness,
    diamond_evidence_r,
    equilibrium_points,
    make_nondiamond_below,
    make_slow_set,
)
from punctual.pr_lang import (
    NATIVE_REGISTRY,
    Comp,
    Converged,
    PrimRec,
    Proj,
    Succ,
    Zero,
    decode,
    eval_clocked,
    parse_term,
    serialize,
    validate,
)
from punctual.reductions import (
    check_reduction_prefix,
    domination_certificate,
    synth_h_from_reduction,
    synth_p_from_reduction,
    synth_reduction_from_h,
    synth_reduction_from_p,
)
from punctual.sets import (
    IdentityRelation,
    Prefix,
    PredicateRelation,
    SetRelation,
    blocks_set,
    drop_least_zero,
    evens_set,
    mod_set,
    normal_form,
    override_zero_member,
    set_join,
    set_meet,
    string_join,
    string_meet,
)

PASS = "PASS"


def report(n, title):
    print(f"criterion {n}: {title} {PASS}")


def test_criterion_1_join_meet_profile_identities(corpus):
    rng = random.Random(101)
    horizon = 2000
    for _ in range(50):
        x, y = rng.sample(corpus, 2)
        xn, yn = override_zero_member(x), override_zero_member(y)
        j = set_join(x, y)
        m = set_meet(x, y)
        for s in range(horizon + 1):
            a, b = xn.zeros_by_index(s), yn.zeros_by_index(s)
            assert j.zeros_by_index(s) == max(a, b)
            assert m.zeros_by_index(s) == min(a, b)
    report(1, "join/meet profile identities at horizon 2000")


def test_criterion_2_distributivity_bit_exact(corpus):
    rng = random.Random(202)
    horizon = 2000
    for _ in range(20):
        x, y, z = rng.sample(corpus, 3)
        lhs = set_join(x, set_meet(y, z))
        rhs = set_meet(set_join(x, y), set_join(x, z))
        for n in range(horizon + 1):
            assert lhs.bit(n) == rhs.bit(n)
    report(2, "distributivity bit-exact at horizon 2000")


def test_criterion_3_string_calculus_exhaustive():
    def shape_pairs(h):
        out = []
        for a in itertools.product((0, 1), repeat=h):
            for b in itertools.product((0, 1), repeat=h):
                pa, pb = Prefix(a), Prefix(b)
                if pa.zero_count == pb.zero_count:
                    out.append((pa, pb))
        return out

    by_len = {h: shape_pairs(h) for h in range(0, 9)}
    checked = 0
    for h in range(0, 9):
        for hp in range(0, 9 - h):
            for s0, s1 in by_len[h]:
                for t0, t1 in by_len[hp]:
                    for op in (string_join, string_meet):
                        whole = op(s0.concat(t0), s1.concat(t1))
                        head = op(s0, s1)
                        tail = op(t0, t1)
                        # blockwise action on the tail, prefix preserved
                        assert whole.bits[h:] == tail.bits
                        assert whole.bits[:h] == head.bits
                        checked += 1
    assert checked > 2000
    report(3, f"string concatenation law on {checked} cases")


def test_criterion_4_growth_round_trips(corpus):
    e, m3, m5, m7 = evens_set(), mod_set(3), mod_set(5), mod_set(7)
    b3, b6 = blocks_set(3), blocks_set(6)
    term = corpus[7]
    immune_y = corpus[8]
    pairs = []
    for low, high in [(e, m3), (e, m5), (m3, m7), (b3, e), (b6, m3)]:
        pairs.append((set_meet(low, high), override_zero_member(high)))
        pairs.append((override_zero_member(low), set_join(low, high)))
    pairs.extend([
        (drop_least_zero(e), e),
        (drop_least_zero(m3), m3),
        (drop_least_zero(b6), b6),
        (e, e),
        (m5, m5),
        (set_meet(term, m3), override_zero_member(m3)),
        (term, set_join(term, m5)),
        (set_meet(immune_y, e), override_zero_member(e)),
        (immune_y, set_join(immune_y, m3)),
        (set_meet(e, set_meet(m3, b3)), override_zero_member(b3)),
    ])
    assert len(pairs) == 20
    horizon = 1000
    identity = NATIVE_REGISTRY["id"]
    for x, y in pairs:
        g = synth_reduction_from_h(x, y, identity, horizon)
        h = synth_h_from_reduction(g, x, y, horizon)
        g2 = synth_reduction_from_h(x, y, h, horizon)
        assert check_reduction_prefix(g2, SetRelation(x), SetRelation(y),
                                      horizon) is None
        step_horizon = x.cum_cost(horizon)
        p = synth_p_from_reduction(g, x, y, step_horizon)
        for s in range(0, step_horizon + 1, max(1, step_horizon // 2000)):
            assert x.zeros_by_steps(s) <= y.zeros_by_steps(p.value(s))
        g3 = synth_reduction_from_p(x, y, p, horizon)
        assert check_reduction_prefix(g3, SetRelation(x), SetRelation(y),
                                      horizon) is None
    report(4, "growth-rate round trips on 20 pairs, both conventions")


def test_criterion_5_normal_form():
    relations = [
        SetRelation(evens_set()),
        SetRelation(mod_set(3)),
        SetRelation(mod_set(5)),
        SetRelation(blocks_set(4)),
        SetRelation(blocks_set(7)),
        IdentityRelation(),
        PredicateRelation(lambda a, b: a % 2 == b % 2, "cong2"),
        PredicateRelation(lambda a, b: a % 3 == b % 3, "cong3"),
        PredicateRelation(lambda a, b: a % 7 == b % 7, "cong7"),
        PredicateRelation(lambda a, b: a // 5 == b // 5, "fives"),
    ]
    horizon = 500
    for r in relations:
        x, f, g = normal_form(r)
        rx = SetRelation(x)
        assert check_reduction_prefix(f, r, rx, horizon) is None
        assert check_reduction_prefix(g, rx, r, horizon) is None
        for v in range(horizon + 1):
            assert f.value(v) <= v
    report(5, "normal form pairs verified both directions on 10 relations")


def test_criterion_6_construction_traces(family6, tmp_path):
    x = set_meet(evens_set(), blocks_set(6))
    z = set_join(evens_set(), blocks_set(6))
    runs = {
        "immune": lambda: construct_immune(family6, 5000),
        "incomparable": lambda: construct_incomparable(evens_set(), family6, 5000),
        "dense": lambda: construct_dense(
            x, z, domination_certificate(x, z, 400), family6, 5000),
        "join-split": lambda: construct_join_split(mod_set(3), family6, 5000),
        "meet-split": lambda: construct_meet_split(evens_set(), family6, 5000),
    }
    expected_cycles = {"immune": 6, "incomparable": 12, "dense": 12,
                       "join-split": 12, "meet-split": 12}
    for name, build in runs.items():
        first = build()
        again = build()
        assert first.trace.serialize() == again.trace.serialize(), name
        assert first.trace.footer[0] == ("verdict", "ok"), name
        closes = sum(1 for rec in first.trace.records
                     for e in rec.events
                     if e.startswith("close:P") or e.startswith("close:Q"))
        assert closes == expected_cycles[name], name
    trace_path = tmp_path / "js.trace"
    save_trace(runs["join-split"](), trace_path)
    ok, msg = verify_trace_file(trace_path)
    assert ok, msg
    report(6, "five constructions close every cycle, validate, and replay")


def test_criterion_7_diamond_both_directions(family6):
    x = set_meet(evens_set(), blocks_set(6))
    z = set_join(evens_set(), blocks_set(6))
    r = construct_diamond(x, z, family6, 500)
    assert r.trace.footer[0] == ("verdict", "ok")
    y0, y1 = r.outputs["Y0"], r.outputs["Y1"]
    last = max(rec.stage for rec in r.trace.records
               for e in rec.events if e.startswith("close:"))
    meet = set_meet(y0, y1)
    join = set_join(y0, y1)
    for i in range(min(last, 500) + 1):
        assert meet.bit(i) == x.bit(i)
        assert join.bit(i) == z.bit(i)
    eq = equilibrium_points(y0, y1, 500, "index")
    assert eq.count >= 5
    for s in eq.points:
        assert (join.zeros_by_index(s) == meet.zeros_by_index(s)
                == y0.zeros_by_index(s))

    below = make_nondiamond_below(drop_least_zero(evens_set()),
                                  [NATIVE_REGISTRY["id"],
                                   NATIVE_REGISTRY["square"]], 8)
    with pytest.raises(StageBudgetExhausted) as exc:
        construct_diamond(below, drop_least_zero(evens_set()), family6, 400)
    assert exc.value.phase == "transition"
    report(7, "diamond bit-exact both sides; starved pair names transition")


def test_criterion_8_tower_laws(corpus):
    for x in corpus:
        d = drop_least_zero(x)
        for t in range(2001):
            assert d.zeros_by_index(t) == max(0, x.zeros_by_index(t) - 1)
            assert d.zeros_by_steps(t) == max(0, x.zeros_by_steps(t) - 1)
    for x in [evens_set(), mod_set(3), blocks_set(6), corpus[7]]:
        d = drop_least_zero(x)
        for n in range(51):
            assert d.principal_zero(n, 5000) == x.principal_zero(n + 1, 5000)
        cert = domination_certificate(d, x, 300)
        ev = diamond_evidence_r(d, x, NATIVE_REGISTRY["id"], (0, 50), cert,
                                ceiling=5000)
        assert ev.count == 51

    slow_family = [NATIVE_REGISTRY[n] for n in
                   ["id", "plus2", "double", "triple", "square", "square_plus"]]
    slow = make_slow_set(slow_family, 12)
    assert check_slowness(slow, slow_family, (0, 10)).slow_on_window
    d2 = drop_least_zero(drop_least_zero(slow))
    cert = domination_certificate(d2, slow, 500)
    for r in slow_family:
        ev = diamond_evidence_r(d2, slow, r, (0, 8), cert)
        assert ev.count == 0

    e2 = drop_least_zero(drop_least_zero(evens_set()))
    cert = domination_certificate(e2, evens_set(), 300)
    ev = diamond_evidence_r(e2, evens_set(), NATIVE_REGISTRY["plus2"], (0, 50),
                            cert)
    assert ev.count == 51
    report(8, "drop-one profile laws, slow/non-slow evidence contrast")


@pytest.mark.xfail(strict=True,
                   reason="the identity cannot outpace the two-position "
                          "shift: the (n+1)-st zero sits at 2n+5, the bound "
                          "at 2n+3, so no window index ever scores")
def test_criterion_8_identity_on_double_drop_scores():
    e2 = drop_least_zero(drop_least_zero(evens_set()))
    cert = domination_certificate(e2, evens_set(), 300)
    ev = diamond_evidence_r(e2, evens_set(), NATIVE_REGISTRY["id"], (0, 50),
                            cert)
    assert ev.count == 51


def test_criterion_9_separator():
    x = evens_set()
    fam = [NATIVE_REGISTRY[n] for n in
           ["id", "succ", "plus2", "double", "triple", "const5"]]
    y = make_nondiamond_below(drop_least_zero(evens_set()), fam, 8)
    r = construct_separator(x, y, fam, 5000)
    assert r.trace.footer[0] == ("verdict", "ok")
    assert len(r.notes["escapes"]) == len(fam)
    z = r.output()
    for s in range(2001):
        assert z.zeros_by_index(s) <= max(0, x.zeros_by_steps(s) - 1)
    report(9, "separator postconditions and bracket invariant to stage 5000")


def test_criterion_10_evaluator_and_coding():
    rng = random.Random(404)

    def small_term(depth, arity):
        if depth == 0 or rng.random() < 0.35:
            if arity == 1 and rng.random() < 0.3:
                return Succ()
            return Proj(arity, rng.randint(1, arity))
        if rng.random() < 0.5:
            k = rng.randint(1, 2)
            outer = small_term(depth - 1, k)
            return Comp(outer, tuple(small_term(depth - 1, arity)
                                     for _ in range(k)))
        if arity == 1:
            return PrimRec(Zero(), small_term(depth - 1, 3))
        return PrimRec(small_term(depth - 1, arity - 1),
                       small_term(depth - 1, arity + 2))

    for _ in range(10_000):
        ar = rng.randint(1, 2)
        t = small_term(2, ar)
        args = [rng.randint(0, 6) for _ in range(ar)]
        b1 = rng.randint(0, 60)
        b2 = b1 + rng.randint(0, 60)
        first = eval_clocked(t, args, b1)
        second = eval_clocked(t, args, b2)
        if isinstance(first, Converged):
            assert second == first
            assert first.steps < b1

    for _ in range(1000):
        t = small_term(3, rng.randint(1, 3))
        validate(t)
        assert parse_term(serialize(t)) == t

    for e in range(10_001):
        validate(decode(e))
    report(10, "evaluator monotonicity, parser round trip, decode totality")
