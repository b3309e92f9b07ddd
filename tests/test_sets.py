import inspect
import itertools
import random

import pytest

from punctual import constructions, lattice, reductions
from punctual.errors import (
    ArityError,
    CeilingExceeded,
    NotEquivalence,
    ParseError,
    ShapeMismatch,
)
from punctual.sets import (
    IdentityRelation,
    Prefix,
    PrSet,
    SetRelation,
    drop_least_zero,
    evens_set,
    mod_set,
    normal_form,
    parse_set,
    prefix_set,
    principal_transversal,
    set_join,
    set_meet,
    singleton_zero_set,
    string_join,
    string_meet,
    term_set,
    zero_list_set,
)

# term computing the characteristic function of the even numbers:
# not(x) = 1 monus x, via msub(b, a) = a monus b and pred
PRED = "R(Z; P[3,2])"
MSUB = f"R(P[1,1]; C({PRED}; P[4,4]))"
CONST1 = "C(S; R(Z; P[3,3]))"
NOT = f"C({MSUB}; P[1,1], {CONST1})"
MOD2 = f"R(Z; C({NOT}; P[3,3]))"
EVENS_TERM = f"C({NOT}; {MOD2})"
# generous linear bound: 64 * (n + 1), via six doublings of n + 1
DOUBLE = "R(Z; C(S; C(S; P[3,3])))"
BOUND64 = "C(S; P[1,1])"
for _ in range(6):
    BOUND64 = f"C({DOUBLE}; {BOUND64})"


def brute_zeros_by_index(x, s):
    return sum(1 for n in range(s + 1) if x.bit(n) == 0)


def brute_zeros_by_steps(x, s):
    total = 0
    k = -1
    while True:
        total += x.bit_cost(k + 1)
        if total > s:
            break
        k += 1
    if k < 0:
        return 0
    return brute_zeros_by_index(x, k)


class TestProfiles:
    def test_builtin_bits(self):
        e = evens_set()
        assert e.bit(4) == 1
        assert e.bit(3) == 0
        assert mod_set(3).bit(5) == 0
        assert mod_set(3).bit(6) == 1

    def test_zeros_by_index_examples(self):
        e = evens_set()
        assert e.zeros_by_index(4) == 2
        assert e.zeros_by_index(0) == 0
        assert mod_set(3).zeros_by_index(5) == 4

    def test_profile_step_law(self):
        for x in [evens_set(), mod_set(3), mod_set(5), singleton_zero_set()]:
            prev = x.zeros_by_index(0)
            for s in range(1, 300):
                cur = x.zeros_by_index(s)
                assert cur - prev in (0, 1)
                assert cur <= s + 1
                prev = cur

    def test_zeros_by_steps_zero_budget(self):
        assert evens_set().zeros_by_steps(0) == 0

    def test_zeros_by_steps_matches_brute_force(self):
        rng = random.Random(5)
        for x in [evens_set(), mod_set(3), prefix_set("t", [1, 0, 1, 1, 0, 0, 1])]:
            for _ in range(40):
                s = rng.randint(0, 120)
                assert x.zeros_by_steps(s) == brute_zeros_by_steps(x, s)

    def test_zeros_by_steps_monotone(self):
        x = mod_set(4)
        vals = [x.zeros_by_steps(s) for s in range(100)]
        assert vals == sorted(vals)

    def test_prefix_convention(self):
        e = evens_set()
        p = e.prefix(4)
        assert len(p) == 5
        assert p.bits == (1, 0, 1, 0, 1)
        assert e.prefix(5).bits[:5] == p.bits

    # a read below bit 0: counts and costs of no bits are 0, the empty
    # prefix is the one of length 0, and no bit lies below 0
    NEGATIVE_READS = [
        ("zeros_by_index", -1, 0), ("zeros_by_index", -3, 0),
        ("cum_cost", -1, 0), ("cum_cost", -4, 0),
        ("prefix", -1, Prefix(())),
        ("prefix", -2, ValueError), ("prefix", -3, ValueError),
        ("bit", -1, ValueError), ("bit", -2, ValueError),
        ("bit_cost", -1, ValueError), ("bit_cost", -2, ValueError),
    ]

    @pytest.mark.parametrize("dsl", ["evens", "join(evens, mod 3)",
                                     f'term "{EVENS_TERM}" bound "{BOUND64}"'],
                             ids=["evens", "join", "term"])
    @pytest.mark.parametrize("grown", [None, 5])
    @pytest.mark.parametrize("read, s, want", NEGATIVE_READS)
    def test_negative_reads(self, read, s, want, grown, dsl):
        x = parse_set(dsl)
        if grown is not None:
            x.bit(grown)
        held = x.decided
        if want is ValueError:
            with pytest.raises(ValueError):
                getattr(x, read)(s)
        else:
            assert getattr(x, read)(s) == want
        assert x.decided == held
        assert list(x.profile([s, 3, s])) == [0, x.zeros_by_index(3), 0]

    def test_principal_zero(self):
        e = evens_set()
        assert e.principal_zero(0) == 1
        assert e.principal_zero(5) == 11
        assert mod_set(3).principal_zero(2) == 4

    def test_ceiling_exceeded(self):
        nearly_full = PrSet("dense", lambda n: 0 if n == 2 else 1)
        with pytest.raises(CeilingExceeded):
            nearly_full.principal_zero(1, ceiling=500)

    @pytest.mark.parametrize("dsl", ["evens", "mod 3", "blocks 6", "id",
                                     "drop(evens)", "join(evens, mod 3)"])
    def test_ceiling_holds_on_every_descriptor(self, dsl):
        x = parse_set(dsl)
        with pytest.raises(CeilingExceeded):
            x.principal_zero(10, 5)
        assert len(x._bits) == 6            # bits 0..5, none past the ceiling
        want = [n for n in range(100) if x.bit(n) == 0][10]
        assert parse_set(dsl).principal_zero(10, want) == want

    def test_zero_list_answers_past_the_ceiling(self):
        # a zero-list set's zeros may lie past any memo, so its list answers
        x = zero_list_set("gaps", lambda zs: (zs[-1] * 2 + 1) if zs else 2)
        assert x.principal_zero(10, 5) == 3071
        assert drop_least_zero(x).principal_zero(9, 5) == 3071


class TestTermKind:
    def test_term_set_matches_builtin(self):
        t = term_set(EVENS_TERM, BOUND64)
        e = evens_set()
        for n in range(64):
            assert t.bit(n) == e.bit(n)

    def test_term_set_constant_cost_example(self):
        # constant per-bit cost: identity term never converges to 0/1 beyond
        # bit tests, so use a flat-cost table-like term: P[1,1] gives bit(n)=min(n,1)-ish;
        # instead check the stated scaling law on a synthetic flat-cost set.
        c = 7
        x = PrSet("flat", lambda n: 1 - (n % 2), lambda n: c)
        assert x.zeros_by_steps(5 * c) == x.zeros_by_index(4)

    def test_dsl_round_trip(self):
        t = term_set(EVENS_TERM, BOUND64)
        again = parse_set(t.dsl)
        for n in range(20):
            assert again.bit(n) == t.bit(n)


class TestStringCalculus:
    def test_spec_pairs(self):
        s = Prefix.from_str("0101")
        t = Prefix.from_str("0110")
        assert string_join(s, t).as_str() == "0101"
        assert string_meet(s, t).as_str() == "0110"
        s2 = Prefix.from_str("1001")
        t2 = Prefix.from_str("0101")
        assert string_join(s2, t2).as_str() == "0101"
        assert string_meet(s2, t2).as_str() == "1001"

    def test_idempotence(self):
        s = Prefix.from_str("100101")
        assert string_join(s, s) == s
        assert string_meet(s, s) == s

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            string_join(Prefix.from_str("01"), Prefix.from_str("011"))
        with pytest.raises(ShapeMismatch):
            string_meet(Prefix.from_str("01"), Prefix.from_str("00"))

    def test_shape_preserved(self):
        rng = random.Random(2)
        for _ in range(200):
            h = rng.randint(1, 10)
            z = rng.randint(0, h)
            positions = sorted(rng.sample(range(h), z))
            pos2 = sorted(rng.sample(range(h), z))
            a = Prefix(tuple(0 if i in positions else 1 for i in range(h)))
            b = Prefix(tuple(0 if i in pos2 else 1 for i in range(h)))
            for op in (string_join, string_meet):
                out = op(a, b)
                assert len(out) == h
                assert out.zero_count == z

    def test_concatenation_law_exhaustive(self):
        # blocks concatenate: the lattice ops act blockwise on shape-compatible parts
        def shape_pairs(h):
            out = []
            for bits_a in itertools.product((0, 1), repeat=h):
                for bits_b in itertools.product((0, 1), repeat=h):
                    a, b = Prefix(bits_a), Prefix(bits_b)
                    if a.zero_count == b.zero_count:
                        out.append((a, b))
            return out

        checked = 0
        for h in range(0, 5):
            for hp in range(0, 5 - h + 1):
                for s0, s1 in shape_pairs(h):
                    for t0, t1 in shape_pairs(hp):
                        for op in (string_join, string_meet):
                            whole = op(s0.concat(t0), s1.concat(t1))
                            tail = op(t0, t1)
                            head = op(s0, s1)
                            assert whole.bits[:h] == head.bits
                            assert whole.bits[h:] == tail.bits
                            checked += 1
        assert checked > 1000


class TestSetLattice:
    def test_join_meet_of_evens_mod3(self):
        e, m = evens_set(), mod_set(3)
        j = set_join(e, m)
        w = set_meet(e, m)
        for n in range(300):
            assert j.bit(n) == m.bit(n)
            assert w.bit(n) == e.bit(n)

    def test_profile_identities(self):
        e, m = evens_set(), mod_set(5)
        j = set_join(e, m)
        w = set_meet(e, m)
        for s in range(300):
            assert j.zeros_by_index(s) == max(e.zeros_by_index(s), m.zeros_by_index(s))
            assert w.zeros_by_index(s) == min(e.zeros_by_index(s), m.zeros_by_index(s))

    def test_join_idempotent(self):
        e = evens_set()
        j = set_join(e, e)
        for n in range(100):
            assert j.bit(n) == e.bit(n)

    def test_normalization_forces_zero_member(self):
        odds = PrSet("odds", lambda n: n % 2, dsl=None)
        j = set_join(odds, evens_set())
        assert j.bit(0) == 1
        assert j.zeros_by_index(0) == 0

    def test_distributivity_bit_exact(self):
        x, y, z = evens_set(), mod_set(3), mod_set(5)
        lhs = set_join(x, set_meet(y, z))
        rhs = set_meet(set_join(x, y), set_join(x, z))
        for n in range(400):
            assert lhs.bit(n) == rhs.bit(n)

    def test_lattice_laws_at_profile_level(self):
        x, y, z = evens_set(), mod_set(3), mod_set(5)
        comm_j = (set_join(x, y), set_join(y, x))
        comm_m = (set_meet(x, y), set_meet(y, x))
        assoc = (set_join(set_join(x, y), z), set_join(x, set_join(y, z)))
        absorb = (set_join(x, set_meet(x, y)), x)
        for a, b in (comm_j, comm_m, assoc, absorb):
            for n in range(300):
                assert a.bit(n) == b.bit(n)

    def test_sampled_coinfinite_window(self):
        from punctual.sets import sample_window_mixed
        for x in [evens_set(), mod_set(3), prefix_set("t", [1, 0, 0])]:
            for horizon in (0, 100, 500):
                assert sample_window_mixed(x, horizon)
        all_ones = PrSet("ones", lambda n: 1)
        assert not sample_window_mixed(all_ones, 0)
        # the singleton set is coinfinite but finite: windows past 0 are flat
        assert not sample_window_mixed(singleton_zero_set(), 100)


class TestDropLeastZero:
    def test_evens_shift(self):
        d = drop_least_zero(evens_set())
        zeros = [n for n in range(20) if d.bit(n) == 0]
        assert zeros == [3, 5, 7, 9, 11, 13, 15, 17, 19]

    def test_iterate(self):
        d2 = drop_least_zero(drop_least_zero(evens_set()))
        zeros = [n for n in range(20) if d2.bit(n) == 0]
        assert zeros == [5, 7, 9, 11, 13, 15, 17, 19]

    def test_profile_law_both_conventions(self):
        for x in [evens_set(), mod_set(3), prefix_set("t", [1, 1, 0, 1, 0, 0, 1, 0])]:
            d = drop_least_zero(x)
            for t in range(200):
                assert d.zeros_by_index(t) == max(0, x.zeros_by_index(t) - 1)
                assert d.zeros_by_steps(t) == max(0, x.zeros_by_steps(t) - 1)

    def test_principal_shift_identity(self):
        x = mod_set(3)
        d = drop_least_zero(x)
        for n in range(50):
            assert d.principal_zero(n) == x.principal_zero(n + 1)


class TestZeroListSet:
    def test_fast_path(self):
        x = zero_list_set("gaps", lambda zs: (zs[-1] * 2 + 1) if zs else 2)
        assert x.principal_zero(0) == 2
        assert x.principal_zero(1) == 5
        assert x.principal_zero(2) == 11
        assert x.bit(2) == 0
        assert x.bit(3) == 1
        assert x.zeros_by_index(11) == 3


# every value a caller can set on a descriptor constructor
DESCRIPTOR_PARAMETERS = {
    PrSet: ["name", "bit_fn", "cost_fn", "dsl", "zeros_fast", "fill"],
    prefix_set: ["name", "bits", "dsl", "cost_fn"],
    zero_list_set: ["name", "next_zero"],
}


def test_descriptor_parameter_surface():
    surface = {fn: list(inspect.signature(fn).parameters)
               for fn in DESCRIPTOR_PARAMETERS}
    assert surface == DESCRIPTOR_PARAMETERS


# functions that once took a value no caller set or no code read
TRIMMED_PARAMETERS = {
    drop_least_zero: ["x"],
    lattice.shift_top_certificate: ["g", "x", "horizon"],
    lattice.make_nondiamond_below: ["y", "family", "window_length"],
    lattice.check_slowness: ["x", "family", "window"],
    lattice.restrict_diamond_witness: ["x", "x2", "y2", "y", "f", "g", "horizon",
                                       "certificate"],
    constructions.load_trace_set: ["path"],
    reductions.check_pre_immune: ["x", "family", "horizon"],
}


def test_trimmed_parameter_surface():
    surface = {fn: list(inspect.signature(fn).parameters)
               for fn in TRIMMED_PARAMETERS}
    assert surface == TRIMMED_PARAMETERS


class TestTransversalAndNormalForm:
    def test_transversal_identity(self):
        t = principal_transversal(IdentityRelation(), 5)
        assert t.bits == (0, 1, 1, 1, 1, 1)

    def test_transversal_evens(self):
        r = SetRelation(evens_set())
        t = principal_transversal(r, 6)
        assert [y for y in range(7) if t[y]] == [1, 3, 5]

    def test_transversal_near_identity(self):
        r = SetRelation(singleton_zero_set())
        t = principal_transversal(r, 4)
        assert t.bits == (0, 1, 1, 1, 1)

    def test_not_equivalence(self):
        class Bad:
            name = "bad"

            def related(self, x, y):
                return x <= y

        with pytest.raises(NotEquivalence):
            principal_transversal(Bad(), 10)

    def test_normal_form_evens(self):
        r = SetRelation(evens_set())
        x, f, g = normal_form(r)
        for n in range(40):
            assert x.bit(n) == evens_set().bit(n)
        assert f.value(2) == 0
        assert f.value(4) == 0
        assert f.value(3) == 3
        assert g.value(2) == 0
        assert g.value(3) == 3

    def test_normal_form_identity(self):
        x, f, g = normal_form(IdentityRelation())
        assert [x.bit(n) for n in range(5)] == [1, 0, 0, 0, 0]
        for n in range(20):
            assert f.value(n) == n

    def test_f_bounded_by_argument(self):
        r = SetRelation(mod_set(4))
        _, f, _ = normal_form(r)
        for n in range(60):
            assert f.value(n) <= n


# Every raise site of the descriptor DSL: (text, type, exact message,
# position).  Positions count from the first non-blank character.
BAD_DESCRIPTORS = [
    ("", ParseError, "unknown descriptor '' (at position 0)", 0),
    ("   ", ParseError, "unknown descriptor '' (at position 0)", 0),
    ("sevens", ParseError, "unknown descriptor 'sevens' (at position 6)", 6),
    ("mod3", ParseError, "unknown descriptor 'mod3' (at position 4)", 4),
    ("\u00e9vens", ParseError, "unknown descriptor '\u00e9vens' (at position 5)", 5),
    ("mod x", ParseError, "mod needs a number (at position 4)", 4),
    ("mod", ParseError, "mod needs a number (at position 3)", 3),
    ("blocks", ParseError, "blocks needs a number (at position 6)", 6),
    ("mod \u00b2", ParseError, "mod needs a number (at position 4)", 4),
    ("mod 3x", ParseError, "trailing input after descriptor (at position 5)", 5),
    ("evens extra", ParseError, "trailing input after descriptor (at position 6)", 6),
    ("  evens  x", ParseError, "trailing input after descriptor (at position 7)", 7),
    ("join(evens, mod 3))", ParseError,
     "trailing input after descriptor (at position 18)", 18),
    ("join evens", ParseError, "expected '(' in descriptor (at position 5)", 5),
    ("join(evens mod 3)", ParseError, "expected ',' in descriptor (at position 11)", 11),
    ("drop(evens", ParseError, "expected ')' in descriptor (at position 10)", 10),
    ("join(evens, mod 3", ParseError, "expected ')' in descriptor (at position 17)", 17),
    ("meet(evens,)", ParseError, "unknown descriptor '' (at position 11)", 11),
    ("term S bound S", ParseError, "expected a quoted string (at position 5)", 5),
    ('term "S', ParseError, "unterminated quote (at position 5)", 5),
    ('term "S" bind "S"', ParseError, "term descriptor needs a bound (at position 13)", 13),
    ('term "S"', ParseError, "term descriptor needs a bound (at position 8)", 8),
    ('term "S" bound S', ParseError, "expected a quoted string (at position 15)", 15),
    ('term "S" bound "S', ParseError, "unterminated quote (at position 15)", 15),
    ('term "X" bound "S"', ParseError, "expected a term, got 'X' (at position 0)", 0),
    ('term "R(Z; S)" bound "S"', ArityError,
     "recursion step arity 1 != base arity 0 + 3 (at position 0)", 0),
    ("trace", ParseError, "expected a path (at position 5)", 5),
    ("trace ,", ParseError, "expected a path (at position 6)", 6),
    ("drop(trace)", ParseError, "expected a path (at position 10)", 10),
    ("join (evens , mod x )", ParseError, "mod needs a number (at position 18)", 18),
    ("join (evens , mod 3 ) )", ParseError,
     "trailing input after descriptor (at position 22)", 22),
    ("mod 1", ParseError, "mod K needs K >= 2, got 1", None),
    ("blocks 0", ParseError, "blocks K needs K >= 1, got 0", None),
    ("mod 200001", ParseError, "mod K needs K <= the index ceiling 200000, got 200001", None),
]


class TestDsl:
    def test_builtins(self):
        assert parse_set("evens").bit(2) == 1
        assert parse_set("mod 3").bit(3) == 1
        assert parse_set("id").bit(0) == 1
        assert parse_set("id").bit(1) == 0

    def test_compound(self):
        j = parse_set("join(evens, mod 3)")
        assert [j.bit(n) for n in range(7)] == [mod_set(3).bit(n) for n in range(7)]
        d = parse_set("drop(evens)")
        assert d.bit(1) == 1 and d.bit(3) == 0

    def test_rejects_garbage(self):
        for text, error, message, position in BAD_DESCRIPTORS:
            with pytest.raises(error) as exc:
                parse_set(text)
            assert (type(exc.value), str(exc.value), exc.value.position) == (
                error, message, position), text
