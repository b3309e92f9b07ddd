import collections
import gc
import itertools
import random
import weakref

import pytest

from punctual import pr_lang
from punctual.errors import ArityError, ParseError
from punctual.pr_lang import (
    Comp,
    Converged,
    OUT_OF_BUDGET,
    PrimRec,
    Proj,
    Succ,
    TermProgram,
    Zero,
    arity,
    coerce_arity,
    const_term,
    converges_within,
    decode,
    encode,
    eval_clocked,
    eval_cost,
    eval_total,
    parse_term,
    serialize,
    unary_wrap,
    validate,
)

from conftest import nested_recursion, shallow_term


def reference_cost(t, args):
    """Independent cost oracle: one visit per node, recursion unfolds linearly."""
    if isinstance(t, (Zero, Succ, Proj)):
        return 1
    if isinstance(t, Comp):
        total = 1
        vals = []
        for g in t.inners:
            total += reference_cost(g, args)
            vals.append(reference_value(g, args))
        return total + reference_cost(t.outer, vals)
    if isinstance(t, PrimRec):
        y = args[0]
        total = 1 + reference_cost(t.base, args[1:])
        acc = reference_value(t.base, args[1:])
        for i in range(y):
            step_args = list(args) + [i, acc]
            total += reference_cost(t.step, step_args)
            acc = reference_value(t.step, step_args)
        return total
    raise TypeError(t)


def reference_value(t, args):
    """Independent evaluator: unfold the schema definitionally."""
    if isinstance(t, Zero):
        return 0
    if isinstance(t, Succ):
        return args[0] + 1
    if isinstance(t, Proj):
        return args[t.i - 1]
    if isinstance(t, Comp):
        return reference_value(t.outer, [reference_value(g, args) for g in t.inners])
    if isinstance(t, PrimRec):
        acc = reference_value(t.base, list(args[1:]))
        for i in range(args[0]):
            acc = reference_value(t.step, list(args) + [i, acc])
        return acc
    raise TypeError(t)


def random_term(rng, depth, target_arity):
    """Generate a valid term of the requested arity."""
    if depth <= 0 or rng.random() < 0.3:
        if target_arity == 0:
            return Zero()
        if target_arity == 1 and rng.random() < 0.3:
            return Succ()
        return Proj(target_arity, rng.randint(1, target_arity))
    kind = rng.choice(["comp", "rec", "leaf"])
    if kind == "leaf" or target_arity == 0:
        return random_term(rng, 0, target_arity)
    if kind == "comp":
        k = rng.randint(1, 3)
        outer = random_term(rng, depth - 1, k)
        inners = tuple(random_term(rng, depth - 1, target_arity) for _ in range(k))
        return Comp(outer, inners)
    base = random_term(rng, depth - 1, target_arity - 1)
    step = random_term(rng, depth - 1, target_arity + 2)
    return PrimRec(base, step)


def oracle_outcome(t, args, budget):
    cost = reference_cost(t, args)
    return Converged(reference_value(t, args), cost) if cost < budget else OUT_OF_BUDGET


ADD_SHAPED = "R(Z; C(S; P[3,3]))"


class TestParse:
    def test_identity_projection(self):
        assert parse_term("P[1,1]") == Proj(1, 1)

    def test_successor_composition(self):
        assert parse_term("C(S; P[1,1])") == Comp(Succ(), (Proj(1, 1),))

    def test_unary_recursion(self):
        t = parse_term(ADD_SHAPED)
        assert t == PrimRec(Zero(), Comp(Succ(), (Proj(3, 3),)))
        assert arity(t) == 1

    def test_whitespace_insignificant(self):
        assert parse_term(" R( Z ;C(S;  P[3,3]) ) ") == parse_term(ADD_SHAPED)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_term("C(S; P[1,1]")
        assert exc.value.position is not None

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ArityError):
            parse_term("C(S; P[1,1], P[1,1])")
        with pytest.raises(ArityError):
            parse_term("P[2,3]")
        with pytest.raises(ArityError):
            parse_term("R(Z; S)")

    def test_round_trip_generated_corpus(self):
        rng = random.Random(7)
        for _ in range(300):
            t = random_term(rng, 3, rng.randint(1, 3))
            validate(t)
            assert parse_term(serialize(t)) == t


class TestEval:
    def test_identity_single_visit(self):
        assert eval_clocked(Proj(1, 1), [7], 10) == Converged(7, 1)

    def test_budget_is_strict(self):
        assert eval_clocked(Proj(1, 1), [7], 1) == OUT_OF_BUDGET
        assert eval_clocked(Proj(1, 1), [7], 2) == Converged(7, 1)

    def test_unary_recursion_returns_argument(self):
        t = parse_term(ADD_SHAPED)
        k = reference_cost(t, [3])
        assert k == 11
        assert eval_clocked(t, [3], 100) == Converged(3, k)
        assert eval_clocked(t, [3], k) == OUT_OF_BUDGET
        assert eval_clocked(t, [3], k + 1) == Converged(3, k)

    def test_cost_matches_reference_on_corpus(self):
        rng = random.Random(11)
        for _ in range(120):
            ar = rng.randint(1, 3)
            t = random_term(rng, 3, ar)
            args = [rng.randint(0, 4) for _ in range(ar)]
            want = reference_value(t, args)
            cost = reference_cost(t, args)
            assert eval_cost(t, args) == cost
            assert eval_clocked(t, args, cost + 1) == Converged(want, cost)

    def test_budget_monotonicity_random_sweep(self):
        rng = random.Random(13)
        for _ in range(300):
            ar = rng.randint(1, 2)
            t = random_term(rng, 2, ar)
            args = [rng.randint(0, 6) for _ in range(ar)]
            b1 = rng.randint(0, 40)
            b2 = b1 + rng.randint(0, 40)
            first = eval_clocked(t, args, b1)
            second = eval_clocked(t, args, b2)
            if isinstance(first, Converged):
                assert second == first
                assert first.steps < b1

    def test_determinism(self):
        t = parse_term("R(Z; C(S; P[3,3]))")
        assert eval_clocked(t, [5], 50) == eval_clocked(t, [5], 50)

    def test_const_term(self):
        assert eval_total(const_term(4), [9]) == 4
        assert eval_total(const_term(0), [3]) == 0


PRED = "R(Z; P[3,2])"                            # reads its counter
MSUB = f"R(P[1,1]; C({PRED}; P[4,4]))"           # MSUB(y, x) = x monus y
CONST1 = "C(S; R(Z; P[3,3]))"
NOT = f"C({MSUB}; P[1,1], {CONST1})"
MOD2 = f"R(Z; C({NOT}; P[3,3]))"                 # states 0, 1, 0, ...
FLIP_FROM_X = f"R(P[1,1]; C({NOT}; P[4,4]))"     # states x, 0, 1, 0, ...
UNARY_ID = "R(Z; C(S; P[3,3]))"
GROWING = f"R(Z; C(S; C({UNARY_ID}; P[3,3])))"   # nested loop, states 0, 1, 2, ...


def compiled_sources(text):
    """The source of every function compiled for a term, in compile order:
    the loops it holds, inner loops first, then its entry last.  Every
    compile cache is cleared first, so each loop is compiled afresh."""
    sources = []
    define = pr_lang._define

    def recording(name, lines, block):
        sources.append("\n".join(lines))
        return define(name, lines, block)

    for cache in (parse_term, pr_lang._loop, pr_lang._compiled, pr_lang._shape):
        cache.cache_clear()
    pr_lang._define = recording
    try:
        pr_lang._compiled(parse_term(text))
    finally:
        pr_lang._define = define
    return sources


def loop_sources(text):
    """The generated loop functions of a term, without its entry."""
    return compiled_sources(text)[:-1]


class TestCompiledAgainstOracle:
    """The generated code against the definitional oracle, budget by budget."""

    def test_nested_recursion_budgets(self):
        rng = random.Random(505)
        for _ in range(400):
            ar = rng.randint(1, 2)
            t = nested_recursion(rng, 2, ar)
            args = [rng.randint(0, 5) for _ in range(ar)]
            cost = reference_cost(t, args)
            assert eval_cost(t, args) == cost
            assert eval_total(t, args) == reference_value(t, args)
            for budget in (0, 1, cost - 1, cost, cost + 1, rng.randint(0, 2 * cost + 2)):
                assert eval_clocked(t, args, budget) == oracle_outcome(t, args, budget)

    def test_decode_sweep_through_converges_within(self):
        for e in range(3000):
            t = unary_wrap(decode(e))
            for x in range(6):
                cost = reference_cost(t, [x])
                value = reference_value(t, [x])
                assert converges_within(e, x, cost) is None
                assert converges_within(e, x, cost + 1) == value

    def check_budgets(self, text, args):
        t = parse_term(text)
        cost = reference_cost(t, args)
        assert eval_cost(t, args) == cost
        assert eval_total(t, args) == reference_value(t, args)
        for budget in (0, 1, cost - 1, cost, cost + 1):
            assert eval_clocked(t, args, budget) == oracle_outcome(t, args, budget)

    @pytest.mark.parametrize("text", [
        "R(Z; P[3,3])",                            # k = 0
        "R(Z; C(S; C(S; C(S; P[3,3]))))",          # k = 3
        "C(S; C(S; R(Z; C(S; P[3,3]))))",          # linear_bound(1, 2)
        "R(P[1,1]; C(S; C(S; P[4,4])))",           # with a fixed argument
    ])
    def test_affine_steps(self, text):
        assert loop_sources(text) == []            # written inline in the entry
        # the closed form's y visits join the static cost in the one charge line
        charges = [line for line in compiled_sources(text)[-1].split("\n") if "c += " in line]
        assert len(charges) == 1 and charges[0].endswith(" * a0")
        for y in range(6):
            self.check_budgets(text, [y] if arity(parse_term(text)) == 1 else [y, 3])

    @pytest.mark.parametrize("text, x", [
        (MSUB, 3),              # transient 3, then period 1 at 0
        (MOD2, None),           # period 2 from the start
        (FLIP_FROM_X, 5),       # transient 1, then period 2
        (NOT, None),            # the MSUB loop inside, from x = 1
    ])
    def test_periods_after_a_transient(self, text, x):
        assert any("_skip" in src for src in loop_sources(text))
        for y in range(13):
            self.check_budgets(text, [y] if x is None else [y, x])

    def test_state_never_repeats_in_the_window(self):
        assert any("_skip" in src for src in loop_sources(GROWING))
        for y in (0, 1, pr_lang._PERIOD_WINDOW - 1, pr_lang._PERIOD_WINDOW + 6):
            self.check_budgets(GROWING, [y])

    @pytest.mark.parametrize("text", [
        PRED,                                      # the last counter, inline
        "R(Z; C(S; P[3,2]))",
        f"R(Z; C({UNARY_ID}; P[3,2]))",            # the counter feeds a nested recursion
    ])
    def test_loops_that_read_the_counter(self, text):
        loops = 1 if UNARY_ID in text else 0
        sources = loop_sources(text)
        assert len(sources) == loops
        assert not any("_skip" in src for src in sources)
        assert all("range" in src for src in sources)
        if not loops:
            assert " if a0 + k" in compiled_sources(text)[-1]     # y written as name + k
        for y in range(8):
            self.check_budgets(text, [y])

    @pytest.mark.parametrize("text, xs", [
        ("R(Z; C(S; C(S; P[3,3])))", []),          # acc + k
        ("R(P[1,1]; C(S; P[4,4]))", [4]),          # acc + k from a fixed argument
        ("R(Z; P[3,3])", []),                      # acc + 0: the base, a constant
        ("R(Z; C(S; C(S; P[3,2])))", []),          # i + k
        ("R(P[1,1]; P[4,3])", [4]),                # i
        ("R(Z; P[3,1])", []),                      # y
        ("R(P[2,1]; C(S; P[5,1]))", [4, 7]),       # y + k
        ("R(P[2,2]; C(S; P[5,3]))", [4, 7]),       # x_j + k
        ("R(P[2,1]; P[5,2])", [4, 7]),             # x_j
        ("C(R(Z; C(S; P[3,2])); R(Z; P[3,3]))", []),   # y is the constant 0
        ("C(R(P[1,1]; C(S; P[4,3])); C(S; P[1,1]), C(S; R(Z; P[3,3])))", []),  # x is 1
    ])
    def test_flat_step_kinds(self, text, xs):
        assert loop_sources(text) == []
        for y in (0, 1, 2, 5):
            self.check_budgets(text, [y, *xs])

    def test_closed_forms_share_one_budget_check(self):
        text = "C(P[3,1]; R(Z; C(S; P[3,3])), R(Z; P[3,2]), C(S; R(Z; C(S; C(S; P[3,3])))))"
        entry = compiled_sources(text)[-1]
        assert loop_sources(text) == [] and entry.count("if c >= b") == 1
        charge, = [line for line in entry.split("\n") if "c += " in line]
        assert charge.count("a0") == 1             # one coefficient for the three forms
        for y in range(6):
            self.check_budgets(text, [y])

    @staticmethod
    def check_every_budget(t, args):
        cost = reference_cost(t, args)
        for budget in range(cost + 2):
            assert eval_clocked(t, args, budget) == oracle_outcome(t, args, budget)

    def test_nested_recursion_at_every_budget(self):
        rng = random.Random(4242)
        for _ in range(100):
            ar = rng.randint(1, 2)
            t = nested_recursion(rng, 2, ar)
            args = [rng.randint(0, 4) for _ in range(ar)]
            if reference_cost(t, args) <= 300:
                self.check_every_budget(t, args)

    def test_decoded_charges_around_loop_calls_at_every_budget(self, monkeypatch):
        """Entries that write closed-form charges next to loop calls, some
        on both sides of one, checked at every budget up to their cost."""
        entries = {}
        define = pr_lang._define
        monkeypatch.setattr(pr_lang, "_define", lambda name, lines, block: entries.update(
            {name: "\n".join(lines)}) or define(name, lines, block))
        for cache in (decode, pr_lang._compiled):
            cache.cache_clear()
        mixed = after = 0
        for e in range(1200):
            t = unary_wrap(decode(e))
            entry_of(t)
            lines = entries.pop("entry", "").split("\n")   # no entry: a term met before
            charges = [line for line in lines if "c += " in line]
            if not any(", c = r" in line for line in lines) or " * " not in "".join(charges):
                continue
            mixed += 1
            after += len(charges) > 1               # a charge after a loop call
            for x in range(4):
                if reference_cost(t, [x]) <= 300:
                    self.check_every_budget(t, [x])
        assert mixed > 50 and after > 20

    def test_huge_recursion_argument_returns_at_once(self):
        y = 10 ** 12
        mod2 = parse_term(MOD2)
        assert eval_total(mod2, [y]) == 0
        assert eval_total(mod2, [y + 1]) == 1
        assert eval_cost(mod2, [y + 2]) - eval_cost(mod2, [y]) == (
            eval_cost(mod2, [12]) - eval_cost(mod2, [10]))
        bound = parse_term("C(S; R(Z; C(S; C(S; P[3,3]))))")
        base = reference_cost(bound, [0])
        cost = base + (reference_cost(bound, [1]) - base) * y
        assert eval_total(bound, [y]) == 2 * y + 1
        assert eval_cost(bound, [y]) == cost
        assert eval_clocked(bound, [y], cost) == OUT_OF_BUDGET
        assert eval_clocked(bound, [y], cost + 1) == Converged(2 * y + 1, cost)


def fresh_term(text):
    """The term of a text, with every compile cache cleared first, so its
    loops are generated afresh and their orbit tables start empty."""
    for cache in (parse_term, pr_lang._loop, pr_lang._compiled, pr_lang._shape):
        cache.cache_clear()
    return parse_term(text)


def count_orbit_calls(monkeypatch):
    """A Counter of the ``_skip`` and ``_replay`` calls of loops generated
    from here on, with the orbit room full."""
    calls = collections.Counter()
    for name in ("_skip", "_replay"):
        fn = getattr(pr_lang, name)
        monkeypatch.setattr(pr_lang, name,
                            lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
    monkeypatch.setattr(pr_lang, "_orbit_room", pr_lang._ORBIT_ROOM)
    return calls


class TestOrbits:
    """A counter-free loop keeps the orbit it found and replays it."""

    @pytest.mark.parametrize("text, xs", [
        (MOD2, [()]),                                   # period 2 from the start
        (FLIP_FROM_X, [(0,), (1,), (5,)]),              # transient 1, then period 2
        (f"R(Z; C({MSUB}; P[3,1], P[3,3]))", [()]),     # acc monus y: its cost reads y
        (f"R(P[1,1]; C({MSUB}; P[4,1], P[4,4]))", [(0,), (3,), (7,)]),  # x monus y, 2y, ...
    ])
    def test_warm_orbits_match_the_oracle(self, text, xs, monkeypatch):
        calls = count_orbit_calls(monkeypatch)
        t = fresh_term(text)
        ys = list(range(14))
        for order in (ys, ys[::-1], random.Random(7).sample(ys, len(ys))):
            for y, x in itertools.product(order, xs):
                args = [y, *x]
                cost = reference_cost(t, args)
                for budget in (0, 1, cost - 1, cost, cost + 1):
                    assert eval_clocked(t, args, budget) == oracle_outcome(t, args, budget)
                assert eval_cost(t, args) == cost
        assert calls["_replay"] > calls["_skip"] > 0     # each _skip finishes by a replay

    def test_a_full_room_keeps_no_more_orbits(self, monkeypatch):
        calls = count_orbit_calls(monkeypatch)
        t = fresh_term(FLIP_FROM_X)     # keeps 3 states under (x, x) for each x > 1: 9 values
        eval_total(t, [6, 0])
        tables = [pr_lang._loop(r, 2).__globals__["orbits"]
                  for r in (t, parse_term(MSUB))]
        x = 0
        while pr_lang._orbit_room >= 9:
            eval_total(t, [6, x])
            x += 1
        kept = sum(len(states) + len(counts) + len(key)
                   for table in tables for key, (states, counts, _) in table.items())
        assert kept == pr_lang._ORBIT_ROOM - pr_lang._orbit_room > pr_lang._ORBIT_ROOM - 9
        sizes, room, skips = list(map(len, tables)), pr_lang._orbit_room, calls["_skip"]
        for args in ([6, x], [6, x], [9, x + 1], [3, x + 2]):   # y = 3 ends before a repeat
            cost, value = reference_cost(t, args), reference_value(t, args)
            for budget in (0, 1, cost - 1, cost, cost + 1):
                want = Converged(value, cost) if cost < budget else OUT_OF_BUDGET
                assert eval_clocked(t, args, budget) == want
        assert list(map(len, tables)) == sizes and pr_lang._orbit_room == room
        assert calls["_skip"] - skips == 3 * 3      # each run that reaches a repeat finds it again
        fresh_term(FLIP_FROM_X)         # drops the full tables


def nested(levels):
    """A unary term that nests ``levels`` compositions."""
    return "C(S; " * levels + "P[1,1]" + ")" * levels


def nested_recursions(levels):
    """A unary term that nests ``levels`` compositions and recursions, the
    recursions each inside the step of the one above."""
    text = "P[3,3]"
    for _ in range((levels - 1) // 2):
        text = f"C(R(Z; {text}); P[3,3])"
    text = f"R(Z; {text})"
    return text if levels % 2 else f"C(S; {text})"


class TestNestingLimit:
    """A term text nests at most MAX_TERM_DEPTH levels, and every walk over
    a term at the limit runs inside the test runner's stack."""

    def test_terms_at_the_limit_run(self):
        limit = pr_lang.MAX_TERM_DEPTH
        for cache in (parse_term, pr_lang._loop, pr_lang._compiled):
            cache.cache_clear()
        t = parse_term(nested(limit))
        assert serialize(t) == nested(limit) and arity(t) == 1
        assert eval_clocked(t, [3], 2 * limit + 2) == Converged(3 + limit, 2 * limit + 1)
        assert eval_clocked(t, [3], 2 * limit + 1) == OUT_OF_BUDGET
        binary = parse_term("C(S; " * limit + "P[2,2]" + ")" * limit)
        assert eval_total(unary_wrap(binary), [3]) == 3 + limit     # the wrap is one level more
        deep = nested_recursions(limit)
        assert deep.count("R(") + deep.count("C(") == limit
        t = parse_term(deep)
        for y in (0, 1, 4):
            assert eval_clocked(t, [y], 10 ** 6) == oracle_outcome(t, [y], 10 ** 6)

    @pytest.mark.parametrize("text", [nested(pr_lang.MAX_TERM_DEPTH + 1), nested(400),
                                      nested(1000), nested_recursions(1000)])
    def test_deeper_texts_raise_a_parse_error(self, text):
        with pytest.raises(ParseError, match=f"nested deeper than {pr_lang.MAX_TERM_DEPTH}") as exc:
            parse_term(text)
        opens = [i - 1 for i, ch in enumerate(text) if ch == "("]   # each one level deeper
        assert exc.value.position == opens[pr_lang.MAX_TERM_DEPTH]


class TestCompileCache:
    def test_distinct_programs_keep_cache_bounded(self):
        decode.cache_clear()
        caches = (pr_lang._compiled, pr_lang._loop)
        for cache in (*caches, pr_lang._shape):
            cache.cache_clear()
        wrapped = set()
        e = 0
        while e < 40_000 and (len(wrapped) <= 2 * pr_lang._COMPILE_CACHE_SIZE
                              or any(cache.cache_info().misses <= pr_lang._COMPILE_CACHE_SIZE
                                     for cache in caches[1:])):
            if arity(decode(e)) != 1:
                wrapped.add(unary_wrap(decode(e)))
                converges_within(e, 3, 50)
            e += 1
        # decoded programs share too few shapes to fill _shape: feed it sources
        for j in range(2 * pr_lang._COMPILE_CACHE_SIZE):
            pr_lang._shape(f"x = {j}")
        for cache in (*caches, pr_lang._shape):
            info = cache.cache_info()
            assert info.misses > pr_lang._COMPILE_CACHE_SIZE
            assert info.currsize <= pr_lang._COMPILE_CACHE_SIZE

    def test_shared_recursion_is_compiled_once(self, monkeypatch):
        for cache in (parse_term, pr_lang._loop, pr_lang._compiled):
            cache.cache_clear()
        defined = []
        define = pr_lang._define
        monkeypatch.setattr(pr_lang, "_define",
                            lambda name, *rest: defined.append(name) or define(name, *rest))
        assert eval_total(parse_term(NOT), [0]) == 1
        assert eval_total(parse_term(f"C(S; {MSUB})"), [2, 7]) == 6
        assert defined == ["loop", "entry", "entry"]   # MSUB's loop serves both
        assert pr_lang._loop.cache_info().currsize == 3     # MSUB, and the flat PRED and R(Z; P[3,3])

    def test_dropped_code_is_freed_without_the_cycle_collector(self):
        for cache in (parse_term, pr_lang._loop, pr_lang._compiled):
            cache.cache_clear()
        t = parse_term(MOD2)
        assert eval_total(t, [5]) == 1
        entry = weakref.ref(t.__dict__["_code"][1])
        loop = weakref.ref(pr_lang._loop(parse_term(MSUB), 2))  # called from MOD2's loop
        gc.disable()
        try:
            for cache in (parse_term, pr_lang._loop, pr_lang._compiled):
                cache.cache_clear()
            del t
            assert entry() is None and loop() is None
        finally:
            gc.enable()

    def test_repeat_calls_compile_once(self):
        e = encode(Comp(Succ(), (Proj(2, 2),)))
        decode.cache_clear()
        pr_lang._compiled.cache_clear()
        for s in range(20):
            converges_within(e, 6, s)
        assert pr_lang._compiled.cache_info().misses == 1

    def test_equal_term_object_reuses_the_entry(self):
        parse_term.cache_clear()
        first = parse_term(ADD_SHAPED)
        parse_term.cache_clear()
        second = parse_term(ADD_SHAPED)
        assert first == second and first is not second
        pr_lang._compiled.cache_clear()
        assert eval_clocked(first, [3], 100) == Converged(3, 11)
        assert eval_clocked(second, [4], 100) == Converged(4, 14)
        assert pr_lang._compiled.cache_info().misses == 1
        assert second.__dict__["_code"] is first.__dict__["_code"]
        pr_lang._compiled.cache_clear()
        assert eval_total(second, [5]) == 5
        assert pr_lang._compiled.cache_info().misses == 0

    def test_term_program_keeps_its_code(self):
        p = TermProgram(parse_term(ADD_SHAPED))
        assert p.cost(3) == 11
        pr_lang._compiled.cache_clear()
        assert (p.value(4), p.cost(4)) == (4, 14)
        assert pr_lang._compiled.cache_info().misses == 0


def linear_text(slope, offset):
    """Unary term text computing slope * n + offset in one flat recursion."""
    return "C(S; " * offset + "R(Z; " + "C(S; " * slope + "P[3,3]" + ")" * (slope + 1 + offset)


def entry_of(t):
    return pr_lang._compiled_for(t, [0] * arity(t))


def assert_exact(t, xs):
    """Value, cost and the clocked outcomes around the cost, against the oracle."""
    for x in xs:
        cost = reference_cost(t, [x])
        assert eval_cost(t, [x]) == cost
        assert eval_total(t, [x]) == reference_value(t, [x])
        for budget in (cost - 1, cost, cost + 1):
            assert eval_clocked(t, [x], budget) == oracle_outcome(t, [x], budget)


class TestShapes:
    """Terms that differ only in their constants compile one shared code
    object, and each runs with its own constants."""

    @pytest.mark.parametrize("texts", [
        [linear_text(a, b) for a, b in [(1, 1), (2, 5), (7, 3), (12, 100), (17, 40)]],
        [serialize(const_term(c)) for c in (0, 1, 2, 5, 9)],
    ], ids=["linear_bound", "const_term"])
    def test_constants_share_one_code_object(self, texts):
        for cache in (parse_term, pr_lang._compiled, pr_lang._shape):
            cache.cache_clear()
        terms = [parse_term(text) for text in texts]     # fresh objects, no code kept
        codes = {entry_of(t).__code__ for t in terms}
        assert len(codes) == 1
        assert pr_lang._shape.cache_info().misses == 1
        assert len({eval_total(t, [3]) for t in terms}) == len(terms)
        for t in terms:
            assert_exact(t, range(5))

    def test_decode_sweep_shares_code_by_shape(self):
        for cache in (decode, pr_lang._compiled, pr_lang._loop, pr_lang._shape):
            cache.cache_clear()
        by_code = {}
        for e in range(1500):
            t = unary_wrap(decode(e))
            by_code.setdefault(entry_of(t).__code__, set()).add(t)
        assert pr_lang._shape.cache_info().misses <= pr_lang._COMPILE_CACHE_SIZE  # none evicted
        assert sum(map(len, by_code.values())) > 4 * len(by_code)
        shared = [terms for terms in by_code.values() if len(terms) > 1]
        assert any(len({eval_total(t, [3]) for t in terms}) > 1 for terms in shared)
        for terms in shared:
            for t in terms:
                assert_exact(t, range(4))


class TestConverged:
    def test_a_converged_run_is_a_frozen_pair(self):
        out = eval_clocked(parse_term(ADD_SHAPED), [3], 100)
        assert (out.value, out.steps) == (3, 11)
        assert out == Converged(3, 11) == (3, 11)
        assert out != Converged(3, 12) and out != OUT_OF_BUDGET
        assert hash(out) == hash(Converged(3, 11))
        assert len({out, Converged(3, 11)}) == 1
        for field in ("value", "steps"):
            with pytest.raises(AttributeError):
                setattr(out, field, 0)
        assert out == (3, 11)
        assert "(value, steps)" in Converged.__doc__


def reference_text(t):
    """Canonical text by plain recursion, keeping nothing."""
    if isinstance(t, Zero):
        return "Z"
    if isinstance(t, Succ):
        return "S"
    if isinstance(t, Proj):
        return f"P[{t.n},{t.i}]"
    if isinstance(t, Comp):
        return f"C({reference_text(t.outer)}; {', '.join(reference_text(g) for g in t.inners)})"
    return f"R({reference_text(t.base)}; {reference_text(t.step)})"


ROUND_TRIP_TEXTS = ["P[1,1]", "C(S; P[1,1])", ADD_SHAPED, "P[3,2]",
                    "C(P[2,2]; S, C(S; P[1,1]))"]


# Every raise site of the term grammar: (text, type, exact message, position).
BAD_TERM_TEXTS = [
    ("", ParseError, "unexpected end of input (at position 0)", 0),
    ("   ", ParseError, "unexpected end of input (at position 3)", 3),
    ("X", ParseError, "expected a term, got 'X' (at position 0)", 0),
    ("p[1,1]", ParseError, "expected a term, got 'p' (at position 0)", 0),
    ("C(S; P[1,1]", ParseError, "expected ')', got 'end of input' (at position 11)", 11),
    ("C(S; P[1,1] P[1,1])", ParseError, "expected ')', got 'P' (at position 12)", 12),
    ("R(Z, S)", ParseError, "expected ';', got ',' (at position 3)", 3),
    ("C S", ParseError, "expected '(', got 'S' (at position 2)", 2),
    ("P(1,1)", ParseError, "expected '[', got '(' (at position 1)", 1),
    ("P", ParseError, "expected '[', got 'end of input' (at position 1)", 1),
    ("P[1,x]", ParseError, "expected a number (at position 4)", 4),
    ("P[,1]", ParseError, "expected a number (at position 2)", 2),
    ("P[1;1]", ParseError, "expected ',', got ';' (at position 3)", 3),
    ("P[1,1", ParseError, "expected ']', got 'end of input' (at position 5)", 5),
    ("S S", ParseError, "trailing input after term (at position 2)", 2),
    ("P[1,1]]", ParseError, "trailing input after term (at position 6)", 6),
    ("\tZ\n x", ParseError, "trailing input after term (at position 4)", 4),
    ("P[1,2]", ArityError, "projection P[1,2] needs 1 <= i <= n (at position 0)", 0),
    ("P[0,0]", ArityError, "projection P[0,0] needs 1 <= i <= n (at position 0)", 0),
    ("P[5000,1]", ArityError, "projection P[5000,1] needs n <= 4096 (at position 0)", 0),
    ("C(S; P[1,1], P[1,1])", ArityError,
     "composition outer arity 1 != 2 inner terms (at position 0)", 0),
    ("C(P[2,1]; P[1,1], P[2,1])", ArityError,
     "composition inners have mixed arities [1, 2] (at position 0)", 0),
    ("C(P[1,1]; Z)", ArityError, "composition inners cannot be 0-ary (at position 0)", 0),
    ("R(Z; S)", ArityError, "recursion step arity 1 != base arity 0 + 3 (at position 0)", 0),
    ("R(P[1,1]; P[3,3])", ArityError,
     "recursion step arity 3 != base arity 1 + 3 (at position 0)", 0),
    ("  P[ 12 , x ]", ParseError, "expected a number (at position 10)", 10),
    (" C( S ;  P[ 1 , 1 ]  x", ParseError, "expected ')', got 'x' (at position 21)", 21),
    (" P[ 12 , 13 ] ", ArityError,
     "projection P[12,13] needs 1 <= i <= n (at position 1)", 1),
    ("Z\u00e9", ParseError, "term text must be ASCII", None),
    ("C(S; " * 251 + "Z" + ")" * 251, ParseError,
     "term nested deeper than 250 levels (at position 1250)", 1250),
]


class TestSharedTerms:
    """The parse memo, the kept wrap and the kept text against building afresh."""

    def test_repeated_text_is_the_same_object(self):
        assert parse_term(ADD_SHAPED) is parse_term(ADD_SHAPED)
        spaced = parse_term(" R( Z ;C(S;  P[3,3]) ) ")
        assert spaced == parse_term(ADD_SHAPED)
        assert spaced is not parse_term(ADD_SHAPED)

    @pytest.mark.parametrize("text, error, message, position", BAD_TERM_TEXTS,
                             ids=[f"{t[:40]}-{e.__name__}" for t, e, _, _ in BAD_TERM_TEXTS])
    def test_bad_text_raises_afresh(self, text, error, message, position):
        raised = []
        for _ in range(3):
            with pytest.raises(error) as exc:
                parse_term(text)
            raised.append((type(exc.value), str(exc.value), exc.value.position))
        assert raised == [(error, message, position)] * 3

    def test_parse_memo_stays_bounded(self):
        parse_term.cache_clear()
        texts = [f"P[{n},1]" for n in range(1, 2 * pr_lang._COMPILE_CACHE_SIZE + 1)]
        assert [parse_term(t) for t in texts] == [Proj(n, 1) for n in range(1, len(texts) + 1)]
        info = parse_term.cache_info()
        assert info.misses == len(texts)
        assert info.currsize <= pr_lang._COMPILE_CACHE_SIZE

    def test_kept_wrap_evaluates_as_a_fresh_one(self):
        rng = random.Random(11)
        checked = 0
        for e in range(3000):
            t = decode(e)
            if arity(t) == 1:
                assert unary_wrap(t) is t
                continue
            kept, fresh = unary_wrap(t), coerce_arity(t, 1)
            assert kept is unary_wrap(t) and kept == fresh and kept is not fresh
            x = rng.randrange(6)
            cost = eval_cost(fresh, [x])
            for b in (cost - 1, cost, cost + 1):
                assert eval_clocked(kept, [x], b) == eval_clocked(fresh, [x], b)
            if cost < 2000:
                assert eval_clocked(kept, [x], cost + 1) == oracle_outcome(fresh, [x], cost + 1)
            checked += 1
        assert checked > 1000

    def test_kept_text_matches_plain_recursion(self):
        rng = random.Random(7)
        terms = [decode(e) for e in range(2000)]
        terms += [parse_term(text) for text in ROUND_TRIP_TEXTS]
        terms += [random_term(rng, 3, rng.randint(1, 3)) for _ in range(300)]
        for t in terms:
            assert serialize(t) == reference_text(t)
            assert serialize(t) == reference_text(t)    # now read from the node
            assert parse_term(serialize(t)) == t


    def test_shared_term_is_validated_once(self, monkeypatch):
        calls = []
        node_arity = pr_lang._node_arity
        monkeypatch.setattr(pr_lang, "_node_arity",
                            lambda t, *rest: calls.append(t) or node_arity(t, *rest))
        shared = PrimRec(Zero(), Comp(Succ(), (Proj(3, 3),)))
        top = Comp(Succ(), (shared,))
        for _ in range(3):
            TermProgram(top)
        assert len(calls) == 7                          # one walk of seven nodes
        calls.clear()
        TermProgram(Comp(Succ(), (Comp(Succ(), (shared,)),)))
        assert len(calls) == 4                          # shared is not walked again
        # a malformed term raises afresh, with no arity kept above the error
        bad = Comp(Succ(), (shared, shared))
        for _ in range(2):
            calls.clear()
            with pytest.raises(ArityError, match="outer arity 1 != 2 inner terms"):
                TermProgram(bad)
            assert calls == [Succ(), bad] and "_arity" not in bad.__dict__

    def test_repeated_child_is_checked_once(self, monkeypatch):
        calls = []
        node_arity = pr_lang._node_arity
        monkeypatch.setattr(pr_lang, "_node_arity",
                            lambda t, *rest: calls.append(t) or node_arity(t, *rest))
        # a wide wrapper, as coerce_arity builds it, holds 40 copies of one
        # projection object; built here, it keeps no arity
        wide = Comp(Proj(40, 40), (Proj(1, 1),) * 40)
        assert len({id(g) for g in wide.inners}) == 1
        validate(wide)
        assert calls == [Proj(40, 40), Proj(1, 1), wide]
        assert eval_total(wide, [7]) == 7
        # ill-formed compositions with repeated inners raise as with distinct copies
        p1, p2, bad_proj = Proj(1, 1), Proj(2, 1), Proj(1, 3)
        for outer, inners, message in [
                (Proj(3, 1), (p2, p2), "outer arity 3 != 2 inner terms"),
                (Proj(3, 1), (p2, p1, p2), r"mixed arities \[1, 2\]"),
                (Proj(2, 1), (bad_proj, bad_proj), r"P\[1,3\] needs 1 <= i <= n"),
                (Proj(2, 1), (Zero(), Zero()), "inners cannot be 0-ary")]:
            distinct = tuple(map(rebuilt, inners))
            for kids in (inners, distinct):
                with pytest.raises(ArityError, match=message) as info:
                    validate(Comp(outer, kids), 11)
                assert info.value.position == 11
                assert str(info.value).endswith("(at position 11)")


def rebuilt(t):
    """A copy of t from the constructors, with nothing kept on any node."""
    if isinstance(t, Comp):
        return Comp(rebuilt(t.outer), tuple(map(rebuilt, t.inners)))
    if isinstance(t, PrimRec):
        return PrimRec(rebuilt(t.base), rebuilt(t.step))
    return Proj(t.n, t.i) if isinstance(t, Proj) else type(t)()


def nodes(t):
    """Every node object of t, each once."""
    found, todo = {}, [t]
    while todo:
        g = todo.pop()
        if id(g) not in found:
            found[id(g)] = g
            if isinstance(g, Comp):
                todo += [g.outer, *g.inners]
            elif isinstance(g, PrimRec):
                todo += [g.base, g.step]
    return list(found.values())


RECORDED_TEXTS = [*ROUND_TRIP_TEXTS, PRED, MSUB, CONST1, NOT, MOD2, FLIP_FROM_X, UNARY_ID,
                  GROWING, linear_text(3, 2), "C(P[3,1]; P[2,2], P[2,1], C(S; P[2,1]))"]


class TestRecordedArity:
    """The parser, ``decode`` and ``coerce_arity`` keep on the composite
    nodes they build the arity that a check from the constructors gives."""

    @staticmethod
    def fresh_terms():
        """1,500 decoded terms and the parsed texts, built afresh, none compiled."""
        for cache in (decode, parse_term, pr_lang._compiled, pr_lang._loop, pr_lang._shape):
            cache.cache_clear()
        return [decode(e) for e in range(1500)] + [parse_term(t) for t in RECORDED_TEXTS]

    def test_recorded_arity_is_the_checked_one(self):
        recorded = 0
        for t in self.fresh_terms():
            if isinstance(t, (Comp, PrimRec)):
                assert "_arity" in t.__dict__ and "_arity" in unary_wrap(t).__dict__
            for w in (t, unary_wrap(t)):
                for g in nodes(w):
                    n = g.__dict__.get("_arity")
                    if n is not None:
                        fresh = rebuilt(g)
                        assert n == pr_lang._checked_arity(fresh, None) == arity(g), g
                        recorded += 1
        assert recorded > 1500

    def test_compiling_checks_only_unrecorded_wraps(self, monkeypatch):
        calls = []
        node_arity = pr_lang._node_arity
        monkeypatch.setattr(pr_lang, "_node_arity",
                            lambda t, *rest: calls.append(t) or node_arity(t, *rest))
        checked = 0
        for t in self.fresh_terms():
            for g in {id(w): w for w in (t, unary_wrap(t))}.values():
                calls.clear()
                kept = g.__dict__.get("_arity")
                entry_of(g)
                if kept is not None:
                    assert calls == [], g
                else:   # a leaf, or the wrap that feeds a leaf at another arity
                    assert not isinstance(t, (Comp, PrimRec)), g
                    assert {id(c) for c in calls} <= {id(c) for c in nodes(g)}
                    checked += bool(calls)
        assert checked > 100

    def test_arity_reads_a_recorded_arity_first(self, monkeypatch):
        calls, walk = [], pr_lang.arity
        monkeypatch.setattr(pr_lang, "arity", lambda t: calls.append(t) or walk(t))
        t = parse_term(GROWING)
        fresh = rebuilt(t)
        assert pr_lang.arity(t) == pr_lang.arity(fresh) == 1
        assert calls == [t, fresh, fresh.base]

    def test_coerce_records_only_a_checked_fit(self):
        add = parse_term(ADD_SHAPED)
        assert coerce_arity(add, 3).__dict__["_arity"] == 3
        for leaf in (Zero(), Succ(), Proj(3, 2), Proj(pr_lang.MAX_ARITY, 1)):
            wrap = coerce_arity(leaf, 2)
            assert wrap.__dict__["_arity"] == 2 == pr_lang._checked_arity(rebuilt(wrap), None)
        for leaf in (Proj(2, 3), Proj(pr_lang.MAX_ARITY + 1, 1)):
            assert "_arity" not in coerce_arity(leaf, 1).__dict__
            with pytest.raises(ArityError):
                validate(coerce_arity(leaf, 1))
        assert "_arity" not in pr_lang.zero_of_arity(pr_lang.MAX_ARITY + 1).__dict__
        unchecked = PrimRec(Zero(), Proj(3, 3))
        assert "_arity" not in coerce_arity(unchecked, 3).__dict__
        wide = coerce_arity(add, pr_lang.MAX_ARITY + 1)
        assert "_arity" not in wide.__dict__
        with pytest.raises(ArityError, match=r"P\[4097,1\] needs n <= 4096"):
            validate(wide)

    def test_no_term_is_made_at_arity_zero(self):
        with pytest.raises(ArityError, match="^zero_of_arity needs n >= 1$"):
            pr_lang.zero_of_arity(0)
        with pytest.raises(ArityError, match="^cannot coerce to arity 0$"):
            coerce_arity(parse_term(ADD_SHAPED), 0)

    def test_decode_rejects_a_step_fed_past_max_arity(self):
        # a recursion on a base of arity 4094 feeds its step 4097 arguments
        e = 4 + 3 * pr_lang.cantor_pair(encode(Proj(4094, 1)), 0)
        for _ in range(2):
            with pytest.raises(ArityError, match=f"^code {e} decodes to a projection of "
                                                 f"arity 4097 > {pr_lang.MAX_ARITY}$"):
                decode(e)
        base = 4 + 3 * pr_lang.cantor_pair(encode(Proj(4093, 1)), 0)
        assert arity(decode(base)) == pr_lang.MAX_ARITY - 2
        validate(rebuilt(decode(base)))


class TestMalformedTerms:
    """Every public evaluation validates its term when it compiles it."""

    @pytest.mark.parametrize("t, args", [
        (Proj(1, 3), [5]),
        (Comp(Succ(), ()), []),
        (Comp(Succ(), (Proj(1, 1), Proj(1, 1))), [3]),
        (PrimRec(Zero(), Proj(2, 1)), [2]),
        (Proj(10 ** 20, 1), [1]),
        (parse_term("P[2,1]"), [1]),
    ], ids=["projection-index", "empty-composition", "outer-arity", "step-arity",
            "projection-width", "argument-count"])
    def test_rejected_before_running(self, t, args):
        for run in (lambda: eval_clocked(t, args, 100), lambda: eval_total(t, args),
                    lambda: eval_cost(t, args)):
            with pytest.raises(ArityError):
                run()

    @pytest.mark.parametrize("fn", [arity, validate, serialize, encode],
                             ids=lambda fn: fn.__name__)
    def test_a_non_term_is_refused(self, fn):
        with pytest.raises(TypeError, match="^not a term: 5$"):
            fn(5)

    def test_a_field_cannot_be_deleted(self):
        t = parse_term("C(S; P[1,1])")
        with pytest.raises(AttributeError, match="^cannot delete field 'outer'$"):
            del t.outer


class TestCoding:
    def test_base_of_coding(self):
        assert decode(0) == Zero()
        assert decode(1) == Succ()

    def test_round_trip(self):
        for text in ROUND_TRIP_TEXTS:
            t = parse_term(text)
            assert decode(encode(t)) == t

    def test_totality_window(self):
        for e in range(2000):
            t = decode(e)
            validate(t)
        t = decode(10 ** 6)
        validate(t)

    @pytest.mark.parametrize("e", [10 ** 80, 10 ** 100])
    def test_projection_past_max_arity_is_rejected(self, e):
        # one slot per arity would exhaust memory, or overflow a tuple size
        with pytest.raises(ArityError, match=f"> {pr_lang.MAX_ARITY}$"):
            decode(e)

    def test_injectivity_window(self):
        rng = random.Random(3)
        seen = {}
        for _ in range(200):
            t = random_term(rng, 3, rng.randint(1, 3))
            e = encode(t)
            if e in seen:
                assert seen[e] == t
            seen[e] = t


class TestConvergesWithin:
    def test_identity_index(self):
        e = encode(Proj(1, 1))
        assert converges_within(e, 5, 10) == 5
        assert converges_within(e, 5, 0) is None

    def test_monotone_witness(self):
        e = encode(parse_term(ADD_SHAPED))
        found = None
        for s in range(60):
            y = converges_within(e, 4, s)
            if found is None:
                found = y
                if y is not None:
                    first = s
            else:
                assert y == found
        assert found == 4
        assert converges_within(e, 4, first + 1) == 4

    def test_non_unary_decodes_are_wrapped(self):
        two_arg = Comp(Succ(), (Proj(2, 2),))
        e = encode(two_arg)
        # wrapped program feeds x to both slots: S(P[2,2](x, x)) = x + 1
        assert converges_within(e, 6, 100) == 7


class TestPrograms:
    def test_term_program_clocking(self):
        p = TermProgram(parse_term("P[1,1]"))
        assert p.cost(12) == 1
        assert p.converges_within(12, 2) == 12
        assert p.converges_within(12, 1) is None

    def test_converges_within_matches_eval_clocked_in_any_order(self):
        """Every budget 0..cost+1 on one program object, asked rising,
        falling and shuffled, so answers also come from a memo that holds
        only a lower bound on the cost."""
        rng = random.Random(4243)
        for _ in range(100):
            t = unary_wrap(nested_recursion(rng, 2, rng.randint(1, 2)))
            xs = [x for x in range(5) if eval_cost(t, [x]) <= 300]
            top = max((eval_cost(t, [x]) for x in xs), default=0) + 2
            rising = list(range(top))
            for budgets in (rising, rising[::-1], rng.sample(rising, top)):
                p = TermProgram(t)
                for b in budgets:
                    for x in xs:
                        want = eval_clocked(t, [x], b)
                        assert p.converges_within(x, b) == (
                            want.value if isinstance(want, Converged) else None), (t, x, b)
                assert [(p.value(x), p.cost(x)) for x in xs] == [
                    (eval_total(t, [x]), eval_cost(t, [x])) for x in xs]

    def test_coerce_arity(self):
        t = coerce_arity(Succ(), 3)
        assert arity(t) == 3
        assert eval_total(t, [4, 9, 9]) == 5
        z = coerce_arity(Zero(), 2)
        assert arity(z) == 2
        assert eval_total(z, [8, 8]) == 0

    def test_reprs(self):
        assert repr(Succ()) == "Succ"
        assert repr(pr_lang.NATIVE_REGISTRY["id"]) == "<program id>"

    def test_a_table_program_has_no_text(self):
        with pytest.raises(ParseError, match="has no canonical text form"):
            pr_lang.program_text(pr_lang.TableProgram([0, 1]))

    def test_unary_wrap_identity_on_unary(self):
        t = parse_term("C(S; P[1,1])")
        assert unary_wrap(t) == t
