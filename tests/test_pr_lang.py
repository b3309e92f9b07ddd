import dataclasses
import gc
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


def shallow_term(rng, depth, target_arity):
    """Recursion-free term of the given arity (at most 4)."""
    if depth <= 0 or rng.random() < 0.4:
        if target_arity == 1 and rng.random() < 0.3:
            return Succ()
        return Proj(target_arity, rng.randint(1, target_arity))
    k = rng.randint(1, 2)
    return Comp(shallow_term(rng, depth - 1, k),
                tuple(shallow_term(rng, depth - 1, target_arity) for _ in range(k)))


def nested_recursion(rng, levels, target_arity):
    """Term of arity 1 or 2 whose recursions nest ``levels`` deep.

    Each step composes the next level's term with shallow inner terms, so
    no node needs more than four arguments.
    """
    if levels == 0:
        return shallow_term(rng, 2, target_arity)
    base = Zero() if target_arity == 1 else shallow_term(rng, 1, target_arity - 1)
    k = rng.randint(1, 2)
    step = Comp(nested_recursion(rng, levels - 1, k),
                tuple(shallow_term(rng, 1, target_arity + 2) for _ in range(k)))
    if rng.random() < 0.3:
        step = Comp(Succ(), (step,))
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

    def recording(name, lines, callees):
        sources.append("\n".join(lines))
        return define(name, lines, callees)

    for cache in (parse_term, pr_lang._loop, pr_lang._compiled):
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
        assert "c += " in compiled_sources(text)[-1].split("\n", 3)[3]
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
            assert " if a0 else " in compiled_sources(text)[-1]
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
        pr_lang._compiled.cache_clear()
        pr_lang._loop.cache_clear()
        wrapped = set()
        e = 0
        while (len(wrapped) <= 2 * pr_lang._COMPILE_CACHE_SIZE
               or pr_lang._loop.cache_info().misses <= pr_lang._COMPILE_CACHE_SIZE):
            if arity(decode(e)) != 1:
                wrapped.add(unary_wrap(decode(e)))
                converges_within(e, 3, 50)
            e += 1
        for cache in (pr_lang._compiled, pr_lang._loop):
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
        # a wide coerce wrapper holds 40 copies of one projection object
        wide = coerce_arity(Proj(40, 40), 1)
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
            distinct = tuple(map(dataclasses.replace, inners))
            for kids in (inners, distinct):
                with pytest.raises(ArityError, match=message) as info:
                    validate(Comp(outer, kids), 11)
                assert info.value.position == 11
                assert str(info.value).endswith("(at position 11)")


class TestMalformedTerms:
    """Every public evaluation validates its term when it compiles it."""

    @pytest.mark.parametrize("t, args", [
        (Proj(1, 3), [5]),
        (Comp(Succ(), ()), []),
        (Comp(Succ(), (Proj(1, 1), Proj(1, 1))), [3]),
        (PrimRec(Zero(), Proj(2, 1)), [2]),
        (Proj(10 ** 20, 1), [1]),
    ], ids=["projection-index", "empty-composition", "outer-arity", "step-arity",
            "projection-width"])
    def test_rejected_before_running(self, t, args):
        for run in (lambda: eval_clocked(t, args, 100), lambda: eval_total(t, args),
                    lambda: eval_cost(t, args)):
            with pytest.raises(ArityError):
                run()


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

    def test_coerce_arity(self):
        t = coerce_arity(Succ(), 3)
        assert arity(t) == 3
        assert eval_total(t, [4, 9, 9]) == 5
        z = coerce_arity(Zero(), 2)
        assert arity(z) == 2
        assert eval_total(z, [8, 8]) == 0

    def test_unary_wrap_identity_on_unary(self):
        t = parse_term("C(S; P[1,1])")
        assert unary_wrap(t) == t
