import sys
from itertools import islice, zip_longest

import pytest

from punctual import pr_lang
from punctual.constructions import TRACE_FORMAT, construct_immune, construct_join_split
from punctual.pr_lang import Comp, PrimRec, Proj, Succ, TermProgram, Zero, parse_term
from punctual.sets import (
    PrSet,
    _Pattern,
    blocks_set,
    evens_set,
    mod_set,
    singleton_zero_set,
    term_set,
)

FAMILY_TEXTS = [
    "P[1,1]",
    "C(S; P[1,1])",
    "R(Z; P[3,3])",
    "C(S; R(Z; P[3,3]))",
    "R(Z; C(S; C(S; P[3,3])))",
    "C(S; C(S; P[1,1]))",
]

# characteristic term for the even numbers, with a generous linear step bound
PRED = "R(Z; P[3,2])"
MSUB = f"R(P[1,1]; C({PRED}; P[4,4]))"
CONST1 = "C(S; R(Z; P[3,3]))"
NOT = f"C({MSUB}; P[1,1], {CONST1})"
MOD2 = f"R(Z; C({NOT}; P[3,3]))"
EVENS_TERM = f"C({NOT}; {MOD2})"
# bound term computing 17n + 40 in a single recursion with a flat step
STEP17 = "P[3,3]"
for _ in range(17):
    STEP17 = f"C(S; {STEP17})"
BOUND_LINEAR = f"R(Z; {STEP17})"
for _ in range(40):
    BOUND_LINEAR = f"C(S; {BOUND_LINEAR})"


def serialize_by_records(trace) -> str:
    """The definitional trace writer, one formatted line per ``StageRecord``:
    record i shows bit i - first of each output column, and nothing past a
    column's end; bits past the last record are not shown."""
    first = trace.first_bit_stage()
    shown = [[""] * first + [f"{name}={b}" for b in bits]
             for name, bits in trace.columns.items()]
    records = trace.records
    rows = islice(zip_longest(records, *shown, fillvalue=""), len(records))
    lines = [TRACE_FORMAT, *[f"{k}\t{v}" for k, v in trace.header], "---",
             *[f"{stage}\t{cycle}\t{phase}\t{','.join(filter(None, bits)) or '-'}"
               f"\t{';'.join(events) or '-'}"
               for (stage, cycle, phase, events), *bits in rows],
             "---", *[f"{k}\t{v}" for k, v in trace.footer]]
    return "\n".join(lines) + "\n"


def costed_prefix(name, bits, cost_fn):
    """``prefix_set``'s bits, a finite prefix then 1, 0 over and over, with
    bit n costing cost_fn(n) and no fill, so the memo grows bit by bit."""
    return PrSet(name, _Pattern(tuple(1 if b else 0 for b in bits), (1, 0), False).bit, cost_fn)


def count_term_runs(monkeypatch, *texts):
    """The argument of each run of the listed terms' compiled entries, as
    ``pr_lang._compiled_for`` hands them out from here on.  A term set looks
    its term's entry up on its first bit and runs it once per new bit, so
    its runs count here, and so do those of ``eval_clocked``, ``eval_total``
    and ``eval_cost`` on these terms."""
    runs, compiled_for = [], pr_lang._compiled_for
    terms = {pr_lang.unary_wrap(parse_term(text)) for text in texts}

    def hooked(t, args):
        entry = compiled_for(t, args)
        if t not in terms:
            return entry
        return lambda c, b, *xs: runs.append(xs[0]) or entry(c, b, *xs)
    monkeypatch.setattr(pr_lang, "_compiled_for", hooked)
    return runs


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


def basic_family():
    return [TermProgram(parse_term(t)) for t in FAMILY_TEXTS]


@pytest.fixture
def no_step_growth(monkeypatch):
    """PrSet._ensure refuses any step-limited call, so a step count that
    grows a memo fails at once instead of allocating without bound."""
    ensure = PrSet._ensure

    def refuse(self, n, steps=sys.maxsize, zeros=sys.maxsize):
        assert steps == sys.maxsize, f"{self.name} grew under a step budget"
        return ensure(self, n, steps, zeros)
    monkeypatch.setattr(PrSet, "_ensure", refuse)


@pytest.fixture(scope="session")
def family6():
    return basic_family()


@pytest.fixture(scope="session")
def corpus():
    """Descriptors of every kind, all containing 0, shared across criteria."""
    immune = construct_immune(basic_family(), 300)
    split = construct_join_split(mod_set(3), basic_family(), 400)
    return [
        evens_set(),
        mod_set(3),
        mod_set(5),
        mod_set(7),
        blocks_set(3),
        blocks_set(6),
        singleton_zero_set(),
        term_set(EVENS_TERM, BOUND_LINEAR, name="evens-term"),
        immune.output(),
        split.outputs["Y0"],
        split.outputs["Y1"],
    ]
