import sys

import pytest

from punctual.constructions import construct_immune, construct_join_split
from punctual.pr_lang import TermProgram, parse_term
from punctual.sets import (
    PrSet,
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
