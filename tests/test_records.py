"""What callers see of the result records and term nodes: constructor
order, keywords and defaults, equality and hashing, immutability and repr."""
import pytest

from punctual.constructions import ConstructionResult, Trace, _Cycle, _Kind
from punctual.lattice import (
    CanonicalWitness,
    DiamondEvidence,
    DropBoundVerdict,
    EquilibriumReport,
    SlownessCertificate,
)
from punctual.pr_lang import (
    OUT_OF_BUDGET,
    Comp,
    OutOfBudget,
    PrimRec,
    Proj,
    Succ,
    TableProgram,
    Zero,
    decode,
    encode,
    parse_term,
)
from punctual.reductions import Counterexample, PreImmuneVerdict, ReductionWitness
from punctual.sets import Prefix, evens_set

TEXT = "C(R(Z; P[3,3]); C(S; P[2,1]))"


def built():
    """The term of TEXT from the constructors."""
    return Comp(PrimRec(Zero(), Proj(3, 3)), (Comp(Succ(), (Proj(2, 1),)),))


def test_a_term_equals_and_hashes_alike_however_it_was_made():
    made = [parse_term(TEXT), decode(encode(parse_term(TEXT))), built(), built()]
    assert len({id(t) for t in made}) == 4
    for t in made:
        assert t == made[2] and hash(t) == hash(made[2])
        assert {t: 1}[built()] == 1
    assert Proj(2, 1) != Proj(2, 2) and Proj(2, 1) != Proj(3, 1)
    assert Zero() == Zero() and Succ() == Succ() and Zero() != Succ()
    assert hash(Zero()) == hash(Zero()) and hash(Proj(2, 1)) == hash(Proj(n=2, i=1))
    assert Comp(Succ(), (Proj(1, 1),)) != Comp(Succ(), (Proj(2, 1),))
    assert PrimRec(Zero(), Proj(3, 3)) != PrimRec(Zero(), Proj(3, 2))
    assert PrimRec(Zero(), Proj(3, 3)) != Comp(Zero(), (Proj(3, 3),))
    assert Proj(1, 1) != (1, 1) and OutOfBudget() == OUT_OF_BUDGET
    assert hash(OutOfBudget()) == hash(OUT_OF_BUDGET)


def test_keywords_name_the_fields_in_constructor_order():
    assert Comp(outer=Succ(), inners=(Proj(1, 1),)) == Comp(Succ(), (Proj(1, 1),))
    assert PrimRec(base=Zero(), step=Proj(3, 3)) == PrimRec(Zero(), Proj(3, 3))
    assert Prefix(bits=(0, 1)) == Prefix((0, 1)) != Prefix((1, 0))
    assert hash(Prefix((0, 1))) == hash(Prefix((0, 1)))
    cex = Counterexample("R_to_RY", 1, 2, 3, True, False)
    assert (cex.images, cex.member) == (None, None)
    assert cex == Counterexample(flavor="R_to_RY", l=1, m=2, stage=3, left=True, right=False)
    assert cex == ("R_to_RY", 1, 2, 3, True, False, None, None)
    assert cex._replace(member="g").member == "g" and cex.member is None
    ev = DiamondEvidence("q-stage", ("a", "b"), (1, 4), 1, "evidence(1)", "steps", (0, 5))
    assert ev.relaxed is False and ev.count == 2 and ev.span == (0, 5)
    assert EquilibriumReport("index", 10, (0, 3, 7)).count == 3
    assert PreImmuneVerdict("g", True, None, (1, 2), False).hits_set_at == (1, 2)
    assert SlownessCertificate("s", ("g",), (0, 4), (("g", 1, True),)).slow_on_window
    assert DropBoundVerdict((1, 2), 9, (), True, None).first_reduction_violation is None
    kind = _Kind(len)
    assert (kind.build, kind.inputs, kind.validate, kind.options) == (len, (), None, ())
    program = TableProgram([0, 1], "t")
    w = ReductionWitness(program, "reduction", "x", "y", 1)
    assert (w.program, w.claim, w.source, w.target, w.horizon) == (program, "reduction", "x", "y", 1)
    assert (w.convention, w.verified) == ("index", False)
    w = ReductionWitness(program, "growth-p", "x", "y", 1, convention="steps", verified=True)
    assert (w.convention, w.verified) == ("steps", True)
    x = evens_set()
    canon = CanonicalWitness(x, x, 1, 2, 3, {}, False, 9)
    assert (canon.case, canon.good_stage_count, canon.equilibrium_count, canon.horizon,
            canon.d_table) == (1, 2, 3, 9, None)
    assert canon == (x, x, 1, 2, 3, {}, False, 9, None)
    assert canon._replace(d_table=(0,)).d_table == (0,) and canon.d_table is None
    cycle = _Cycle("P0", "P", 0, 1, None, "copy", 5)
    assert (cycle.label, cycle.kind, cycle.member, cycle.relation, cycle.watch,
            cycle.phase, cycle.opened) == ("P0", "P", 0, 1, None, "copy", 5)
    cycle.phase = "transition"      # a cycle's phase moves as the stages run
    assert cycle.phase == "transition"


def test_each_trace_and_result_gets_fresh_containers():
    header = [("construction", "immune")]
    one, two = Trace(header), Trace(header)
    assert one.header is two.header
    for name, empty in (("stages", []), ("cycles", []), ("phases", []), ("events", {}),
                        ("columns", {}), ("footer", [])):
        assert getattr(one, name) == empty and getattr(one, name) is not getattr(two, name)
    one.footer.append(("k", "v"))
    assert two.footer == []
    trace = Trace(header, range(3), columns={"Y": [0, 1]})
    assert trace.stages == range(3) and trace.columns == {"Y": [0, 1]} and trace.cycles == []
    first = ConstructionResult("immune", {}, one, [])
    second = ConstructionResult("immune", {}, two, [])
    for name in ("inputs", "witnesses", "notes"):
        assert getattr(first, name) == {} and getattr(first, name) is not getattr(second, name)
    result = ConstructionResult("immune", {"Y": 1}, one, [], notes={"k": 2})
    assert (result.name, result.trace, result.notes, result.output()) == ("immune", one,
                                                                          {"k": 2}, 1)


@pytest.mark.parametrize("record, field", [
    (Zero(), "x"), (Succ(), "x"), (Proj(2, 1), "n"), (built(), "outer"),
    (PrimRec(Zero(), Proj(3, 3)), "step"), (OUT_OF_BUDGET, "x"), (Prefix((0,)), "bits"),
    (Counterexample("reduction", 0, 1, 2, True, False), "member"),
    (PreImmuneVerdict("g", True, None, None, True), "injective"),
    (EquilibriumReport("index", 3, ()), "points"),
    (DiamondEvidence("q-stage", ("a", "b"), (), 1, "-", "steps", (0, 1)), "hits"),
    (SlownessCertificate("s", (), (0, 1), ()), "window"),
    (DropBoundVerdict((1, 2), 9, (), True, None), "horizon"),
    (_Kind(len), "build"),
])
def test_formerly_frozen_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.fresh_name = 0


def test_a_parsed_term_still_keeps_what_is_derived_from_it():
    t = parse_term(TEXT)
    hash(t)
    assert {"_arity", "_hash"} <= set(vars(t)) and vars(t)["_arity"] == 2


def test_reprs_read_as_before():
    assert repr(Counterexample("R_to_RY", 1, 2, 3, True, False)) == (
        "Counterexample(flavor='R_to_RY', l=1, m=2, stage=3, left=True, right=False,"
        " images=None, member=None)")
    assert repr(Counterexample("reduction", 0, 4, 7, False, True, (1, 2), "g")) == (
        "Counterexample(flavor='reduction', l=0, m=4, stage=7, left=False, right=True,"
        " images=(1, 2), member='g')")
    assert repr(EquilibriumReport("index", 10, (0, 3, 7))) == (
        "EquilibriumReport(convention='index', horizon=10, points=(0, 3, 7))")
    assert repr(DiamondEvidence("q-stage", ("a", "b"), (1,), 1, "evidence(1)", "steps",
                                (0, 5))) == (
        "DiamondEvidence(kind='q-stage', pair=('a', 'b'), hits=(1,), threshold=1,"
        " verdict='evidence(1)', convention='steps', span=(0, 5), relaxed=False)")
    assert repr(Proj(2, 1)) == "Proj(2,1)"
    assert repr(parse_term("C(R(Z; P[3,3]); P[2,1])")) == (
        "Comp(PrimRec(Zero,Proj(3,3)),[Proj(2,1)])")
    assert repr(OUT_OF_BUDGET) == "OutOfBudget()" and repr(Prefix((0, 1))) == "Prefix(bits=(0, 1))"
