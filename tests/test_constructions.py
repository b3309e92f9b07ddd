import collections
import pathlib
import random
from functools import partial

import pytest
from conftest import BOUND_LINEAR, EVENS_TERM, serialize_by_records
from test_cli import fuzz_mutation

from punctual._text import decode_text
from punctual.errors import (
    NotCertified,
    ParseError,
    PreconditionFailed,
    PunctualError,
    PunctualityViolation,
    StageBudgetExhausted,
)
from punctual.constructions import (
    CONSTRUCTIONS,
    _DenseMachine,
    _Detector,
    _IncomparableMachine,
    _closes,
    _divergence,
    construct_antichain,
    construct_dense,
    construct_dense_incomparable,
    construct_diamond,
    construct_immune,
    construct_incomparable,
    construct_join_split,
    construct_meet_split,
    construct_separator,
    StageRecord,
    load_trace_set,
    parse_trace,
    replay_from_trace,
    save_trace,
    validate_result,
    verify_trace_file,
)
from punctual.lattice import equilibrium_points, make_nondiamond_below
from punctual.pr_lang import NATIVE_REGISTRY, NativeProgram, TermProgram, parse_term, serialize
from punctual.reductions import (
    check_pre_immune,
    detect_counterexample_R_to_RY,
    detect_counterexample_RX_to_RY,
    detect_counterexample_RY_to_R,
    domination_certificate,
)
from punctual.sets import (
    blocks_set,
    IdentityRelation,
    Prefix,
    PrSet,
    SetRelation,
    drop_least_zero,
    evens_set,
    mod_set,
    parse_set,
    prefix_set,
    set_join,
    set_meet,
    string_join,
    string_meet,
)

FAMILY_TEXTS = [
    "P[1,1]",
    "C(S; P[1,1])",
    "R(Z; P[3,3])",
    "C(S; R(Z; P[3,3]))",
    "R(Z; C(S; C(S; P[3,3])))",
    "C(S; C(S; P[1,1]))",
]


def family6():
    return [TermProgram(parse_term(t)) for t in FAMILY_TEXTS]


def assert_ok(result):
    assert result.trace.footer[0] == ("verdict", "ok"), result.trace.footer


class TestImmune:
    def test_every_cycle_closes(self):
        r = construct_immune(family6(), 300)
        assert_ok(r)
        labels = {c[0] for c in r.notes["closed"]}
        assert labels == {f"P{i}" for i in range(6)}

    def test_closure_cases_recorded(self):
        # early cycles leave zeros behind; a constant aimed at one of them
        # can only close by the non-injectivity case
        fam = [TermProgram(parse_term("P[1,1]"), "ident"),
               TermProgram(parse_term("C(S; C(S; R(Z; P[3,3])))"), "const2")]
        r = construct_immune(fam, 300)
        cases = {c[0]: c[2] for c in r.notes["closed"]}
        assert cases["P0"] == "case2"
        assert cases["P1"] == "case1"

    def test_post_check_every_injective_member_hits(self):
        fam = family6()
        r = construct_immune(fam, 300)
        y = r.output()
        for v in check_pre_immune(y, fam, 120):
            if v.injective:
                assert v.hits_set_at is not None

    def test_complement_grows_one_per_close(self):
        r = construct_immune(family6(), 300)
        y = r.output()
        closes = sum(1 for rec in r.trace.records
                     for e in rec.events if e.startswith("close:"))
        horizon = len(r.trace.records) - 2
        assert y.zeros_by_index(horizon) == closes + _fallback_zeros(r)

    def test_empty_family_fallback(self):
        r = construct_immune([], 40)
        bits = [r.output().bit(n) for n in range(8)]
        assert bits == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_replay_is_byte_identical(self):
        a = construct_immune(family6(), 200).trace.serialize()
        b = construct_immune(family6(), 200).trace.serialize()
        assert a == b


def _fallback_zeros(result):
    # the immune run's stage s emits bit s - 1 of Y
    y = result.trace.columns["Y"]
    return sum(1 for rec in result.trace.records
               if rec.phase == "fallback" and y[rec.stage - 1] == 0)


class TestIncomparable:
    def test_against_evens(self):
        r = construct_incomparable(evens_set(), family6(), 400)
        assert_ok(r)
        labels = [c[0] for c in r.counterexamples]
        assert len(labels) == 12
        flavors = {c[1].flavor for c in r.counterexamples}
        assert flavors == {"R_to_RY", "RY_to_R"}

    def test_counterexamples_validated_against_final(self):
        # the ok verdict includes permanence revalidation; spot-check one pair
        r = construct_incomparable(evens_set(), family6(), 400)
        label, cex, src, tgt = r.counterexamples[0]
        assert cex.stage <= 400

    def test_empty_family(self):
        r = construct_incomparable(SetRelation(evens_set()), [], 30)
        assert sum(1 for rec in r.trace.records if rec.cycle != "-") == 0

    def test_budget_exhaustion_names_cycle(self):
        slow = TermProgram(parse_term(
            "C(R(Z; C(S; C(S; P[3,3]))); C(R(Z; C(S; C(S; P[3,3]))); P[1,1]))"),
            "slow4x")
        with pytest.raises(StageBudgetExhausted) as exc:
            construct_incomparable(SetRelation(evens_set()), [slow], 400,
                                   cycle_budget=3)
        assert exc.value.cycle == "P0"

    def test_identity_relation_budget_diagnostic(self):
        # against the identity every constant collapses immediately, but a
        # tiny stage cap still reports the open cycle by name
        with pytest.raises(StageBudgetExhausted) as exc:
            construct_incomparable(IdentityRelation(), family6(), 4)
        assert exc.value.cycle.startswith(("P", "Q"))


class TestAntichain:
    def test_three_sets_pairwise_incomparable_evidence(self):
        rs = construct_antichain(3, family6()[:2], 500)
        assert len(rs) == 3
        # members 1, 2 carry directed counterexamples against every earlier set
        assert {c[1].flavor for c in rs[1].counterexamples} == {"R_to_RY", "RY_to_R"}
        for r in rs[1:]:
            assert_ok(r)

    def test_single_set_vacuous(self):
        rs = construct_antichain(1, family6()[:2], 200)
        assert len(rs) == 1


class TestDense:
    def setup_method(self):
        self.x = set_meet(evens_set(), mod_set(3))
        self.z = set_join(evens_set(), mod_set(3))

    def test_chain_invariant_and_closures(self):
        cert = domination_certificate(self.x, self.z, 300)
        r = construct_dense(self.x, self.z, cert, family6(), 600)
        assert_ok(r)
        y = r.output()
        for s in range(599):
            assert (self.x.zeros_by_index(s) <= y.zeros_by_index(s)
                    <= self.z.zeros_by_index(s))

    def test_sandwich_witnesses_emitted(self):
        cert = domination_certificate(self.x, self.z, 300)
        r = construct_dense(self.x, self.z, cert, family6(), 600)
        assert len(r.witnesses["lower_into_new"]) == 601
        assert len(r.witnesses["new_into_upper"]) == 601

    def test_empty_family_copies_upper(self):
        r = construct_dense(self.x, self.z, None, [], 60)
        y = r.output()
        for n in range(1, 40):
            assert y.bit(n) == self.z.bit(n)

    def test_normalization_note(self):
        # swap the inputs: profile domination fails, the upper set is joined
        cert = domination_certificate(self.x, self.z, 100)
        r = construct_dense(self.z, set_join(self.z, self.x), cert, [], 50)
        assert r.trace.header_value("normalized-z") in ("0", "1")


class TestDenseIncomparable:
    def test_middle_set_targeted(self):
        x = set_meet(evens_set(), mod_set(3))
        z = set_join(evens_set(), mod_set(3))
        t = evens_set()
        certs = {"x<=t": domination_certificate(x, t, 200),
                 "t<=z": domination_certificate(t, z, 200)}
        r = construct_dense_incomparable(x, t, z, certs, family6(), 800)
        assert_ok(r)
        for label, cex, src, tgt in r.counterexamples:
            assert "T" in (src, tgt)

    def test_missing_certificate_rejected(self):
        from punctual.errors import NotCertified
        with pytest.raises(NotCertified):
            construct_dense_incomparable(evens_set(), evens_set(), evens_set(),
                                         {}, family6(), 100)

    def test_middle_overrun_after_the_last_close_raises_at_its_fallback_stage(
            self, monkeypatch):
        # the middle set's bound, 12 n + 100, gives out at bit 87; four
        # members close their last cycle at stage 69, so the fallback stage
        # 87 still reads the term set and the run ends there
        bound = "C(S; " * 100 + "R(Z; " + "C(S; " * 12 + "P[3,3]" + ")" * 113
        x, z = parse_set("meet(evens, mod 3)"), parse_set("join(evens, mod 3)")
        middle = partial(parse_set, f'term "{EVENS_TERM}" bound "{bound}"')
        certs = {"x<=t": domination_certificate(x, middle(), 20),
                 "t<=z": domination_certificate(middle(), z, 20)}
        stages = []
        fallback = _DenseMachine.fallback
        monkeypatch.setattr(_DenseMachine, "fallback", lambda m, stage, events: (
            stages.append(stage), fallback(m, stage, events)))
        t = middle()
        message = (f"term set {serialize(parse_term(EVENS_TERM))} exceeded its bound "
                   f"{serialize(parse_term(bound))} at n=87")
        with pytest.raises(PunctualityViolation) as info:
            construct_dense_incomparable(x, t, z, certs, family6()[:4], 600)
        assert str(info.value) == message
        assert (stages[0], stages[-1], t.decided) == (70, 87, 87)


@pytest.mark.parametrize("build, error, message", [
    (lambda: construct_dense(_no_zero_member(), _no_zero_member(), None, [], 60),
     PreconditionFailed, "density needs 0 in both input sets"),
    (lambda: construct_dense(parse_set("meet(evens, mod 3)"), parse_set("join(evens, mod 3)"),
                             [0] * 201, [], 60),
     NotCertified, "supplied witness is not a reduction: "
                   "reduction l=0 m=1 stage=200 left=0 right=1 images=(0, 0)"),
    (lambda: construct_dense(parse_set("join(evens, mod 3)"), parse_set("meet(evens, mod 3)"),
                             None, [], 60),
     NotCertified, "no reduction witness and no profile domination"),
    (lambda: construct_dense_incomparable(_no_zero_member(), _no_zero_member(),
                                          _no_zero_member(), None, [], 60),
     PreconditionFailed, "the middle set must contain 0"),
    (lambda: construct_diamond(parse_set("meet(evens, mod 3)"), parse_set("join(evens, mod 3)"),
                               [], 60, min_equilibria=4),
     PreconditionFailed, "only 3 equilibrium points below 60"),
], ids=["dense without 0", "dense witness", "dense domination", "middle without 0",
        "diamond equilibria"])
def test_builders_check_their_preconditions(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


class TestJoinSplit:
    def test_join_equality_bit_exact(self):
        z = mod_set(3)
        r = construct_join_split(z, family6(), 500)
        assert_ok(r)
        y0, y1 = r.outputs["Y0"], r.outputs["Y1"]
        last = max(rec.stage for rec in r.trace.records
                   for e in rec.events if e.startswith("close:"))
        joined = string_join(y0.prefix(last - 1), y1.prefix(last - 1))
        assert joined.bits == z.prefix(last - 1).bits

    def test_counterexample_per_cycle(self):
        r = construct_join_split(mod_set(3), family6(), 500)
        assert len(r.counterexamples) == 12

    def test_block_structure(self):
        r = construct_join_split(mod_set(3), family6(), 500)
        y1 = r.outputs["Y1"]
        # within the first P block the filler is ones then zeros
        records = r.trace.records
        close1 = next(rec.stage for rec in records
                      for e in rec.events if e.startswith("close:P0"))
        seg = [y1.bit(i) for i in range(close1)]
        switched = seg.index(0) if 0 in seg else len(seg)
        assert all(b == 1 for b in seg[:switched])
        assert all(b == 0 for b in seg[switched:])

    @pytest.mark.parametrize("z", [PrSet("none", lambda n: 0),
                                   PrSet("all", lambda n: 1)])
    def test_rejects_a_flat_window(self, z):
        # bits 0..window must hold both a member and a non-member
        msg = f"^{z.name} is not infinite and coinfinite on the sampled window$"
        with pytest.raises(PreconditionFailed, match=msg):
            construct_join_split(z, family6(), 30)

    def test_empty_family_dummy_cycles(self):
        r = construct_join_split(mod_set(3), [], 100)
        assert_ok(r)
        y0, y1 = r.outputs["Y0"], r.outputs["Y1"]
        last = max(rec.stage for rec in r.trace.records
                   for e in rec.events if e.startswith("close:"))
        joined = string_join(y0.prefix(last - 1), y1.prefix(last - 1))
        assert joined.bits == mod_set(3).prefix(last - 1).bits


class TestMeetSplit:
    def test_meet_equality_bit_exact(self):
        z = evens_set()
        r = construct_meet_split(z, family6(), 500)
        assert_ok(r)
        y0, y1 = r.outputs["Y0"], r.outputs["Y1"]
        last = max(rec.stage for rec in r.trace.records
                   for e in rec.events if e.startswith("close:"))
        met = string_meet(y0.prefix(last - 1), y1.prefix(last - 1))
        assert met.bits == z.prefix(last - 1).bits

    def test_misuse_with_singleton_zero_starves(self):
        from punctual.sets import singleton_zero_set
        with pytest.raises(StageBudgetExhausted) as exc:
            construct_meet_split(singleton_zero_set(), [family6()[0]], 120)
        assert exc.value.cycle == "P0"


class TestDiamond:
    def test_both_equalities_bit_exact(self):
        # a partner whose profile keeps crossing the halving line gives the
        # pair equilibrium points at every period boundary
        w = blocks_set(6)
        x = set_meet(evens_set(), w)
        z = set_join(evens_set(), w)
        r = construct_diamond(x, z, family6(), 500)
        assert_ok(r)
        y0, y1 = r.outputs["Y0"], r.outputs["Y1"]
        last = max(rec.stage for rec in r.trace.records
                   for e in rec.events if e.startswith("close:"))
        assert last >= 100
        eq = equilibrium_points(y0, y1, 500, "index")
        assert eq.count >= 5
        for s in eq.points[:20]:
            a = set_join(y0, y1).zeros_by_index(s)
            b = set_meet(y0, y1).zeros_by_index(s)
            assert a == b == y0.zeros_by_index(s)

    def test_starved_transition_names_phase(self):
        y = drop_least_zero(evens_set())
        x = make_nondiamond_below(y, [NATIVE_REGISTRY["id"],
                                      NATIVE_REGISTRY["square"]], 8)
        with pytest.raises(StageBudgetExhausted) as exc:
            construct_diamond(x, y, family6(), 400)
        assert exc.value.phase == "transition"

    def test_rejects_pair_without_zero(self):
        odd_start = drop_least_zero(evens_set())
        with pytest.raises(PreconditionFailed):
            construct_diamond(mod_set(3), _no_zero_member(), family6(), 100)


def _no_zero_member():
    from punctual.sets import PrSet
    return PrSet("shifted", lambda n: 0 if n == 0 else 1 - (n % 2))


class TestSeparator:
    def test_three_postconditions(self):
        x = evens_set()
        fam = [NATIVE_REGISTRY[n] for n in ["id", "succ", "plus2", "double",
                                            "triple", "const5"]]
        y = make_nondiamond_below(drop_least_zero(evens_set()), fam, 8)
        r = construct_separator(x, y, fam, 5000)
        assert_ok(r)
        assert len(r.notes["escapes"]) == 6
        zed = r.output()
        for s in range(1000):
            assert zed.zeros_by_index(s) <= max(0, x.zeros_by_steps(s) - 1)

    def test_missing_anti_certificate(self):
        # the dropped evens never escape the evens through the identity
        from punctual.errors import NotCertified
        with pytest.raises(NotCertified):
            construct_separator(evens_set(), evens_set(),
                                [NATIVE_REGISTRY["id"]], 100)

    def test_empty_family_tracks_cap(self):
        r = construct_separator(evens_set(), drop_least_zero(evens_set()), [],
                                200)
        assert_ok(r)


class TestDetector:
    """The incremental detector against the definitional ones."""

    DEFINITIONAL = {"R_to_RY": detect_counterexample_R_to_RY,
                    "RY_to_R": detect_counterexample_RY_to_R,
                    "RX_to_RY": detect_counterexample_RX_to_RY}

    @pytest.mark.parametrize("flavor", sorted(DEFINITIONAL))
    def test_scan_and_extract_match_definitional(self, flavor):
        rng = random.Random(f"detector-{flavor}")
        stages = 40
        first_hits = []
        for run in range(25):
            values = [rng.randrange(2 * stages) for _ in range(stages + 2)]
            costs = [rng.randrange(stages) for _ in range(stages + 2)]
            prog = NativeProgram(f"r{run}", values.__getitem__, costs.__getitem__)
            rel = SetRelation(prefix_set("rel", [rng.randrange(2)
                                                 for _ in range(4 * stages)]))
            src, tgt = [], []
            source, target = {"R_to_RY": (rel, tgt), "RY_to_R": (src, rel),
                              "RX_to_RY": (src, tgt)}[flavor]
            det = _Detector(flavor, prog)
            first = None
            for s in range(stages):
                src.append(rng.randrange(2))
                tgt.append(rng.randrange(2))
                prefixes = [Prefix(tuple(side)) if isinstance(side, list)
                            else side for side in (source, target)]
                want = self.DEFINITIONAL[flavor](prog, *prefixes, s)
                assert det.scan(s, source, target) == (want is not None), (run, s)
                if want is not None:
                    # the detector names the member; the public scan does not
                    assert det.extract(s, source, target) == want._replace(member=prog.name)
                    if first is None:
                        first = s
            first_hits.append(first)
        # the seeded runs fire at many different stages
        assert len(set(first_hits)) > 5


class TestTraceFiles:
    def test_round_trip_and_verify(self, tmp_path):
        r = construct_join_split(mod_set(3), family6(), 300)
        p = tmp_path / "js.trace"
        save_trace(r, p)
        ok, msg = verify_trace_file(p)
        assert ok, msg

    def test_corrupted_bit_detected(self, tmp_path):
        r = construct_immune(family6(), 150)
        p = tmp_path / "imm.trace"
        save_trace(r, p)
        text = p.read_text()
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("40\t"):
                lines[i] = line.replace("Y=1", "Y=0") if "Y=1" in line \
                    else line.replace("Y=0", "Y=1")
                break
        p.write_text("\n".join(lines) + "\n")
        ok, msg = verify_trace_file(p)
        assert not ok and "divergence at byte" in msg
        assert msg.endswith(": stage 40 field bits")

    def test_edited_header_detected(self, tmp_path):
        r = construct_immune(family6(), 150)
        p = tmp_path / "imm.trace"
        save_trace(r, p)
        text = p.read_text().replace("max-stages\t150", "max-stages\t149")
        p.write_text(text)
        ok, msg = verify_trace_file(p)
        assert not ok

    def test_load_trace_set_dsl(self, tmp_path):
        from punctual.sets import parse_set
        r = construct_immune(family6(), 150)
        p = tmp_path / "imm.trace"
        save_trace(r, p)
        s = parse_set(f"trace {p}")
        for n in range(100):
            assert s.bit(n) == r.output().bit(n)

    def test_load_named_output(self, tmp_path):
        r = construct_join_split(mod_set(3), family6(), 200)
        p = tmp_path / "js.trace"
        save_trace(r, p)
        s = load_trace_set(f"{p}:Y1")
        for n in range(150):
            assert s.bit(n) == r.outputs["Y1"].bit(n)

    def test_unknown_output_is_misuse(self, tmp_path):
        p = tmp_path / "js.trace"
        save_trace(construct_join_split(mod_set(3), family6()[:2], 200), p)
        with pytest.raises(ParseError, match=r"no output 'Nope'; its outputs are Y0, Y1$"):
            load_trace_set(f"{p}:Nope")

    def test_output_without_bits_loads(self, tmp_path):
        # stage 0 of the stage convention emits nothing
        r = construct_immune([], 0)
        assert r.trace.columns == {"Y": []}
        p = tmp_path / "imm0.trace"
        save_trace(r, p)
        s = load_trace_set(f"{p}:Y")
        assert [s.bit(n) for n in range(4)] == [1, 0, 1, 0]


def _with_fault(monkeypatch, machine, fault, at):
    """Make ``machine`` emit one extra bit of Y at stage ``at``, or skip one."""
    def wrap(method):
        def faulty(self, stage, *rest):
            shown = method(self, stage, *rest)
            if stage == at:
                if fault == "extra":
                    self.y.emit(1)
                else:
                    self.y.zero_count -= 1 - self.y.bits.pop()
            return shown
        return faulty

    for name in ("step", "fallback"):
        monkeypatch.setattr(machine, name, wrap(getattr(machine, name)))


def _dense60():
    return construct_dense(parse_set("meet(evens, blocks 6)"),
                           parse_set("join(evens, blocks 6)"), None, family6()[:2], 60)


# machine, fault stage, 60-stage run; a dense fault before the last stage
# also breaks the density chain, which cuts the sandwich tables short
FAULTY_RUNS = {
    "incomparable": (_IncomparableMachine, 5, lambda: construct_incomparable(
        parse_set("evens"), family6()[:2], 60)),
    "dense": (_DenseMachine, 60, _dense60),
    "dense-early": (_DenseMachine, 5, _dense60),
}


@pytest.mark.parametrize("fault", ["extra", "skip"])
@pytest.mark.parametrize("kind", sorted(FAULTY_RUNS))
def test_miscounted_emission_fails_validation(kind, fault, monkeypatch, tmp_path):
    machine, at, build = FAULTY_RUNS[kind]
    assert_ok(build())
    _with_fault(monkeypatch, machine, fault, at)
    r = build()
    assert r.trace.footer[0] == ("verdict", "fail")
    assert any(k == "failure" and v.startswith("output Y holds ")
               for k, v in r.trace.footer), r.trace.footer
    text = r.trace.serialize()
    records = text.split("\n---\n")[1].splitlines()
    assert [int(line.split("\t")[0]) for line in records] == list(range(61))
    p = tmp_path / f"{kind}.trace"
    save_trace(r, p)
    assert verify_trace_file(p) == (False, "validation verdict: fail")


def _diamond120(family=None):
    return construct_diamond(parse_set("meet(evens, blocks 6)"),
                             parse_set("join(evens, blocks 6)"),
                             family6()[:2] if family is None else family, 120)


def _flip(names, *at):
    """Flip bits ``at`` of each output in ``names`` in its trace column and
    its set."""
    def mutate(result):
        for name in names.split():
            bits = result.trace.columns[name]
            for i in at:
                bits[i] = 1 - bits[i]
            result.outputs[name] = prefix_set(name, bits)
    return mutate


def _join60():
    return construct_join_split(mod_set(3), family6()[:2], 60)


def _meet60():
    return construct_meet_split(evens_set(), family6()[:2], 60)


def _mode(mode):
    return lambda result: setattr(result, "name", f"{mode}-split")


def _immune120():
    return construct_immune(family6()[:3], 120)


def _separator300():
    fam = [NATIVE_REGISTRY["id"], NATIVE_REGISTRY["succ"]]
    return construct_separator(evens_set(), make_nondiamond_below(
        drop_least_zero(evens_set()), fam, 8), fam, 300)


def _closed(case, witness):
    """Give the first closed cycle another case and witness."""
    def mutate(result):
        label, e, _, _ = result.notes["closed"][0]
        result.notes["closed"][0] = (label, e, case, witness)
    return mutate


def _member(name):
    """Name another member in the first counterexample."""
    def mutate(result):
        label, cex, src, tgt = result.counterexamples[0]
        result.counterexamples[0] = (label, cex._replace(member=name), src, tgt)
    return mutate


# run, mutation, the validators' failures; a validator that raises fails its
# row.  The closes are: diamond Q0 10, P0 22, Q1 24, P1 34, then fillers to
# 120; join-split at bits 3, 6, 9, ...; meet-split at bits 5, 7, 9, ...;
# dense P0 6, Q0 10, P1 11, Q1 12.
VALIDATOR_MUTANTS = {
    "diamond meet side": (_diamond120, _flip("Y0", 119), [
        "meet side differs at 119", "four-way equality fails at close 119",
        "four-way equality fails at close 120"]),
    "diamond join side": (_diamond120, _flip("Y1", 118), [
        "join side differs at 118", "four-way equality fails at close 118",
        "four-way equality fails at close 119", "four-way equality fails at close 120"]),
    "diamond four-way": (_diamond120, _flip("Y0 Y1", 120), [
        "meet side differs at 120", "four-way equality fails at close 120"]),
    "diamond output counts": (_diamond120, _flip("Y0", 22, 23), [
        "join side differs at 22", "output counts differ at close 22"]),
    "diamond Y0 bit 0": (_diamond120, _flip("Y0", 0), [
        "counterexample in Q0 no longer violates", "output Y0 does not hold 0"]),
    "diamond Y1 bit 0": (_diamond120, _flip("Y1", 0), [
        "counterexample in P0 no longer violates", "output Y1 does not hold 0"]),
    "diamond empty family bit 0": (partial(_diamond120, []), _flip("Y0 Y1", 0), [
        "output Y0 does not hold 0", "output Y1 does not hold 0"]),
    "join-split unknown member": (_join60, _member("nope"), ["unknown member nope in P0"]),
    "immune non-injectivity": (_immune120, _closed("case1", (3, 3, 0)),
                               ["P0 non-injectivity witness fails"]),
    "immune membership": (_immune120, _closed("case2", (0, 1)),
                          ["P0 membership witness fails"]),
    "separator cap": (_separator300, _flip("Z", 1), [
        "separator cap fails at stage 1", "anti-diamond window fails for member 0 at k=2",
        "anti-diamond window fails for member 0 at k=3"]),
    "separator escapes": (_separator300, lambda result: result.notes["escapes"].pop(1),
                          ["separator missed a member escape"]),
    "join-split mode differs": (_join60, _mode("meet"),
                                ["meet of outputs differs from the input set"]),
    "join-split counts at close": (_join60, _flip("Y0", 4, 7), [
        "counterexample in Q0 no longer violates",
        "join of outputs differs from the input set",
        "counts differ at close stage 7"]),
    "join-split one flip": (_join60, _flip("Y0", 56), [
        "join of outputs differs from the input set", "counts differ at close stage 58"]),
    "meet-split mode differs": (_meet60, _mode("join"),
                                ["join of outputs differs from the input set"]),
    "meet-split counts at close": (_meet60, _flip("Y0", 6, 8), [
        "counterexample in Q0 no longer violates",
        "meet of outputs differs from the input set",
        "counts differ at close stage 8"]),
    "meet-split one flip": (_meet60, _flip("Y1", 58), [
        "meet of outputs differs from the input set", "counts differ at close stage 60"]),
    "dense chain": (_dense60, _flip("Y", 30), [
        "chain invariant broken at stage 30", "upper sandwich witness fails"]),
    "dense lower counts": (_dense60, _flip("Y", 11, 12), [
        "chain invariant broken at stage 11", "lower counts differ at close of P1",
        "lower sandwich witness fails", "upper sandwich witness fails"]),
    "dense upper counts": (_dense60, _flip("Y", 12), [
        "chain invariant broken at stage 12", "upper counts differ at close of Q1",
        "upper sandwich witness fails"]),
}


@pytest.mark.parametrize("row", sorted(VALIDATOR_MUTANTS))
def test_validators_report_mutated_results(row):
    build, mutate, want = VALIDATOR_MUTANTS[row]
    result = build()
    assert validate_result(result, _closes(result)) == []
    mutate(result)
    assert _outcome(lambda r: validate_result(r, _closes(r)), result) == want


def test_stages_without_a_cycle_must_fall_back():
    """The gap check against its definition, one stage at a time, on edits
    before the fallback tail, inside it and at its ends."""
    result = construct_immune(family6(), 120)
    trace = result.trace
    cycles, phases = list(trace.cycles), list(trace.phases)
    tail = phases.index("fallback")

    def by_definition():
        return [f"no open cycle at stage {s}" for s in range(1, len(cycles))
                if trace.cycles[s] == "-" and trace.phases[s] != "fallback"]

    edits = [(), (("cycles", 0, "P0"),), (("cycles", 5, "-"),), (("phases", tail, "copy"),),
             (("phases", 120, "copy"),), (("cycles", tail, "P0"),),
             (("cycles", tail - 1, "-"), ("phases", tail - 1, "fallback")),
             (("cycles", 3, "-"), ("phases", 119, "wait"))]
    for edit in edits:
        trace.cycles, trace.phases = list(cycles), list(phases)
        for column, s, value in edit:
            getattr(trace, column)[s] = value
        gaps = [f for f in validate_result(result, _closes(result))
                if f.startswith("no open cycle")]
        assert gaps == by_definition(), edit
    assert by_definition() == ["no open cycle at stage 3", "no open cycle at stage 119"]


def _verify_by_definition(path):
    """The definitional verify: parse every record, replay from the parsed
    trace, compare the bytes."""
    with open(path, "rb") as fh:
        original = fh.read()
    trace = parse_trace(decode_text(original, path))
    result = replay_from_trace(trace)
    replayed = result.trace.serialize().encode()
    if original != replayed:
        return False, _divergence(original, replayed)
    verdict = result.trace.footer[0][1] if result.trace.footer else "unknown"
    if verdict != "ok":
        return False, f"validation verdict: {verdict}"
    return True, "ok"


def _outcome(verify, path):
    try:
        return verify(path)
    except Exception as exc:
        return type(exc), str(exc)


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.trace")))
def test_verify_matches_definition_on_golden_traces(name):
    path = GOLDEN / name
    assert _outcome(verify_trace_file, path) == _outcome(_verify_by_definition, path)


def test_verify_matches_definition_on_mutants(tmp_path):
    saved = [construct_immune(family6(), 40),
             construct_dense(parse_set("meet(evens, blocks 6)"),
                             parse_set("join(evens, blocks 6)"), None, family6(), 40)]
    rng = random.Random(20)
    mutant = tmp_path / "mutant.trace"
    seen = collections.Counter()
    for result in saved:
        original = result.trace.serialize().encode()
        for _ in range(150):
            mutant.write_bytes(fuzz_mutation(rng, original))
            want = _outcome(_verify_by_definition, mutant)
            assert _outcome(verify_trace_file, mutant) == want, mutant.read_bytes()
            if want[0] is ParseError and "malformed trace record" in want[1]:
                seen["malformed record"] += 1
            else:
                seen["divergence" if want[0] is False else "other"] += 1
    # each way out of the new path is taken
    assert min(seen.values()) >= 20 and len(seen) == 3, seen


def test_parsed_mutants_write_as_their_records():
    """The column writer equals the per-record writer on parsed mutants,
    whose stages need not count up and whose bit columns may be shorter or
    longer than the records, or hold integers other than 0 and 1."""
    saved = [construct_immune(family6(), 40),
             construct_join_split(mod_set(3), family6()[:2], 40),
             construct_dense(parse_set("meet(evens, blocks 6)"),
                             parse_set("join(evens, blocks 6)"), None, family6(), 40)]
    rng = random.Random(30)
    seen = collections.Counter()
    for result in saved:
        original = result.trace.serialize().encode()
        for _ in range(300):
            try:
                trace = parse_trace(decode_text(fuzz_mutation(rng, original), "mutant"))
            except ParseError:
                continue
            assert trace.serialize() == serialize_by_records(trace)
            shown = len(trace.stages) - trace.first_bit_stage()
            seen["parsed"] += 1
            seen["stages out of order"] += trace.stages != list(range(len(trace.stages)))
            seen["short column"] += any(len(b) < shown for b in trace.columns.values())
            seen["long column"] += any(len(b) > shown for b in trace.columns.values())
    assert len(seen) == 4 and min(seen.values()) >= 3, seen
    odd = parse_trace(original.decode().replace("\tY=1\t", "\tY=7\t", 1)
                      .replace("\tY=0\t", "\tY=-1\t", 1))
    assert {7, -1} <= set(odd.columns["Y"])
    assert odd.serialize() == serialize_by_records(odd)


def test_trace_events_hold_only_stages_with_events():
    # the empty-family separator sets stage 0's events after the run
    trace = construct_separator(parse_set("evens"), parse_set("drop(evens)"), [], 30).trace
    assert trace.events[0] == ("open:V0",) and list(trace.events) == sorted(trace.events)
    assert all(trace.events.values())
    assert [rec.events for rec in trace.records if rec.events] == list(trace.events.values())
    assert trace.records[0] == StageRecord(0, "V0", "init", ("open:V0",))


TERM_EVENS = f'term "{EVENS_TERM}" bound "{BOUND_LINEAR}"'


class TestReadAhead:
    """Filling inputs are read ahead to the last stage; term-backed inputs
    still grow stage by stage, as far as the run reads them."""

    def test_term_input_of_an_exhausted_split(self):
        z = parse_set(TERM_EVENS)
        with pytest.raises(StageBudgetExhausted) as info:
            construct_join_split(z, family6(), 600, cycle_budget=5)
        assert (info.value.stage, info.value.cycle) == (23, "P4")
        # the 200-bit sample window, not the 600 stages
        assert z.decided == 201

    def test_term_input_of_a_finished_dense_run(self):
        t, blocks = parse_set(TERM_EVENS), parse_set("blocks 6")
        result = construct_dense(set_meet(t, blocks), set_join(t, blocks), None,
                                 family6(), 60, "round-robin")
        # the 200-point domination check, not the 60 stages
        assert t.decided == 200
        # the same run over the builtin evens: its golden trace, bit for bit
        text = result.trace.serialize().replace(TERM_EVENS, "evens")
        assert text == (GOLDEN / "dense.round-robin.trace").read_text()

    @pytest.mark.parametrize("kind, decided", [
        ("meet-split", 400), ("diamond", 401), ("dense-incomparable", 401)])
    def test_term_input_of_a_finished_run(self, kind, decided):
        t, blocks = parse_set(TERM_EVENS), parse_set("blocks 6")
        x, z = parse_set("meet(evens, mod 3)"), parse_set("join(evens, mod 3)")
        build = {"meet-split": lambda: construct_meet_split(t, family6(), 400),
                 "diamond": lambda: construct_diamond(set_meet(t, blocks), set_join(t, blocks),
                                                      family6(), 400),
                 "dense-incomparable": lambda: construct_dense_incomparable(
                     x, t, z, None, family6(), 400)}[kind]
        assert_ok(build())
        # the last bit a stage reads (meet-split: bit 399) or a precondition
        # scan reads up to (the others: bit 400)
        assert t.decided == decided


# The inputs of every kind by flavour: builtin, derived, drop, trace-backed
# ({js}: a join-split trace) and term-backed descriptors.  Some runs exhaust
# or fail a precondition; the outcome is compared either way.
READER_CASES = {
    "immune": {"none": ()},
    "antichain": {"none": ()},
    "incomparable": {"builtin": ("mod 3",), "derived": ("join(evens, mod 3)",),
                     "drop": ("drop(evens)",), "trace": ("trace {js}:Y1",),
                     "term": (TERM_EVENS,)},
    "dense": {"builtin": ("evens", "evens"),
              "derived": ("meet(evens, blocks 6)", "join(evens, blocks 6)"),
              "drop": ("meet(drop(evens), mod 3)", "join(drop(evens), mod 3)"),
              "trace": ("meet(trace {js}:Y0, evens)", "join(trace {js}:Y0, evens)"),
              "term": (f"meet({TERM_EVENS}, blocks 6)", f"join({TERM_EVENS}, blocks 6)")},
    "dense-incomparable": {
        "builtin": ("evens", "evens", "evens"),
        "derived": ("meet(evens, mod 3)", "evens", "join(evens, mod 3)"),
        "drop": ("meet(drop(evens), mod 3)", "drop(evens)", "join(drop(evens), mod 3)"),
        "trace": ("meet(trace {js}:Y0, evens)", "evens", "join(trace {js}:Y0, evens)"),
        "term": ("meet(evens, mod 3)", TERM_EVENS, "join(evens, mod 3)")},
    "join-split": {"builtin": ("mod 3",), "derived": ("join(evens, mod 3)",),
                   "drop": ("drop(evens)",), "trace": ("trace {js}:Y1",),
                   "term": (TERM_EVENS,)},
    "meet-split": {"builtin": ("evens",), "derived": ("meet(evens, mod 3)",),
                   "drop": ("drop(mod 3)",), "trace": ("trace {js}:Y0",),
                   "term": (TERM_EVENS,)},
    "diamond": {"builtin": ("id", "evens"),
                "derived": ("meet(evens, blocks 6)", "join(evens, blocks 6)"),
                "drop": ("meet(drop(evens), mod 3)", "join(drop(evens), mod 3)"),
                "trace": ("meet(trace {js}:Y0, evens)", "join(trace {js}:Y0, evens)"),
                "term": (f"meet({TERM_EVENS}, blocks 6)", f"join({TERM_EVENS}, blocks 6)")},
    "separator": {"builtin": ("id", "evens"), "derived": ("id", "meet(evens, blocks 6)"),
                  "drop": ("id", "drop(evens)"), "trace": ("id", "trace {js}:Y1"),
                  "term": ("id", TERM_EVENS)},
}


@pytest.fixture(scope="module")
def js_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("reader") / "js.trace")
    save_trace(construct_join_split(parse_set("mod 3"), family6(), 200), path)
    return path


def _run_outcome(kind, descriptors, js, budget):
    """Every trace a run writes, a partial one included, its error, and how
    far each input's memo grew."""
    inputs = [parse_set(d.format(js=js)) for d in descriptors]
    options = {"count": 3} if kind == "antichain" else {}
    if kind not in ("antichain", "separator"):
        options["cycle_budget"] = budget
    family = ([NATIVE_REGISTRY["id"], NATIVE_REGISTRY["succ"]] if kind == "separator"
              else family6())
    try:
        built = CONSTRUCTIONS[kind].build(*inputs, family=family, max_stages=200,
                                          policy="once", **options)
        out = [r.trace.serialize() for r in (built if isinstance(built, list) else [built])]
    except StageBudgetExhausted as exc:
        out = [str(exc), exc.trace.serialize()]
    except PunctualError as exc:
        out = [repr(exc)]
    return out, [s.decided for s in inputs]


@pytest.mark.parametrize("budget", [None, 5])
@pytest.mark.parametrize("kind, flavor", [(k, f) for k, flavors in READER_CASES.items()
                                          for f in flavors])
def test_memo_column_reads_match_per_stage_bit_reads(kind, flavor, budget, js_trace,
                                                     monkeypatch):
    descriptors = READER_CASES[kind][flavor]
    columns = _run_outcome(kind, descriptors, js_trace, budget)
    # the definitional path: every machine reads each input bit by bit
    monkeypatch.setattr(PrSet, "reader", lambda self, n: self.bit)
    assert _run_outcome(kind, descriptors, js_trace, budget) == columns
