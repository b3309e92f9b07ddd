import pytest

from punctual.errors import (
    NotAReduction,
    NotCertified,
    PreconditionFailed,
    WitnessBoundViolated,
)
from punctual.pr_lang import NativeProgram, TableProgram, TermProgram, parse_term
from punctual.reductions import (
    Counterexample,
    ReductionWitness,
    as_program,
    check_pre_immune,
    check_reduction_prefix,
    detect_counterexample,
    domination_certificate,
    parse_witness,
    respect_normal_form,
    revalidate_counterexample,
    serialize_witness,
    surjectivize,
    synth_h_from_reduction,
    synth_p_from_reduction,
    synth_reduction_from_h,
    synth_reduction_from_p,
    verify_claim,
)
from punctual.sets import (
    IdentityRelation,
    PredicateRelation,
    Prefix,
    PrSet,
    SetRelation,
    drop_least_zero,
    evens_set,
    mod_set,
    normal_form,
    parse_set,
    prefix_set,
    set_join,
    set_meet,
)

IDENTITY = NativeProgram("id", lambda x: x)
CONST0 = NativeProgram("const0", lambda x: 0)


class TestCheckReduction:
    def test_identity_self_reduction(self):
        r = SetRelation(evens_set())
        assert check_reduction_prefix(IDENTITY, r, r, 20) is None

    def test_constant_collapses_identity(self):
        cex = check_reduction_prefix(CONST0, IdentityRelation(),
                                     SetRelation(evens_set()), 2)
        assert (cex.l, cex.m) == (0, 1)
        assert cex.left is False and cex.right is True

    def test_a_non_program_is_refused(self):
        with pytest.raises(TypeError, match="^not a program or witness: 5$"):
            as_program(5)

    def test_normal_form_forward_map(self):
        r = SetRelation(evens_set())
        x, f, g = normal_form(r)
        rx = SetRelation(x)
        assert check_reduction_prefix(f, r, rx, 50) is None
        assert check_reduction_prefix(g, rx, r, 50) is None

    def test_least_pair_is_lexicographic(self):
        # map 0,1 together and 2,3 together; the least violating pair is (0,1)
        bad = TableProgram([0, 0, 2, 2, 4, 5], "bad")
        cex = check_reduction_prefix(bad, IdentityRelation(), IdentityRelation(), 5)
        assert (cex.l, cex.m) == (0, 1)

    def test_negative_image_is_rejected(self):
        # read as a bit index, -1 would land on the end of the target's memo
        neg = TableProgram([0, 1, 0, -1, 0, 4], "neg")
        with pytest.raises(PreconditionFailed, match="maps 3 to -1"):
            check_reduction_prefix(neg, SetRelation(evens_set()),
                                   SetRelation(mod_set(3)), 5)

    def test_a_failing_source_relation_reraises_only_on_a_clean_prefix(self):
        # deciding element 6's class reads (6, 6), which the pairwise rescan
        # never reads: the check raises when 0..5 is clean, and otherwise
        # returns the least pair, found below 6
        def related(a, b):
            if a == b == 6:
                raise PreconditionFailed("element 6 read")
            return a == b

        source = PredicateRelation(related, "fails at 6")
        with pytest.raises(PreconditionFailed, match="element 6 read"):
            check_reduction_prefix(IDENTITY, source, IdentityRelation(), 10)
        collapsed = TableProgram([0, 0] + list(range(2, 11)), "collapsed")
        assert check_reduction_prefix(collapsed, source, IdentityRelation(), 10) == (
            "reduction", 0, 1, 10, False, True, (0, 0), None)


class TestDetectors:
    @pytest.mark.parametrize("flavor", ["reduction", "R_to_R"])
    def test_an_unknown_flavor_is_refused(self, flavor):
        with pytest.raises(ValueError, match=f"^unknown flavor {flavor}$"):
            detect_counterexample(flavor, IDENTITY, IdentityRelation(), IdentityRelation(), 3)
        cex = Counterexample(flavor, 0, 1, 3, True, False)
        with pytest.raises(ValueError, match=f"^unknown flavor {flavor}$"):
            revalidate_counterexample(cex, IDENTITY, IdentityRelation(), IdentityRelation())

    def test_constant_on_identity_fires_least_pair(self):
        sigma = Prefix.from_str("1")
        cex = detect_counterexample("R_to_RY", CONST0, IdentityRelation(), sigma, 3)
        assert (cex.l, cex.m) == (0, 1)
        assert cex.left is False and cex.right is False

    def test_identity_on_evens_against_all_ones(self):
        sigma = Prefix.from_str("1111")
        cex = detect_counterexample("R_to_RY", IDENTITY, SetRelation(evens_set()), sigma, 3)
        assert (cex.l, cex.m) == (0, 1)

    def test_identity_on_id_against_1010(self):
        sigma = Prefix.from_str("1010")
        cex = detect_counterexample("R_to_RY", IDENTITY, IdentityRelation(), sigma, 3)
        assert (cex.l, cex.m) == (0, 2)
        assert cex.images == (0, 2)

    def test_true_reduction_never_fires(self):
        # Y = {0}: the induced relation is the identity, reduced by the identity map
        sigma = Prefix.from_str("10000")
        assert detect_counterexample("RY_to_R", IDENTITY, sigma, IdentityRelation(), 8) is None

    def test_ry_to_r_fires_on_collapsed_prefix(self):
        sigma = Prefix.from_str("1101")
        cex = detect_counterexample("RY_to_R", IDENTITY, sigma, IdentityRelation(), 8)
        assert (cex.l, cex.m) == (0, 1)
        assert cex.left is True and cex.right is True

    def test_budget_gates_eligibility(self):
        slow = NativeProgram("slow-id", lambda x: x, lambda x: 100)
        sigma = Prefix.from_str("1111")
        assert detect_counterexample("R_to_RY", slow, SetRelation(evens_set()), sigma, 3) is None

    def test_two_string_detector(self):
        sx = Prefix.from_str("1100")
        sy = Prefix.from_str("1111")
        cex = detect_counterexample("RX_to_RY", IDENTITY, sx, sy, 10)
        # 2,3 are distinct zeros of the source prefix, images 2,3 are both ones
        assert (cex.l, cex.m) == (0, 2)
        assert cex.left is False and cex.right is False

    def test_revalidation_on_longer_prefix(self):
        sigma = Prefix.from_str("1111")
        cex = detect_counterexample("R_to_RY", IDENTITY, SetRelation(evens_set()), sigma, 3)
        longer = Prefix.from_str("11110101")
        assert revalidate_counterexample(cex, IDENTITY, SetRelation(evens_set()), longer)

    def test_revalidation_refuses_what_the_final_data_cannot_decide(self):
        cex = detect_counterexample("RX_to_RY", IDENTITY, Prefix.from_str("1100"),
                                    Prefix.from_str("1111"), 10)
        assert (cex.l, cex.m, cex.images) == (0, 2, (0, 2))
        sx, sy = Prefix.from_str("1100"), Prefix.from_str("1111")
        assert revalidate_counterexample(cex, IDENTITY, sx, sy)
        # the member no longer converges within the recorded stage
        slow = NativeProgram("slow-id", lambda x: x, lambda x: 100)
        assert not revalidate_counterexample(cex, slow, sx, sy)
        # m = 2 lies past a decided source prefix
        assert not revalidate_counterexample(cex, IDENTITY, Prefix.from_str("11"), sy)
        # the image 2 lies past a decided target prefix
        assert not revalidate_counterexample(cex, IDENTITY, sx, Prefix.from_str("11"))


class TestGrowthSynthesis:
    def test_reduction_from_identity_bound(self):
        g = synth_reduction_from_h(evens_set(), mod_set(3), IDENTITY, 40)
        assert [g.value(v) for v in range(6)] == [0, 1, 0, 2, 0, 4]
        assert g.verified

    def test_growth_bound_from_reduction(self):
        g = synth_reduction_from_h(evens_set(), mod_set(3), IDENTITY, 40)
        h = synth_h_from_reduction(g, evens_set(), mod_set(3), 40)
        assert h.value(5) == 4
        assert h.value(0) == 0
        assert h.value(5) == g.value(5)
        for s in range(41):
            assert (evens_set().zeros_by_index(s)
                    <= mod_set(3).zeros_by_index(h.value(s)))

    def test_round_trip(self):
        g = synth_reduction_from_h(evens_set(), mod_set(3), IDENTITY, 60)
        h = synth_h_from_reduction(g, evens_set(), mod_set(3), 60)
        g2 = synth_reduction_from_h(evens_set(), mod_set(3), h, 60)
        assert g2.verified

    def test_self_reduction_enumerates_complement(self):
        g = synth_reduction_from_h(evens_set(), evens_set(), IDENTITY, 20)
        assert [g.value(v) for v in [1, 3, 5, 7]] == [1, 3, 5, 7]

    def test_zero_in_source(self):
        g = synth_reduction_from_h(evens_set(), mod_set(3), IDENTITY, 10)
        assert g.value(0) == 0

    def test_bound_violation(self):
        # pointwise profile of mod 3 outgrows evens, so the identity bound fails
        with pytest.raises(WitnessBoundViolated):
            synth_reduction_from_h(mod_set(3), evens_set(), IDENTITY, 40)

    def test_zero_at_zero_honours_the_bound(self):
        # 0 is a zero of x, and h(0) = 0 leaves no zero of evens to pick;
        # every zero v of x is bounded by h(v), v = 0 included
        x = prefix_set("x", [0, 1, 1, 1, 1, 1])
        with pytest.raises(WitnessBoundViolated, match=r"h\(0\)=0"):
            synth_reduction_from_h(x, evens_set(), TableProgram([0] * 6, "zero"), 5)
        g = synth_reduction_from_h(x, evens_set(), TableProgram([1] * 6, "one"), 5)
        assert list(g.program.values) == [1, 0, 0, 0, 0, 0]


class TestStepSynthesis:
    def test_self_rate_is_shift(self):
        p = synth_p_from_reduction(IDENTITY, evens_set(), evens_set(), 50)
        assert [p.value(s) for s in range(5)] == [1, 2, 3, 4, 5]

    def test_round_trip_step_convention(self):
        g = synth_reduction_from_h(evens_set(), mod_set(3), IDENTITY, 80)
        p = synth_p_from_reduction(g, evens_set(), mod_set(3), 80)
        for s in range(81):
            assert (evens_set().zeros_by_steps(s)
                    <= mod_set(3).zeros_by_steps(p.value(s)))
        g2 = synth_reduction_from_p(evens_set(), mod_set(3), p, 60)
        assert g2.verified and g2.convention == "steps"

    def test_degenerate_horizon(self):
        p = synth_p_from_reduction(IDENTITY, evens_set(), evens_set(), 0)
        assert p.value(0) == 1


class TestMassaging:
    def test_respecting_pass_through(self):
        g = synth_reduction_from_h(evens_set(), mod_set(3), IDENTITY, 30)
        r = respect_normal_form(g, evens_set(), mod_set(3), 30)
        assert [r.value(v) for v in range(8)] == [g.value(v) for v in range(8)]

    def test_respecting_swap(self):
        def f(x):
            if x % 2 == 0:
                return 1          # whole set lands on 1, outside mod 3
            if x == 1:
                return 3          # one singleton strays into the target set
            return 3 * x + 1

        w = respect_normal_form(NativeProgram("f", f), evens_set(), mod_set(3), 40)
        assert w.value(2) == 0     # members now land inside the target set
        assert w.value(1) == 1     # the stray singleton takes the old image
        assert w.value(3) == 10    # other singletons pass through

    def test_surjectivize_example(self):
        f = NativeProgram("f", lambda x: 0 if x % 2 == 0 else 3 * x + 1)
        w = surjectivize(f, evens_set(), mod_set(3), 40)
        assert [w.value(x) for x in [1, 3, 5, 7, 9]] == [1, 2, 4, 5, 7]
        assert w.value(1) == 1

    def test_surjectivize_keeps_ordered_maps(self):
        w = surjectivize(IDENTITY, evens_set(), evens_set(), 30)
        assert [w.value(x) for x in [1, 3, 5]] == [1, 3, 5]

    def test_strictly_increasing_on_complement(self):
        f = NativeProgram("f", lambda x: 0 if x % 2 == 0 else 3 * x + 1)
        w = surjectivize(f, evens_set(), mod_set(3), 60)
        odds = list(range(1, 61, 2))
        vals = [w.value(x) for x in odds]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rewrites_need_a_target_member_below_the_horizon(self):
        late = PrSet("late", lambda n: 1 if n > 30 else 0)
        # the evens land on the non-member 5, so a member must take them
        f = TableProgram([5 if n % 2 == 0 else n + 11 for n in range(11)], "f")
        empty = PrSet("empty", lambda n: 0)
        cases = [(respect_normal_form, f, evens_set(), late),
                 (surjectivize, f, evens_set(), late),
                 (surjectivize, IDENTITY, empty, empty)]
        for rewrite, prog, x, y in cases:
            with pytest.raises(PreconditionFailed,
                               match=f"^{y.name} has no member below the horizon$"):
                rewrite(prog, x, y, 10)


class TestPreImmune:
    def test_identity_hits_evens(self):
        v, = check_pre_immune(evens_set(), [IDENTITY], 40)
        assert v.injective
        assert v.hits_set_at == (0, 0)
        assert not v.witnesses_top_reduction

    def test_odd_walker_witnesses_reduction(self):
        odd = TermProgram(parse_term("C(S; R(Z; C(S; C(S; P[3,3]))))"), "odd")
        v, = check_pre_immune(evens_set(), [odd], 40)
        assert v.injective and v.hits_set_at is None
        assert v.witnesses_top_reduction

    def test_collision_reported(self):
        v, = check_pre_immune(evens_set(), [CONST0], 10)
        assert not v.injective
        assert v.collision == (0, 1)


class TestCertificatesAndFiles:
    def test_domination(self):
        w = domination_certificate(set_meet(evens_set(), mod_set(3)),
                                   evens_set(), 200)
        assert w.verified

    def test_domination_refused(self):
        with pytest.raises(NotCertified):
            domination_certificate(evens_set(), drop_least_zero(evens_set()), 100)

    @pytest.mark.parametrize("table, claim, low, high, message", [
        ([0] * 11, "reduction", "evens", "mod 3",
         "claimed reduction fails: reduction l=0 m=1 stage=10 left=0 right=1 images=(0, 0)"),
        (list(range(11)), "growth-q", "evens", "mod 3", "unknown claim kind 'growth-q'"),
        (list(range(11)), "growth-h", "mod 3", "evens", "claimed growth-h bound fails at s=2"),
        (list(range(11)), "growth-p", "mod 3", "evens", "claimed growth-p bound fails at s=3"),
    ])
    def test_verify_claim_refuses(self, table, claim, low, high, message):
        # the identity's growth claims hold from evens to mod 3, not back
        low, high = parse_set(low), parse_set(high)
        w = ReductionWitness(TableProgram(table), claim, low.name, high.name, 10)
        with pytest.raises(NotCertified) as exc:
            verify_claim(w, low, high, 10)
        assert str(exc.value) == message

    def test_verify_claim_accepts_a_valid_reduction(self):
        w = ReductionWitness(TableProgram(list(range(11))), "reduction", "evens", "evens", 10)
        assert verify_claim(w, evens_set(), evens_set(), 10) is None

    def test_only_a_table_witness_serializes(self):
        w = ReductionWitness(IDENTITY, "reduction", "evens", "evens", 10)
        with pytest.raises(PreconditionFailed, match="only table-backed witnesses serialize"):
            serialize_witness(w)

    def test_witness_file_round_trip(self):
        g = synth_reduction_from_h(evens_set(), mod_set(3), IDENTITY, 25)
        text = serialize_witness(g)
        again = parse_witness(text)
        assert serialize_witness(again) == text
        assert [again.value(v) for v in range(26)] == [g.value(v) for v in range(26)]
