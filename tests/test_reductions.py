import pytest

from punctual.errors import (
    NotAReduction,
    NotCertified,
    PreconditionFailed,
    WitnessBoundViolated,
)
from punctual.pr_lang import NativeProgram, TableProgram, TermProgram, parse_term
from punctual.reductions import (
    ReductionWitness,
    check_pre_immune,
    check_reduction_prefix,
    detect_counterexample_R_to_RY,
    detect_counterexample_RX_to_RY,
    detect_counterexample_RY_to_R,
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


class TestDetectors:
    def test_constant_on_identity_fires_least_pair(self):
        sigma = Prefix.from_str("1")
        cex = detect_counterexample_R_to_RY(CONST0, IdentityRelation(), sigma, 3)
        assert (cex.l, cex.m) == (0, 1)
        assert cex.left is False and cex.right is False

    def test_identity_on_evens_against_all_ones(self):
        sigma = Prefix.from_str("1111")
        cex = detect_counterexample_R_to_RY(IDENTITY, SetRelation(evens_set()),
                                            sigma, 3)
        assert (cex.l, cex.m) == (0, 1)

    def test_identity_on_id_against_1010(self):
        sigma = Prefix.from_str("1010")
        cex = detect_counterexample_R_to_RY(IDENTITY, IdentityRelation(), sigma, 3)
        assert (cex.l, cex.m) == (0, 2)
        assert cex.images == (0, 2)

    def test_true_reduction_never_fires(self):
        # Y = {0}: the induced relation is the identity, reduced by the identity map
        sigma = Prefix.from_str("10000")
        assert detect_counterexample_RY_to_R(IDENTITY, sigma,
                                             IdentityRelation(), 8) is None

    def test_ry_to_r_fires_on_collapsed_prefix(self):
        sigma = Prefix.from_str("1101")
        cex = detect_counterexample_RY_to_R(IDENTITY, sigma, IdentityRelation(), 8)
        assert (cex.l, cex.m) == (0, 1)
        assert cex.left is True and cex.right is True

    def test_budget_gates_eligibility(self):
        slow = NativeProgram("slow-id", lambda x: x, lambda x: 100)
        sigma = Prefix.from_str("1111")
        assert detect_counterexample_R_to_RY(slow, SetRelation(evens_set()),
                                             sigma, 3) is None

    def test_two_string_detector(self):
        sx = Prefix.from_str("1100")
        sy = Prefix.from_str("1111")
        cex = detect_counterexample_RX_to_RY(IDENTITY, sx, sy, 10)
        # 2,3 are distinct zeros of the source prefix, images 2,3 are both ones
        assert (cex.l, cex.m) == (0, 2)
        assert cex.left is False and cex.right is False

    def test_revalidation_on_longer_prefix(self):
        sigma = Prefix.from_str("1111")
        cex = detect_counterexample_R_to_RY(IDENTITY, SetRelation(evens_set()),
                                            sigma, 3)
        longer = Prefix.from_str("11110101")
        assert revalidate_counterexample(cex, IDENTITY,
                                         source=SetRelation(evens_set()),
                                         sigma_y=longer)


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

    def test_witness_file_round_trip(self):
        g = synth_reduction_from_h(evens_set(), mod_set(3), IDENTITY, 25)
        text = serialize_witness(g)
        again = parse_witness(text)
        assert serialize_witness(again) == text
        assert [again.value(v) for v in range(26)] == [g.value(v) for v in range(26)]
