import pytest

from punctual.errors import CaseUndetermined, NotCertified
from punctual.lattice import (
    serialize_evidence,
    shift_top_certificate,
    anti_reduction_evidence,
    canonical_diamond_witness,
    check_slowness,
    diamond_evidence_q,
    diamond_evidence_r,
    equilibrium_points,
    make_nondiamond_below,
    make_slow_set,
    restrict_diamond_witness,
    x1_bound_check,
)
from punctual.pr_lang import NATIVE_REGISTRY, TableProgram
from punctual.reductions import domination_certificate
from punctual.sets import drop_least_zero, evens_set, mod_set

ID = NATIVE_REGISTRY["id"]
PLUS2 = NATIVE_REGISTRY["plus2"]
TRIPLE = NATIVE_REGISTRY["triple"]

F6 = [NATIVE_REGISTRY[n] for n in
      ["id", "plus2", "double", "triple", "square", "square_plus"]]


def profile_match_table(src, tgt, horizon, fallback_self=True):
    """p(s) = least stage with tgt count equal to src count at s, else s."""
    out = []
    for s in range(horizon + 1):
        want = src.zeros_by_steps(s)
        hit = next((t for t in range(horizon + 1)
                    if tgt.zeros_by_steps(t) == want), None)
        out.append(s if hit is None else hit)
    return TableProgram(out, "match")


class TestEquilibrium:
    def test_evens_vs_mod3(self):
        rep = equilibrium_points(evens_set(), mod_set(3), 10, "index")
        assert rep.points == (0, 1, 3)

    def test_self_pair(self):
        rep = equilibrium_points(evens_set(), evens_set(), 10, "index")
        assert rep.points == tuple(range(11))

    def test_dropped_pair_lags(self):
        rep = equilibrium_points(evens_set(), drop_least_zero(evens_set()), 10,
                                 "index")
        assert rep.points == (0,)

    def test_exhaustive_both_conventions(self):
        for conv in ("index", "steps"):
            rep = equilibrium_points(evens_set(), mod_set(3), 50, conv)
            read = f"zeros_by_{conv}"
            for s in range(51):
                want = (getattr(evens_set(), read)(s)
                        == getattr(mod_set(3), read)(s))
                assert (s in rep.points) == want


class TestEvidenceQ:
    def test_self_pair_identity(self):
        e = evens_set()
        cert = domination_certificate(e, e, 100)
        ev = diamond_evidence_q(e, e, ID, 100, 5, cert)
        assert ev.count == 101
        assert ev.verdict == "evidence(5)"

    def test_needs_certificate(self):
        with pytest.raises(NotCertified):
            diamond_evidence_q(evens_set(), evens_set(), ID, 10, 1, None)

    def test_hits_follow_equilibria(self):
        e, m = evens_set(), mod_set(3)
        cert = domination_certificate(e, m, 100)
        ev = diamond_evidence_q(e, m, ID, 100, 1, cert, convention="index")
        assert ev.hits == equilibrium_points(e, m, 100, "index").points

    def test_shifted_pair_with_shift_table(self):
        d = drop_least_zero(evens_set())
        e = evens_set()
        cert = domination_certificate(d, e, 120)
        shift = TableProgram([t + 2 for t in range(121)], "shift2")
        ev = diamond_evidence_q(d, e, shift, 100, 50, cert)
        assert ev.count == 101

    def test_relaxed_form(self):
        d = drop_least_zero(evens_set())
        e = evens_set()
        cert = domination_certificate(d, e, 60)
        ev = diamond_evidence_q(d, e, TableProgram([t + 10 for t in range(61)]),
                                60, 1, cert, relaxed=True)
        assert ev.relaxed and ev.count == 61


class TestEvidenceR:
    def test_dropped_pair_identity_full_hits(self):
        for base in (evens_set(), mod_set(3), mod_set(5)):
            d = drop_least_zero(base)
            cert = domination_certificate(d, base, 200)
            ev = diamond_evidence_r(d, base, ID, (0, 50), cert)
            assert ev.count == 51

    def test_evens_mod3_with_triple(self):
        cert = domination_certificate(evens_set(), mod_set(3), 200)
        ev = diamond_evidence_r(evens_set(), mod_set(3), TRIPLE, (0, 20), cert)
        assert ev.count == 21

    def test_double_drop_needs_two_extra(self):
        e = evens_set()
        d2 = drop_least_zero(drop_least_zero(e))
        cert = domination_certificate(d2, e, 200)
        # position of the (n+1)-st zero shifts by two: 2n+5 vs 2n+3
        assert diamond_evidence_r(d2, e, ID, (0, 50), cert).count == 0
        assert diamond_evidence_r(d2, e, PLUS2, (0, 50), cert).count == 51


class TestSlowSets:
    def test_empty_family_vacuous(self):
        s = make_slow_set([], 10)
        assert s.name == "evens"

    def test_identity_family(self):
        s = make_slow_set([ID], 10)
        cert = check_slowness(s, [ID], (0, 10))
        assert cert.slow_on_window

    def test_six_member_family(self):
        s = make_slow_set(F6, 12)
        cert = check_slowness(s, F6, (0, 10))
        assert cert.slow_on_window

    def test_slow_direction_zero_hits(self):
        s = make_slow_set(F6, 12)
        d2 = drop_least_zero(drop_least_zero(s))
        cert = domination_certificate(d2, s, 500)
        for r in F6:
            ev = diamond_evidence_r(d2, s, r, (0, 8), cert)
            assert ev.count == 0

    def test_evens_is_not_slow(self):
        cert = check_slowness(evens_set(), [PLUS2], (0, 20))
        assert not cert.slow_on_window


class TestNondiamond:
    def test_construction_properties(self):
        y = drop_least_zero(evens_set())
        x = make_nondiamond_below(y, [ID, NATIVE_REGISTRY["square"]], 8)
        cert = domination_certificate(x, y, 400)
        for r in (ID, NATIVE_REGISTRY["square"]):
            ev = diamond_evidence_r(x, y, r, (0, 7), cert)
            assert ev.count == 0

    def test_domination_holds(self):
        y = evens_set()
        x = make_nondiamond_below(y, [ID], 6)
        for s in range(300):
            assert x.zeros_by_index(s) <= y.zeros_by_index(s)

    def test_empty_family_degenerate(self):
        y = evens_set()
        x = make_nondiamond_below(y, [], 6)
        assert x.meta.get("degenerate")
        assert [x.bit(n) for n in range(10)] == [y.bit(n) for n in range(10)]


class TestCanonicalWitness:
    def test_first_case_smoothing(self):
        x = evens_set()
        y = drop_least_zero(evens_set())
        h = 120
        p = profile_match_table(x, y, h)
        q = profile_match_table(y, x, h)
        w = canonical_diamond_witness(x, y, p, q, h)
        assert w.case == 1
        d = w.d_table
        assert all(d[i + 1] - d[i] in (0, 1) for i in range(len(d) - 1))
        assert w.equilibrium_count >= w.good_stage_count
        assert w.good_stage_count > 10
        assert w.certificates["x_star<=x"].verified
        assert w.certificates["x<=x_star"].verified
        for s in range(h - 1):
            assert w.x_star.zeros_by_steps(s) == d[s]

    def test_already_balanced_pair(self):
        x = evens_set()
        h = 80
        p = profile_match_table(x, x, h)
        w = canonical_diamond_witness(x, x, p, p, h)
        assert w.equilibrium_count >= w.good_stage_count

    def test_undetermined_when_starved(self):
        with pytest.raises(CaseUndetermined):
            canonical_diamond_witness(evens_set(), mod_set(3), ID, ID, 100,
                                      min_pairs=80)


class TestRestrict:
    def test_trivial_subinterval(self):
        m = mod_set(3)
        cert = domination_certificate(m, m, 60)
        qw, report = restrict_diamond_witness(m, m, m, m, None, None, ID, 60,
                                              certificate=cert)
        # one hit per distinct count value reached at an outer equilibrium
        values = {m.zeros_by_steps(s) for s in range(61)}
        assert report.count >= len(values) - 1

    def test_dropped_subinterval(self):
        m = mod_set(3)
        d = drop_least_zero(m)
        cert = domination_certificate(d, m, 80)
        qw, report = restrict_diamond_witness(m, d, d, m, None, None, ID, 80,
                                              certificate=cert)
        assert report.count >= 40

    def test_evidence_free_outer_pair(self):
        x = make_nondiamond_below(evens_set(), [ID], 6)
        cert = domination_certificate(x, evens_set(), 100)
        qw, report = restrict_diamond_witness(evens_set(), evens_set(), x, x,
                                              None, None, ID, 100,
                                              certificate=cert)
        assert report.count <= 101


class TestDropBound:
    def test_reduction_side_for_dropped(self):
        x = evens_set()
        y = drop_least_zero(x)
        cert = domination_certificate(y, x, 200)
        v = x1_bound_check(x, y, 200, cert)
        assert v.reduction_side

    def test_diamond_side_for_self(self):
        x = evens_set()
        cert = domination_certificate(x, x, 200)
        v = x1_bound_check(x, x, 200, cert)
        assert not v.reduction_side
        assert len(v.diamond_side_stages) == 201

    def test_nondiamond_pair_lands_on_reduction_side(self):
        x = evens_set()
        below = make_nondiamond_below(x, [ID, PLUS2], 8)
        cert = domination_certificate(below, x, 300)
        v = x1_bound_check(x, below, 300, cert)
        assert v.reduction_side


class TestAntiEvidence:
    def test_fast_set_escapes_slow_target(self):
        x = drop_least_zero(evens_set())
        y = make_nondiamond_below(drop_least_zero(evens_set()), F6, 8)
        ev = anti_reduction_evidence(x, y, F6, 2000)
        assert set(ev) == {r.name for r in F6}

    def test_refuses_when_no_escape(self):
        with pytest.raises(NotCertified):
            anti_reduction_evidence(drop_least_zero(evens_set()), evens_set(),
                                    [ID], 200)


class TestShiftTopCertificate:
    def test_image_hits_least_zero(self):
        from punctual.pr_lang import TableProgram
        from punctual.reductions import check_reduction_prefix
        from punctual.sets import IdentityRelation, SetRelation

        g = TableProgram([2 * k + 1 for k in range(200)], "odd-walk")
        x = evens_set()
        assert check_reduction_prefix(g, IdentityRelation(), SetRelation(x),
                                      150) is None
        h = shift_top_certificate(g, x, 150)
        d = drop_least_zero(x)
        assert check_reduction_prefix(h, IdentityRelation(), SetRelation(d),
                                      h.horizon) is None
        assert h.value(0) == 3

    def test_image_misses_least_zero(self):
        from punctual.pr_lang import TableProgram
        from punctual.reductions import check_reduction_prefix
        from punctual.sets import IdentityRelation, SetRelation

        g = TableProgram([2 * k + 3 for k in range(100)], "odd-from-3")
        x = evens_set()
        h = shift_top_certificate(g, x, 99)
        assert [h.value(k) for k in range(5)] == [g.value(k) for k in range(5)]
        d = drop_least_zero(x)
        assert check_reduction_prefix(h, IdentityRelation(), SetRelation(d),
                                      99) is None


class TestEvidenceSerialization:
    def test_byte_identical_reports(self):
        d = drop_least_zero(evens_set())
        e = evens_set()
        cert = domination_certificate(d, e, 60)
        first = serialize_evidence(
            diamond_evidence_r(d, e, ID, (0, 20), cert), F6)
        second = serialize_evidence(
            diamond_evidence_r(d, e, ID, (0, 20), cert), F6)
        assert first == second
        assert first.startswith("kind\tr-principal\n")
        assert "family-hash\t" in first
        assert first.count("hit\t") == 21
