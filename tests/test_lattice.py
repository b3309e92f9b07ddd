import random

import pytest

from punctual.errors import CaseUndetermined, NotCertified
from punctual.lattice import (
    _monotonize,
    _profile_set,
    _reach,
    _smooth_profile,
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
from punctual.reductions import ReductionWitness, as_program, domination_certificate
from punctual.sets import drop_least_zero, evens_set, mod_set, prefix_set

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
        assert [x.bit(n) for n in range(10)] == [y.bit(n) for n in range(10)]
        assert all(x.principal_zero(n) == y.principal_zero(n) for n in range(7))


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
        qw, report = restrict_diamond_witness(m, m, m, m, None, None, 60,
                                              certificate=cert)
        # one hit per distinct count value reached at an outer equilibrium
        values = {m.zeros_by_steps(s) for s in range(61)}
        assert report.count >= len(values) - 1

    def test_dropped_subinterval(self):
        m = mod_set(3)
        d = drop_least_zero(m)
        cert = domination_certificate(d, m, 80)
        qw, report = restrict_diamond_witness(m, d, d, m, None, None, 80,
                                              certificate=cert)
        assert report.count >= 40

    def test_evidence_free_outer_pair(self):
        x = make_nondiamond_below(evens_set(), [ID], 6)
        cert = domination_certificate(x, evens_set(), 100)
        qw, report = restrict_diamond_witness(evens_set(), evens_set(), x, x,
                                              None, None, 100,
                                              certificate=cert)
        assert report.count <= 101


def steps_profile(x, horizon):
    return [x.zeros_by_steps(s) for s in range(horizon + 1)]


def first_stage(prof, j):
    """Definitional: scan from stage 0 for the first stage with count j."""
    return next((u for u in range(len(prof)) if prof[u] == j), None)


def definitional_restrict_q(x, x2, y2, y, horizon):
    """restrict_diamond_witness's q table with f and g found by rescans."""
    zx, zy, zx2, zy2 = (steps_profile(z, horizon) for z in (x, y, x2, y2))
    span = range(horizon + 1)
    f_vals = [next((u for u in span if zx2[u] == zx[t]), t) for t in span]
    g_vals = [next((u for u in span if zy[u] == zy2[t]), t) for t in span]
    eq_outer = [u for u in span if zx[u] == zy[u]]
    q_vals = []
    for t in span:
        bound = g_vals[t + 1] if t + 1 <= horizon else horizon + 1
        u = max((e for e in eq_outer if e < bound), default=None)
        q_vals.append(t if u is None else f_vals[u])
    return q_vals


def definitional_canonical(x, y, p, q, horizon, min_pairs=1):
    """canonical_diamond_witness's fields, each good stage list and first
    stage found by a scan from stage 0; CaseUndetermined as the exception."""
    p_vals, mono_p = _monotonize(as_program(p), horizon)
    q_vals, mono_q = _monotonize(as_program(q), horizon)
    zx, zy = steps_profile(x, horizon), steps_profile(y, horizon)
    span = range(horizon + 1)
    s_good = [s for s in span if p_vals[s] <= horizon and zx[s] == zy[p_vals[s]]]
    t_good = [t for t in span if q_vals[t] <= horizon and zy[t] == zx[q_vals[t]]]
    good_s = [s for s in s_good if any(zx[s] == zy[t] for t in t_good)]
    good_t = [t for t in t_good if any(zy[t] == zx[s] for s in s_good)]
    case1 = sorted({p_vals[s] for s in good_s if s <= p_vals[s] < horizon})
    case2 = sorted({q_vals[t] for t in good_t if t <= q_vals[t] < horizon})
    case3_s = [s for s in good_s if p_vals[s] < s]
    case3_t = [t for t in good_t if q_vals[t] < t]
    out = {"monotonized": mono_p or mono_q, "horizon": horizon, "certificates": {}}
    if any(p_vals[s] >= s for s in good_s) and len(case1) >= min_pairs:
        _, d = _smooth_profile(x, y, p_vals, horizon)
        x_star = _profile_set(f"{x.name}*", d)
        back = [min(2 * max(s, p_vals[s] + 1), horizon - 1) for s in span]
        cert_h = max((s for s in span if 2 * max(s, p_vals[s] + 1) <= horizon - 1),
                     default=0)
        ok = all(zx[s] <= d[back[s]] for s in range(cert_h + 1))
        out.update(case=1, x_star=x_star, y_star=y, good=case1, d_table=tuple(d))
        out["certificates"] = {
            "x_star<=x": domination_certificate(x_star, x, horizon - 1, "steps"),
            "x<=x_star": ReductionWitness(TableProgram(back, "back"), "growth-p",
                                          x.name, x_star.name, cert_h, "steps", ok)}
    elif any(q_vals[t] >= t for t in good_t) and len(case2) >= min_pairs:
        _, d = _smooth_profile(y, x, q_vals, horizon)
        y_star = _profile_set(f"{y.name}*", d)
        out.update(case=2, x_star=x, y_star=y_star, good=case2, d_table=tuple(d))
        out["certificates"] = {
            "y_star<=y": domination_certificate(y_star, y, horizon - 1, "steps")}
    elif case3_s and case3_t:
        stages = set()
        for s in case3_s:
            fx, fy = first_stage(zx, zx[s]), first_stage(zy, zx[s])
            if fx is not None and fy is not None and fx <= fy:
                stages.add(p_vals[s])
        for t in case3_t:
            fx, fy = first_stage(zx, zy[t]), first_stage(zy, zy[t])
            if fx is not None and fy is not None and fy <= fx:
                stages.add(q_vals[t])
        if len(stages) < min_pairs:
            return CaseUndetermined
        out.update(case=3, x_star=x, y_star=y, good=sorted(stages), d_table=None)
    else:
        return CaseUndetermined
    limit = horizon - 1 if out["d_table"] is not None else horizon
    eq = [s for s in range(limit + 1)
          if out["x_star"].zeros_by_steps(s) == out["y_star"].zeros_by_steps(s)]
    out["good_stage_count"] = len(out.pop("good"))
    out["equilibrium_count"] = len(eq)
    return out


def witness_fields(w):
    return (w.claim, w.source, w.target, w.horizon, w.convention, w.verified,
            w.program.values)


def assert_canonical_matches(x, y, p, q, horizon, min_pairs=1):
    want = definitional_canonical(x, y, p, q, horizon, min_pairs)
    if want is CaseUndetermined:
        with pytest.raises(CaseUndetermined):
            canonical_diamond_witness(x, y, p, q, horizon, min_pairs)
        return None
    w = canonical_diamond_witness(x, y, p, q, horizon, min_pairs)
    for name in ("case", "good_stage_count", "equilibrium_count", "monotonized",
                 "horizon", "d_table"):
        assert getattr(w, name) == want[name], name
    for got, ref in ((w.x_star, want["x_star"]), (w.y_star, want["y_star"])):
        assert got.name == ref.name
        assert steps_profile(got, horizon) == steps_profile(ref, horizon)
        assert got.prefix(horizon) == ref.prefix(horizon)
    assert {k: witness_fields(c) for k, c in w.certificates.items()} == \
        {k: witness_fields(c) for k, c in want["certificates"].items()}
    return w.case


def random_set(rng, name, length=60):
    bits = [rng.random() < 0.5 for _ in range(length)]
    costs = [rng.randint(1, 3) for _ in range(7)]
    return prefix_set(name, bits, cost_fn=lambda n: costs[n % 7])


def random_rate(rng, horizon):
    shift = rng.randint(-4, 4)
    return TableProgram([max(0, s + shift + rng.randint(-2, 2))
                         for s in range(horizon + 1)], "rate")


class TestFirstStageMaps:
    """The first-occurrence maps answer what the scans from stage 0 did."""

    def test_canonical_fixtures(self):
        x, y = evens_set(), drop_least_zero(evens_set())
        assert assert_canonical_matches(x, y, profile_match_table(x, y, 120),
                                        profile_match_table(y, x, 120), 120) == 1
        assert_canonical_matches(x, x, profile_match_table(x, x, 80),
                                 profile_match_table(x, x, 80), 80)
        assert_canonical_matches(evens_set(), mod_set(3), ID, ID, 100, 80) is None

    def test_canonical_random_pairs(self):
        rng = random.Random(20211)
        cases = set()
        for _ in range(60):
            horizon = rng.randint(20, 70)
            x, y = random_set(rng, "x"), random_set(rng, "y")
            cases.add(assert_canonical_matches(
                x, y, random_rate(rng, horizon), random_rate(rng, horizon),
                horizon, rng.randint(1, 3)))
        # every branch of the trichotomy, and the undetermined end, was taken
        assert cases == {1, 2, 3, None}

    @pytest.mark.parametrize("sets, horizon", [
        (lambda: (mod_set(3),) * 4, 60),
        (lambda: (mod_set(3), drop_least_zero(mod_set(3)),
                  drop_least_zero(mod_set(3)), mod_set(3)), 80),
        (lambda: (evens_set(), evens_set(),
                  make_nondiamond_below(evens_set(), [ID], 6),
                  make_nondiamond_below(evens_set(), [ID], 6)), 100),
    ])
    def test_restrict_fixtures(self, sets, horizon):
        x, x2, y2, y = sets()
        cert = domination_certificate(y2, x2, horizon)
        qw, _ = restrict_diamond_witness(x, x2, y2, y, None, None, horizon,
                                         certificate=cert)
        assert list(qw.values) == definitional_restrict_q(x, x2, y2, y, horizon)

    def test_restrict_random_profiles(self):
        rng = random.Random(7)
        for _ in range(40):
            horizon = rng.randint(10, 70)
            x, x2, y2, y = (random_set(rng, n) for n in ("x", "x2", "y2", "y"))
            cert = domination_certificate(x, x, horizon, "steps")
            qw, report = restrict_diamond_witness(x, x2, y2, y, None, None,
                                                  horizon, certificate=cert)
            want = definitional_restrict_q(x, x2, y2, y, horizon)
            assert list(qw.values) == want
            hits = [t for t in range(horizon + 1) if want[t] <= horizon
                    and y2.zeros_by_steps(t) == x2.zeros_by_steps(want[t])]
            assert list(report.hits) == hits


def quadratic_reach(zs, zt):
    """_smooth_profile's lower bound as the proof states it, rescanning
    every u <= w at each w."""
    out, reach = [], 0
    for w in range(len(zt)):
        reach = max(reach, max((zs[u] for u in range(w + 1) if zs[u] <= zt[w]),
                               default=0))
        out.append(reach)
    return out


def random_profile(rng, length):
    """Nondecreasing, climbing by at most one per stage, as profiles do."""
    out, z = [], rng.randint(0, 2)
    for _ in range(length):
        z += rng.random() < rng.choice((0.2, 0.5, 0.9))
        out.append(z)
    return out


def test_reach_matches_quadratic_scan():
    rng = random.Random(4080)
    for _ in range(200):
        n = rng.randint(1, 80)
        zs, zt = random_profile(rng, n), random_profile(rng, n)
        assert _reach(zs, zt) == quadratic_reach(zs, zt)
    # the smoothing fixture's own profiles
    x, y = evens_set(), drop_least_zero(evens_set())
    zs, zt = (list(s.profile(range(301), "steps")) for s in (x, y))
    assert _reach(zs, zt) == quadratic_reach(zs, zt)
    assert _reach(zt, zs) == quadratic_reach(zt, zs)


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
