"""Equilibrium points, diamond-interval evidence, and slow sets.

Everything here is desk-scale and horizon-qualified: an "infinitely many
stages" property from the order theory becomes "at least k distinct
witness stages below the horizon", and every verdict records the horizon,
the convention (index or step counts), and the threshold it was judged at.
No verdict claims the limit property.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, count, repeat
from operator import eq, le
from typing import Iterator, NamedTuple, Optional, Sequence

from ._text import digest, pair_lines
from .errors import CaseUndetermined, NotCertified
from .pr_lang import ClockedProgram, TableProgram, program_text
from .reductions import (
    ReductionWitness,
    as_program,
    domination_certificate,
    require_index_values,
)
from .sets import (
    DEFAULT_CEILING,
    PrSet,
    _Pattern,
    _ZeroListSet,
    _pattern_set,
    _running_max,
    drop_least_zero,
    evens_set,
    zero_list_set,
)


def family_hash(family: Sequence[ClockedProgram]) -> str:
    return digest(map(program_text, family))


# ---------------------------------------------------------------------------
# Equilibrium points


class EquilibriumReport(NamedTuple):
    convention: str
    horizon: int
    points: tuple

    @property
    def count(self) -> int:
        """The number of points; it hides ``tuple.count``."""
        return len(self.points)


def equilibrium_points(x: PrSet, y: PrSet, horizon: int,
                       convention: str = "index") -> EquilibriumReport:
    """All stages below the horizon where the two zero counts agree."""
    stages = range(horizon + 1)
    pts = compress(stages, map(eq, x.profile(stages, convention), y.profile(stages, convention)))
    return EquilibriumReport(convention, horizon, tuple(pts))


# ---------------------------------------------------------------------------
# Diamond evidence


class DiamondEvidence(NamedTuple):
    kind: str                  # q-stage | r-principal
    pair: tuple
    hits: tuple
    threshold: int
    verdict: str               # evidence(k) | no-evidence-at-horizon
    convention: str
    span: tuple                # (0, horizon) or the principal window
    relaxed: bool = False

    @property
    def count(self) -> int:
        """The number of hits; it hides ``tuple.count``."""
        return len(self.hits)


def _require_certificate(cert) -> None:
    if cert is None or not getattr(cert, "verified", False):
        raise NotCertified("operation needs a verified reducibility certificate")


def _evidence(kind, x, y, hits: tuple, k, convention, span, relaxed=False) -> DiamondEvidence:
    """The report on the hits: evidence(k) when there are at least k."""
    verdict = f"evidence({k})" if len(hits) >= k else "no-evidence-at-horizon"
    return DiamondEvidence(kind, (x.name, y.name), hits, k, verdict, convention, span, relaxed)


def diamond_evidence_q(x: PrSet, y: PrSet, q, horizon: int, k: int,
                       certificate: ReductionWitness, *,
                       convention: str = "steps",
                       relaxed: bool = False) -> DiamondEvidence:
    """Stages t where the target's zero count reappears in the source at q(t).

    With ``relaxed`` the equality is weakened to <=, which certifies the
    same property for comparable pairs.
    """
    _require_certificate(certificate)
    prog = as_program(q)
    stages = range(horizon + 1)
    images = prog.values_at(stages)
    if convention == "index":
        require_index_values(images)
    zy = y.profile(stages, convention)
    zx = x.profile(images, convention)
    hits = tuple(compress(stages, map(le if relaxed else eq, zy, zx)))
    return _evidence("q-stage", x, y, hits, k, convention, (0, horizon), relaxed)


def diamond_evidence_r(x: PrSet, y: PrSet, r, window: tuple,
                       certificate: ReductionWitness, *,
                       k: int = 1,
                       ceiling: int = DEFAULT_CEILING) -> DiamondEvidence:
    """Indices n where the source's n-th zero is caught by r at the target's
    next zero: principal(x, n) <= r(principal(y, n + 1)).  Each index reads
    x's zero, then y's, then r, so a failure raises where it would with one
    ``principal_zero`` call per zero."""
    _require_certificate(certificate)
    prog = as_program(r)
    n0, n1 = window
    xs, ys = _principal_zeros(x, n0, ceiling), _principal_zeros(y, n0 + 1, ceiling)
    hits = tuple(n for n in range(n0, n1 + 1) if next(xs) <= prog.value(next(ys)))
    return _evidence("r-principal", x, y, hits, k, "principal", (n0, n1))


def _principal_zeros(s: PrSet, first: int, ceiling: int) -> Iterator[int]:
    """``s.principal_zero(n, ceiling)`` for n = first, first + 1, ... in
    turn, read lazily: one ``fresh_zeros`` pass, which grows the memo as one
    call per n grows it, then one call per n from where the pass stopped,
    so a zero past the ceiling raises as that call raises.  A zero-list set,
    which answers past any ceiling, and a first rank below 0 read one call
    per n throughout."""
    n = first
    if first >= 0 and not isinstance(s, _ZeroListSet):
        # n ends at the first rank the pass did not yield
        for n, pos in enumerate(s.fresh_zeros(repeat(ceiling), first + 1), first + 1):
            yield pos
    yield from map(s.principal_zero, count(n), repeat(ceiling))


# ---------------------------------------------------------------------------
# Canonical witnesses (the profile-smoothing construction)


class CanonicalWitness(NamedTuple):
    x_star: PrSet
    y_star: PrSet
    case: int
    good_stage_count: int
    equilibrium_count: int
    certificates: dict
    monotonized: bool
    horizon: int
    d_table: Optional[tuple] = None


def _monotonize(prog: ClockedProgram, horizon: int) -> tuple[list[int], bool]:
    """The running maximum of prog's values from 0, and whether it differs
    from them: it does where a value falls below the maximum before it."""
    raw = list(prog.values_at(range(horizon + 1)))
    vals = _running_max(raw)
    return vals, vals != raw


def _smooth_profile(src: PrSet, tgt: PrSet, p_vals: list[int], horizon: int):
    """The proof's first case: cap-and-climb profile for the source set.

    c(w) is the largest u <= w whose source count is within the target count
    at w or whose p-value undershoots w; d climbs by at most one per stage
    toward the count at c(w).
    """
    zs = list(src.profile(range(horizon + 1), "steps"))
    zt = list(tgt.profile(range(horizon + 1), "steps"))
    c = []
    for w in range(horizon + 1):
        u = c[-1] if c else 0
        for cand in range(u, w + 1):
            if zs[cand] <= zt[w] or (cand < len(p_vals) and p_vals[cand] < w):
                u = cand
        c.append(u)
    d = list(accumulate(map(zs.__getitem__, c), lambda prev, cap: min(prev + 1, cap)))
    # the proof's lower-bound claim, asserted outright
    for w, r in enumerate(_reach(zs, zt)):
        if d[w] < r:
            raise AssertionError(f"smoothed profile undershoots its claim at w={w}")
    return c, d


def _reach(zs: list[int], zt: list[int]) -> list[int]:
    """For each w, the running max of zs[u] over u <= w with zs[u] <= zt[w];
    zs is a profile, so nondecreasing, and bisection finds the largest u."""
    out, reach = [], 0
    for w, t in enumerate(zt):
        u = min(w, bisect_right(zs, t) - 1)
        if u >= 0:
            reach = max(reach, zs[u])
        out.append(reach)
    return out


def _first_stages(profile: list[int]) -> dict:
    """The least stage with each count of a profile."""
    return dict(zip(reversed(profile), reversed(range(len(profile)))))


def _profile_set(name: str, d: list[int]) -> PrSet:
    bits = [1 if d[m + 1] == d[m] else 0 for m in range(len(d) - 1)]
    return _pattern_set(name, _Pattern(tuple(bits), (1, 0)), None)


def canonical_diamond_witness(x: PrSet, y: PrSet, p, q, horizon: int,
                              min_pairs: int = 1) -> CanonicalWitness:
    """Replace a comparable pair by one with literal equilibrium points.

    Implements the good-pair trichotomy: when the p-side has enough pairs
    with p(s) >= s we smooth the source profile, symmetrically for the
    q-side, and when both rates undershoot, the pair already has literal
    equilibria.  Raises CaseUndetermined when no case has min_pairs
    witnesses at the horizon.
    """
    p_vals, mono_p = _monotonize(as_program(p), horizon)
    q_vals, mono_q = _monotonize(as_program(q), horizon)
    zx = list(x.profile(range(horizon + 1), "steps"))
    zy = list(y.profile(range(horizon + 1), "steps"))
    s_good = [s for s in range(horizon + 1)
              if p_vals[s] <= horizon and zx[s] == zy[p_vals[s]]]
    t_good = [t for t in range(horizon + 1)
              if q_vals[t] <= horizon and zy[t] == zx[q_vals[t]]]
    s_counts, t_counts = {zx[s] for s in s_good}, {zy[t] for t in t_good}
    good_s = [s for s in s_good if zx[s] in t_counts]
    good_t = [t for t in t_good if zy[t] in s_counts]

    case1_s = [s for s in good_s if p_vals[s] >= s]
    case2_t = [t for t in good_t if q_vals[t] >= t]
    case3_s = [s for s in good_s if p_vals[s] < s]
    case3_t = [t for t in good_t if q_vals[t] < t]

    stages1 = sorted({p_vals[s] for s in case1_s if p_vals[s] < horizon})
    stages2 = sorted({q_vals[t] for t in case2_t if q_vals[t] < horizon})
    certificates = {}
    if case1_s and len(stages1) >= min_pairs:
        case = 1
        _, d = _smooth_profile(x, y, p_vals, horizon)
        x_star = _profile_set(f"{x.name}*", d)
        y_star = y
        good_stages = stages1
        d_table = tuple(d)
        certificates["x_star<=x"] = domination_certificate(x_star, x, horizon - 1, "steps")
        back = [min(2 * max(s, p_vals[s] + 1), horizon - 1) for s in range(horizon + 1)]
        cert_h = max((s for s in range(horizon + 1)
                      if 2 * max(s, p_vals[s] + 1) <= horizon - 1), default=0)
        ok = all(zx[s] <= d[back[s]] for s in range(cert_h + 1))
        w = ReductionWitness(TableProgram(back, "back"), "growth-p", x.name,
                             x_star.name, cert_h, "steps", ok)
        certificates["x<=x_star"] = w
    elif case2_t and len(stages2) >= min_pairs:
        case = 2
        _, d = _smooth_profile(y, x, q_vals, horizon)
        y_star = _profile_set(f"{y.name}*", d)
        x_star = x
        good_stages = stages2
        d_table = tuple(d)
        certificates["y_star<=y"] = domination_certificate(y_star, y, horizon - 1, "steps")
    elif case3_s and case3_t:
        case = 3
        x_star, y_star = x, y
        first_x, first_y = _first_stages(zx), _first_stages(zy)
        stages = set()
        for s in case3_s:
            fx, fy = first_x.get(zx[s]), first_y.get(zx[s])
            if fx is not None and fy is not None and fx <= fy:
                stages.add(p_vals[s])
        for t in case3_t:
            fx, fy = first_x.get(zy[t]), first_y.get(zy[t])
            if fx is not None and fy is not None and fy <= fx:
                stages.add(q_vals[t])
        good_stages = sorted(stages)
        d_table = None
        if len(good_stages) < min_pairs:
            raise CaseUndetermined(
                f"undershooting good pairs yield only {len(good_stages)} "
                f"equilibrium stages at horizon {horizon}")
    else:
        raise CaseUndetermined(
            f"no case of the good-pair trichotomy has {min_pairs} witnesses "
            f"at horizon {horizon}")

    limit = horizon - 1 if d_table is not None else horizon
    eq = equilibrium_points(x_star, y_star, limit, "steps")
    return CanonicalWitness(x_star, y_star, case, len(good_stages), eq.count,
                            certificates, mono_p or mono_q, horizon, d_table)


def restrict_diamond_witness(x: PrSet, x2: PrSet, y2: PrSet, y: PrSet,
                             horizon: int, certificate: ReductionWitness) -> tuple:
    """Push diamond evidence for an outer pair into a subinterval.

    The outer pair must have literal equilibrium stages (smooth it first if
    not); f and g are the least stage-matching maps between the profiles.
    Returns the new q table and its evidence report.
    """
    _require_certificate(certificate)
    zx, zy, zx2, zy2 = (list(z.profile(range(horizon + 1), "steps"))
                        for z in (x, y, x2, y2))
    f_vals = list(map(_first_stages(zx2).get, zx, range(horizon + 1)))
    g_vals = list(map(_first_stages(zy).get, zy2, range(horizon + 1)))

    eq_outer = list(compress(range(horizon + 1), map(eq, zx, zy)))
    q_vals = []
    for t in range(horizon + 1):
        bound = g_vals[t + 1] if t + 1 <= horizon else horizon + 1
        i = bisect_left(eq_outer, bound)     # eq_outer[i - 1] is the last below
        q_vals.append(f_vals[eq_outer[i - 1]] if i else t)
    qw = TableProgram(q_vals, "restricted-q")
    inner_cert = ReductionWitness(qw, "growth-p", x2.name, y2.name, horizon, "steps", True)
    return qw, diamond_evidence_q(x2, y2, qw, horizon, 1, inner_cert)


# ---------------------------------------------------------------------------
# Slow sets and anti-diamond constructions


class SlownessCertificate(NamedTuple):
    set_name: str
    family: tuple
    window: tuple
    verdicts: tuple            # ((member, n, holds), ...)

    @property
    def slow_on_window(self) -> bool:
        return all(h for _, _, h in self.verdicts)


def make_slow_set(family: Sequence[ClockedProgram], window_length: int) -> PrSet:
    """Set whose zero gaps outgrow every family member on the window.

    One zero per diagonal block: the next zero clears every member's value
    at the previous zero, so the certificate holds at every index, not just
    the window.  With an empty family any coinfinite set qualifies.
    """
    if not family:
        return evens_set()
    members = list(family)

    def next_zero(zs):
        if not zs:
            return 2
        prev = zs[-1]
        return max(prev + 2, max(r.value(prev) for r in members) + 1)

    h = family_hash(members)
    s = zero_list_set(f"slow[{h}]", next_zero)
    s.principal_zero(window_length + 1)
    return s


def check_slowness(x: PrSet, family: Sequence[ClockedProgram],
                   window: tuple) -> SlownessCertificate:
    """Recompute the slowness verdicts on a window, member by member."""
    n0, n1 = window
    verdicts = [(r.name, n, x.principal_zero(n + 1) > r.value(x.principal_zero(n)))
                for r in family for n in range(n0, n1 + 1)]
    return SlownessCertificate(x.name, tuple(program_text(r) for r in family),
                               window, tuple(verdicts))


def make_nondiamond_below(y: PrSet, family: Sequence[ClockedProgram],
                          window_length: int) -> PrSet:
    """A set reducible to y whose zeros dodge every family rate on the window.

    The n-th zero clears both the n-th zero of y (profile domination, hence
    reducibility) and every member's value at y's next zero (anti-evidence
    in the principal-function form).
    """
    if not family:
        return zero_list_set(f"below[{y.name}]",
                             lambda zs: y.principal_zero(len(zs)))
    members = list(family)

    def next_zero(zs):
        n = len(zs)
        floor = y.principal_zero(n)
        prev = zs[-1] if zs else 0
        anti = 0
        if n < window_length:
            nxt = y.principal_zero(n + 1)
            anti = max(r.value(nxt) for r in members) + 1
        return max(floor, prev + 2, anti)

    h = family_hash(members)
    s = zero_list_set(f"nondiamond[{y.name};{h}]", next_zero)
    s.principal_zero(window_length)
    return s


# ---------------------------------------------------------------------------
# Drop-one bounds


class DropBoundVerdict(NamedTuple):
    pair: tuple
    horizon: int
    diamond_side_stages: tuple     # stages with target count >= source count
    reduction_side: bool           # pointwise bound under the dropped set
    first_reduction_violation: Optional[int]


def x1_bound_check(x: PrSet, y: PrSet, horizon: int,
                   certificate: ReductionWitness) -> DropBoundVerdict:
    """Which disjunct holds below the horizon: stage evidence for the diamond
    side, or pointwise domination under the set with its least zero dropped."""
    _require_certificate(certificate)
    span = range(horizon + 1)
    # zip reads the columns stage by stage: a generator fails where per-stage reads do
    rows = list(zip(*(z.profile(span, "steps") for z in (y, x, drop_least_zero(x)))))
    stages = tuple(compress(span, (zy >= zx for zy, zx, _ in rows)))
    violation = next(compress(span, (zy > zd for zy, _, zd in rows)), None)
    return DropBoundVerdict((x.name, y.name), horizon, stages, violation is None, violation)


def shift_top_certificate(g, x: PrSet, horizon: int):
    """Rebase an identity-into-set certificate under the dropped set.

    Given a program carrying the identity relation into the relation of x,
    skip past the input whose image is x's least zero; the tail works for
    the set with that zero flipped to membership.
    """
    prog = as_program(g)
    z0 = x.principal_zero(0)
    hit = next((m for m in range(horizon + 1) if prog.value(m) == z0), None)
    table = prog.values_at(range(0 if hit is None else hit + 1, horizon + 1))
    return ReductionWitness(TableProgram(table, "shifted"), "reduction",
                            "Id", f"{x.name}^[-1]", len(table) - 1, "index")


def serialize_evidence(ev: DiamondEvidence, family=()) -> str:
    """Line-oriented evidence report; a replayed run reproduces it exactly."""
    head = pair_lines([
        ("kind", ev.kind), ("pair", f"{ev.pair[0]}\t{ev.pair[1]}"),
        ("convention", ev.convention), ("span", f"{ev.span[0]}\t{ev.span[1]}"),
        ("threshold", ev.threshold), ("relaxed", int(ev.relaxed)),
        ("family-hash", family_hash(family) if family else "-"), ("verdict", ev.verdict)])
    return head + "---\n" + pair_lines(("hit", h) for h in ev.hits)


def anti_reduction_evidence(x: PrSet, y: PrSet,
                            family: Sequence[ClockedProgram],
                            bound: int) -> dict:
    """Per member, the least stage where x's step count escapes y through it.

    This is the caller-side premise for the separator construction; raises
    NotCertified when some member shows no escape below the bound.
    """
    out = {}
    for p in family:
        found = next((s for s in range(bound + 1)
                      if x.zeros_by_steps(s) > y.zeros_by_steps(p.value(s))), None)
        if found is None:
            raise NotCertified(
                f"no stage below {bound} where {x.name} escapes {y.name} via {p.name}")
        out[p.name] = found
    return out
