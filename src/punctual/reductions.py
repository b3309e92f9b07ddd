"""Reduction witnesses, counterexample detectors, and growth-rate calculus.

A reduction between induced relations is witnessed by a clocked total unary
program together with the claim it makes.  Verification is always against a
stated finite horizon; no verdict extrapolates beyond it.

The three detectors decide, from a stage bound and the decided prefixes,
whether a program permanently violates a reduction claim.  Each fires on
the least pair (l, m) in lexicographic order whose decided data
contradicts the claimed biconditional; because prefixes only extend and
clocked convergence is monotone, a fired pair stays fired forever.
"""

from __future__ import annotations

import io
from itertools import accumulate, compress, count
from operator import gt, lt, mul, not_
from typing import NamedTuple, Optional, Sequence, Union

from ._text import columns, decimals, integers, pair_lines, pairs, read_text, rows
from .errors import (
    CeilingExceeded,
    NotAReduction,
    NotCertified,
    ParseError,
    PreconditionFailed,
    WitnessBoundViolated,
)
from .pr_lang import ClockedProgram, FloorTableProgram, TableProgram, TermProgram
from .sets import DEFAULT_CEILING, IdentityRelation, Prefix, PrSet, Relation, SetRelation


class ReductionWitness:
    """A clocked program plus the certificate kind it claims."""

    def __init__(self, program: ClockedProgram, claim: str, source: str, target: str,
                 horizon: int, convention: str = "index", verified: bool = False):
        self.program = program
        self.claim = claim  # reduction | growth-h | growth-p | rate-r
        self.source = source
        self.target = target
        self.horizon = horizon
        self.convention = convention
        self.verified = verified

    def value(self, x: int) -> int:
        return self.program.value(x)


class Counterexample(NamedTuple):
    flavor: str                # R_to_RY | RY_to_R | RX_to_RY | reduction
    l: int
    m: int
    stage: int
    left: bool                 # the two sides of the fired biconditional
    right: bool
    images: Optional[tuple] = None
    member: Optional[str] = None

    def describe(self) -> str:
        img = f" images={self.images}" if self.images else ""
        return (f"{self.flavor} l={self.l} m={self.m} stage={self.stage}"
                f" left={int(self.left)} right={int(self.right)}{img}")


Witnessable = Union[ReductionWitness, ClockedProgram, Sequence[int]]


def as_program(f: Witnessable) -> ClockedProgram:
    if isinstance(f, ReductionWitness):
        return f.program
    if isinstance(f, ClockedProgram):
        return f
    if isinstance(f, (list, tuple)):
        return TableProgram(f)
    raise TypeError(f"not a program or witness: {f!r}")


def _classes(rel: Relation, points: Sequence[int], out: list) -> list:
    """Append each point's class to out and return it: -1 for the members
    of a set relation, else the least related element.  A set relation
    reads its carrier once, up to the largest point."""
    if isinstance(rel, IdentityRelation):
        out += points
    elif isinstance(rel, SetRelation):
        bits = rel.carrier.prefix(max(points, default=-1)).bits
        out += [-1 if bits[p] else p for p in points]
    else:
        reps: dict[int, int] = {}

        def rep(v):
            hit = reps.get(v)
            if hit is None:
                hit = reps[v] = next((u for u in range(v + 1) if rel.related(u, v)), v)
            return hit

        out.extend(map(rep, points))
    return out


def require_index_values(values: list) -> None:
    """Raise CeilingExceeded at the first value past DEFAULT_CEILING: read as
    a bit index, such a value would materialise the set that far."""
    if max(values, default=0) > DEFAULT_CEILING:
        x = next(x for x, v in enumerate(values) if v > DEFAULT_CEILING)
        raise CeilingExceeded(
            f"witness maps {x} to {values[x]}, past the index ceiling {DEFAULT_CEILING}")


def _one_to_one(classes: list, images: list) -> bool:
    """The classes of 0..k-1 and of their images correspond one to one."""
    images = images[:len(classes)]
    return len(set(zip(classes, images))) == len(set(classes)) == len(set(images))


def check_reduction_prefix(f: Witnessable, source: Relation, target: Relation,
                           n: int) -> Optional[Counterexample]:
    """Verify x ~ y iff f(x) ~ f(y) on all pairs below n.

    Returns None when the claim holds, else the lexicographically least
    violating pair.  The fast path checks that the classes of 0..n and of
    their images correspond one to one, for a set source from its bits read
    once (members on one image class, non-members on distinct others); only
    on failure does it rescan for the least pair.
    """
    prog = as_program(f)
    values = prog.values_at(range(n + 1))
    if min(values, default=0) < 0:
        x = next(x for x, v in enumerate(values) if v < 0)
        raise PreconditionFailed(f"witness maps {x} to {values[x]}, not a natural number")
    if not isinstance(target, IdentityRelation):
        require_index_values(values)
    images = _classes(target, values, [])
    classes: list = []
    try:
        if isinstance(source, SetRelation):
            bits = source.carrier.prefix(max(n, -1)).bits
            members, rest = set(compress(images, bits)), list(compress(images, map(not_, bits)))
            holds = len(members) < 2 and len(members.union(rest)) == len(members) + len(rest)
        else:
            holds = _one_to_one(_classes(source, range(n + 1), classes), images)
    except Exception:
        # an upward check stops at its first class clash, so a source that
        # fails at element k raises only when 0..k-1 is clean
        if isinstance(source, SetRelation):
            _classes(source, range(source.carrier.decided), classes)
        if _one_to_one(classes, images):
            raise
    else:
        if holds:
            return None
    for l in range(n + 1):
        for m in range(n + 1):
            if l == m:
                continue
            left = source.related(l, m)
            right = target.related(values[l], values[m])
            if left != right:
                return Counterexample("reduction", l, m, n, left, right,
                                      (values[l], values[m]))
    return None


def require_reduction(f: Witnessable, source: Relation, target: Relation,
                      n: int) -> None:
    cex = check_reduction_prefix(f, source, target, n)
    if cex is not None:
        raise NotAReduction(f"not a reduction on 0..{n}: {cex.describe()}")


# ---------------------------------------------------------------------------
# Stage detectors.  All three fire exactly when the decided data contradicts
# the claimed biconditional; eligibility needs converged images inside the
# decided prefixes, which makes every hit permanent.
#
# A side of a claim is either a relation or a decided prefix (any indexable
# bit sequence).  A prefix source bounds the inputs examined, a prefix
# target bounds the images; a relation bounds neither.


def images_split(sigma: Prefix, a: int, b: int) -> bool:
    """True iff positions a, b are provably inequivalent in any extension."""
    return (sigma[a] != sigma[b]) or (a != b and sigma[a] == 0 and sigma[b] == 0)


def _pair_R_to_RY(source, sigma_y, l, m, vl, vm):
    return source.related(l, m), images_split(sigma_y, vl, vm)


def _pair_RY_to_R(sigma_y, target, l, m, vl, vm):
    return sigma_y[l] == 1 and sigma_y[m] == 1, not target.related(vl, vm)


def _pair_RX_to_RY(sigma_x, sigma_y, l, m, vl, vm):
    return sigma_x[l] == 1 and sigma_x[m] == 1, images_split(sigma_y, vl, vm)


# one pair predicate per flavour: (source, target, l, m, f(l), f(m)) ->
# (left, right); the pair violates the claim when left == right
_PAIR_PREDICATES = {"R_to_RY": _pair_R_to_RY, "RY_to_R": _pair_RY_to_R,
                   "RX_to_RY": _pair_RX_to_RY}


def _least_violation(flavor: str, p: ClockedProgram, source, target, s: int,
                    member: str | None = None) -> Optional[Counterexample]:
    """Definitional scan: the least pair whose decided data fires at s."""
    domain = s + 1 if isinstance(source, Relation) else len(source)
    images = None if isinstance(target, Relation) else len(target)
    conv = {}
    if isinstance(p, TermProgram):      # value and cost from one run per point
        for x, (v, c) in enumerate(map(p._run, range(domain))):
            if c < s and (images is None or v < images):
                conv[x] = v
    else:
        for x in range(domain):
            v = p.converges_within(x, s)
            if v is not None and (images is None or v < images):
                conv[x] = v
    pair = _PAIR_PREDICATES[flavor]
    for l, vl in conv.items():
        for m, vm in conv.items():
            if m != l:
                left, right = pair(source, target, l, m, vl, vm)
                if left == right:
                    return Counterexample(flavor, l, m, s, left, right,
                                          (vl, vm), member)
    return None


def detect_counterexample_R_to_RY(p: ClockedProgram, source: Relation,
                                  sigma_y: Prefix, s: int) -> Optional[Counterexample]:
    """Permanent violation of `p reduces the source relation to R_Y`."""
    return _least_violation("R_to_RY", p, source, sigma_y, s)


def detect_counterexample_RY_to_R(p: ClockedProgram, sigma_y: Prefix,
                                  target: Relation, s: int) -> Optional[Counterexample]:
    """Permanent violation of `p reduces R_Y to the target relation`."""
    return _least_violation("RY_to_R", p, sigma_y, target, s)


def detect_counterexample_RX_to_RY(p: ClockedProgram, sigma_x: Prefix,
                                   sigma_y: Prefix, s: int) -> Optional[Counterexample]:
    """Permanent violation of `p reduces R_X to R_Y`, both sets by prefix."""
    return _least_violation("RX_to_RY", p, sigma_x, sigma_y, s)


def _still_violates(cex: Counterexample, p: ClockedProgram, source, target) -> bool:
    """revalidate_counterexample with the claim's two sides given directly."""
    l, m, s = cex.l, cex.m, cex.stage
    vl = p.converges_within(l, s)
    vm = p.converges_within(m, s)
    if vl is None or vm is None:
        return False
    if not isinstance(source, Relation) and max(l, m) >= len(source):
        return False
    if not isinstance(target, Relation) and max(vl, vm) >= len(target):
        return False
    left, right = _PAIR_PREDICATES[cex.flavor](source, target, l, m, vl, vm)
    return left == right


def revalidate_counterexample(cex: Counterexample, p: ClockedProgram, *,
                              source: Relation | None = None,
                              sigma_x: Prefix | None = None,
                              sigma_y: Prefix | None = None,
                              target: Relation | None = None) -> bool:
    """Re-derive the fired condition for the recorded pair on final data."""
    sides = {"R_to_RY": (source, sigma_y), "RY_to_R": (sigma_y, target),
             "RX_to_RY": (sigma_x, sigma_y)}
    if cex.flavor not in sides:
        raise ValueError(f"unknown flavor {cex.flavor}")
    return _still_violates(cex, p, *sides[cex.flavor])


# ---------------------------------------------------------------------------
# Growth-rate calculus (index convention)


def _massage_for_growth(f: Witnessable, x: PrSet, y: PrSet, horizon: int) -> ClockedProgram:
    """Verified, class-respecting, nondecreasing-on-complement form of f."""
    prog = as_program(f)
    require_reduction(prog, SetRelation(x), SetRelation(y), horizon)
    values = prog.values_at(range(horizon + 1))
    xbits, ybits = x.prefix(horizon).bits, y.prefix(max(values, default=-1)).bits
    comp = list(compress(values, map(not_, xbits)))
    if all(map(ybits.__getitem__, compress(values, xbits))) and all(map(lt, comp, comp[1:])):
        return prog
    # surjectivize rewrites to the normal form itself
    return _surjectivize_checked(prog, x, y, horizon).program


def synth_h_from_reduction(f: Witnessable, x: PrSet, y: PrSet,
                           horizon: int) -> ReductionWitness:
    """Growth bound from a reduction: count of zeros transfers at rate h.

    h(s) is the image of the greatest zero of x below s, or 0 when x has no
    zero there; then zeros_by_index(x, s) <= zeros_by_index(y, h(s)).
    """
    prog = _massage_for_growth(f, x, y, horizon)
    # prog rises on the zeros of x: the greatest zero's image is their maximum
    stages = range(horizon + 1)
    zero_images = map(mul, prog.values_at(stages), map(not_, x.prefix(horizon).bits))
    table = list(accumulate(zero_images, max))
    for s, a, b in zip(stages, x.profile(stages), y.profile(table)):
        if a > b:
            raise NotAReduction(
                f"growth synthesis failed its own bound at s={s}")
    return ReductionWitness(TableProgram(table, "h"), "growth-h",
                            x.name, y.name, horizon, "index", True)


def _fresh_pick_table(xbits: Sequence[int], y: PrSet, ceiling, member: int) -> list:
    """Members (bit 1) to `member`, the j-th zero v of x to the j-th zero of y
    while it is at most ceiling.value(v), up to the first zero of x without one.
    The picks are y's memo zeros then a ``fresh_zeros`` pass, or, if a
    ceiling raises, one ``fresh_zeros`` pass that reads the ceilings lazily."""
    zeros = list(compress(count(), map(not_, xbits)))
    try:
        ceilings = ceiling.values_at(zeros)
    except Exception:
        picks = list(y.fresh_zeros(map(ceiling.value, zeros)))
    else:
        top = min(y.decided - 1, max(ceilings, default=-1))
        held = list(compress(count(), map(not_, y.prefix(max(top, -1)).bits)))
        picks = held[:next(compress(count(), map(gt, held, ceilings)), len(ceilings))]
        if len(picks) == len(held):
            picks += y.fresh_zeros(ceilings[len(picks):], len(picks) + 1)
    table = [member] * (zeros[len(picks)] if len(picks) < len(zeros) else len(xbits))
    for v, pick in zip(zeros, picks):
        table[v] = pick
    return table


def synth_reduction_from_h(x: PrSet, y: PrSet, h: Witnessable,
                           horizon: int) -> ReductionWitness:
    """Reduction from a growth bound: zero v of x takes the least fresh zero
    of y up to h(v).  The picks are the zeros of y in order, found in one
    pass that reads y's memo on from the last pick.  If bit k of x fails,
    the zeros below k still take their picks first, as in an upward scan."""
    if y.bit(0) != 1:
        raise PreconditionFailed("growth-to-reduction synthesis needs 0 in the target set")
    hp = as_program(h)
    x.read_ahead(horizon)
    y.read_ahead(horizon)
    try:
        xbits, failure = x.prefix(horizon).bits, None
    except Exception as exc:
        xbits, failure = x.prefix(x.decided - 1).bits, exc
    table = _fresh_pick_table(xbits, y, hp, 0)
    if len(table) < len(xbits):
        v = len(table)
        raise WitnessBoundViolated(
            f"mu-search under h({v})={hp.value(v)} found no fresh zero of {y.name}")
    if failure is not None:
        raise failure
    w = ReductionWitness(TableProgram(table, "g"), "reduction",
                         x.name, y.name, horizon, "index")
    require_reduction(w, SetRelation(x), SetRelation(y), horizon)
    w.verified = True
    return w


# Step-count convention


def synth_p_from_reduction(f: Witnessable, x: PrSet, y: PrSet,
                           horizon: int) -> ReductionWitness:
    """Step-rate bound: zeros seen of x in s steps appear in y by p(s) steps.

    p(s) is the first stage past s by which the target generator has decided
    every bit up to the running maximum of f; only bits the source generator
    can reveal within the step horizon matter, so the running maximum
    freezes at that index range and f need not extend past it.
    """
    if x.decided < 2 or x.cum_cost(x.decided - 1) <= horizon:
        x.cum_cost(max(1, x.decided))   # the growth of the first read past the memo
    reach = x.bits_within(horizon)
    k_max = max(reach - 1, 0)
    prog = _massage_for_growth(f, x, y, k_max)
    running = list(accumulate(prog.values_at(range(k_max + 1)), max))
    costs = list(y.cum_costs(running))
    prefix = list(map(max, range(1, k_max + 2), costs))
    # past k_max every entry is max(s + 1, c)
    table = FloorTableProgram(prefix, costs[-1], horizon, "p")
    # the left side only changes where the source reveals a bit, and the
    # right side is nondecreasing, so boundary checks cover every stage
    boundaries = [0, *x.cum_costs(range(reach))]
    budgets = table.values_at(boundaries)
    for s, a, b in zip(boundaries, x.profile(boundaries, "steps"),
                       y.profile(budgets, "steps")):
        if a > b:
            raise NotAReduction(f"step-rate synthesis failed its own bound at s={s}")
    return ReductionWitness(table, "growth-p", x.name, y.name, horizon, "steps", True)


def synth_reduction_from_p(x: PrSet, y: PrSet, p: Witnessable,
                           horizon: int) -> ReductionWitness:
    """Reduction from a step-rate bound via the index-convention synthesis.

    h(m) = p(cost of deciding bits 0..m of x); the p table must cover that
    cost at the horizon.
    """
    pp = as_program(p)
    table = pp.values_at(x.cum_costs(range(horizon + 1)))
    w = synth_reduction_from_h(x, y, TableProgram(table, "h-from-p"), horizon)
    w.convention = "steps"
    return w


# ---------------------------------------------------------------------------
# Witness massaging


# The rewrites verify every input they take from a caller and every table
# they return, each once, on 0..horizon.  Tables passed between the steps of
# one rewrite are not re-verified: the private helpers below take a program
# already verified on 0..horizon.


def _least_member(y: PrSet, horizon: int) -> int:
    """The least member of y in 0..horizon; PreconditionFailed if none."""
    y0 = next((n for n in range(horizon + 1) if y.bit(n) == 1), None)
    if y0 is None:
        raise PreconditionFailed(f"{y.name} has no member below the horizon")
    return y0


def _respect_table(prog: ClockedProgram, x: PrSet, y: PrSet,
                   horizon: int) -> Sequence[int]:
    """respect_normal_form's table for a program verified on 0..horizon."""
    values = prog.values_at(range(horizon + 1))
    xbits, ybits = x.prefix(horizon).bits, y.prefix(max(values, default=-1)).bits
    stray = [v for v, b in zip(values, xbits) if b and not ybits[v]]
    if not stray:
        return values
    a, y0 = stray[0], _least_member(y, horizon)
    return [y0 if b else a if ybits[v] else v for v, b in zip(values, xbits)]


def respect_normal_form(f: Witnessable, x: PrSet, y: PrSet,
                        horizon: int) -> ReductionWitness:
    """Rewrite a verified reduction so members of x land inside y."""
    prog = as_program(f)
    rx, ry = SetRelation(x), SetRelation(y)
    require_reduction(prog, rx, ry, horizon)
    table = _respect_table(prog, x, y, horizon)
    w = ReductionWitness(TableProgram(table, "respect"), "reduction",
                         x.name, y.name, horizon, "index")
    require_reduction(w, rx, ry, horizon)
    ybits = y.prefix(max(table, default=-1)).bits
    if not all(ybits[v] for v, b in zip(table, x.prefix(horizon).bits) if b):
        raise NotAReduction("normal-form respecting rewrite failed")
    w.verified = True
    return w


def surjectivize(f: Witnessable, x: PrSet, y: PrSet,
                 horizon: int) -> ReductionWitness:
    """Rewrite a reduction to hit fresh target classes in order of magnitude.

    Output maps members of x to the least member of y and walks the
    complement of y injectively under the bound max{f(i) : i <= x}; it is
    strictly increasing on the complement of x.  The picks are the zeros of
    y in order, found in one pass that reads y's memo on from the last pick.
    """
    prog = as_program(f)
    require_reduction(prog, SetRelation(x), SetRelation(y), horizon)
    return _surjectivize_checked(prog, x, y, horizon)


def _surjectivize_checked(prog: ClockedProgram, x: PrSet, y: PrSet,
                          horizon: int) -> ReductionWitness:
    """surjectivize for a program verified on 0..horizon."""
    running = list(accumulate(_respect_table(prog, x, y, horizon), max))
    xbits = x.prefix(horizon).bits
    table = _fresh_pick_table(xbits, y, TableProgram(running), _least_member(y, horizon))
    if len(table) < len(xbits):
        raise NotAReduction(f"mu-search under max f on 0..{len(table)} "
                            f"found no fresh zero of {y.name}")
    out = ReductionWitness(TableProgram(table, "onto"), "reduction",
                           x.name, y.name, horizon, "index")
    require_reduction(out, SetRelation(x), SetRelation(y), horizon)
    comp = [v for v, b in zip(table, xbits) if not b]
    if not all(map(lt, comp, comp[1:])):
        raise NotAReduction("surjectivized table is not increasing on the complement")
    out.verified = True
    return out


# ---------------------------------------------------------------------------
# Immunity evidence


class PreImmuneVerdict(NamedTuple):
    member: str
    injective: bool
    collision: Optional[tuple]
    hits_set_at: Optional[tuple]       # (argument, value) landing inside x
    witnesses_top_reduction: bool      # injective and never hit x on the window


_PRE_IMMUNE_CEILING = 10_000     # check_pre_immune reads no bit of x past it


def check_pre_immune(x: PrSet, family: Sequence[ClockedProgram],
                     horizon: int) -> list[PreImmuneVerdict]:
    """Desk-scale contrapositive evidence for immunity of the complement.

    A member that is injective and lands entirely inside the complement on
    the window witnesses a reduction of the identity into the set relation;
    an immune-complement construction must force every injective member to
    hit the set.
    """
    out = []
    for r in family:
        seen: dict[int, int] = {}
        collision = None
        hit = None
        for n in range(horizon + 1):
            v = r.value(n)
            if collision is None and v in seen:
                collision = (seen[v], n)
            seen.setdefault(v, n)
            if hit is None and v <= _PRE_IMMUNE_CEILING and x.bit(v) == 1:
                hit = (n, v)
        out.append(PreImmuneVerdict(r.name, collision is None, collision, hit,
                                    collision is None and hit is None))
    return out


# ---------------------------------------------------------------------------
# Certificates and witness files


def verify_claim(w: ReductionWitness, low: PrSet, high: PrSet,
                 horizon: int) -> None:
    """Check a witness against the claim kind it carries; raise NotCertified."""
    if w.claim == "reduction":
        cex = check_reduction_prefix(w, SetRelation(low), SetRelation(high), horizon)
        if cex is not None:
            raise NotCertified(f"claimed reduction fails: {cex.describe()}")
        return
    convention = {"growth-h": "index", "growth-p": "steps"}.get(w.claim)
    if convention is None:
        raise NotCertified(f"unknown claim kind {w.claim!r}")
    stages = range(horizon + 1)
    images = w.program.values_at(stages)
    if convention == "index":
        require_index_values(images)
    lows = low.profile(stages, convention)
    highs = high.profile(images, convention)
    for s, a, b in zip(stages, lows, highs):
        if a > b:
            raise NotCertified(f"claimed {w.claim} bound fails at s={s}")


def domination_certificate(low: PrSet, high: PrSet, horizon: int,
                           convention: str = "index") -> ReductionWitness:
    """Certify low <= high from a pointwise profile comparison (h = identity)."""
    kind = "index" if convention == "index" else "steps"
    stages = range(horizon + 1)
    for s, a, b in zip(stages, low.profile(stages, kind), high.profile(stages, kind)):
        if a > b:
            raise NotCertified(
                f"profile of {low.name} exceeds {high.name} at s={s} ({a} > {b})")
    claim = "growth-h" if convention == "index" else "growth-p"
    return ReductionWitness(TableProgram(list(range(horizon + 1)), "identity"),
                            claim, low.name, high.name, horizon, convention, True)


_HEADER = ("claim", "source", "target", "horizon", "convention", "verified")
# Rows i in one aligned block of 1000 indices (i >= 1000) share the decimal
# prefix str(i // 1000) and differ in a three-digit suffix, so a block of a
# floor table's tail is one join of these suffixes around that prefix.
_SUFFIXES = tuple(f"{j:03d}" for j in range(1000))
# a block of rows "i\ti+1": each suffix closes one row's value and opens the
# next row's index; the last value carries into the next block's prefix
_RANGE_PIECES = ("", _SUFFIXES[0] + "\t",
                 *(s + end for s in _SUFFIXES[1:] for end in ("\n", "\t")))


def _write_rows(out, lo: int, values) -> None:
    """Rows "i<TAB>v" for i = lo, lo + 1, ... and v in values, in joined
    chunks of 4096: one write per row is slower than the join, and one
    join over all rows holds every row string at once."""
    for at in range(0, len(values), 4096):
        chunk = values[at:at + 4096]
        out.write(rows([decimals(range(lo + at, lo + at + len(chunk))), decimals(chunk)]))


def _write_floor_tail(out, prog: FloorTableProgram) -> None:
    """Rows past the prefix: a run of the floor c, then the range i -> i + 1.
    Each part's rows from lo to hi - 1, whose entries from i to j - 1 are
    values(i, j), go out as aligned blocks of 1000 past 1000, block(k),
    and the rest through _write_rows."""
    start, end, c = len(prog.prefix), prog.horizon + 1, prog.floor
    run_end = max(start, min(c, end))
    close = f"\t{c}\n"

    def run_block(k):
        p = str(k // 1000)
        return p + (close + p).join(_SUFFIXES) + close

    def range_block(k):
        return str(k // 1000).join(_RANGE_PIECES) + f"{k + 1000}\n"

    for lo, hi, values, block in ((start, run_end, lambda i, j: [c] * (j - i), run_block),
                                  (run_end, end, lambda i, j: range(i + 1, j + 1), range_block)):
        first = min(hi, max(1000, -(-lo // 1000) * 1000))
        last = max(first, hi // 1000 * 1000)
        _write_rows(out, lo, values(lo, first))
        out.writelines(map(block, range(first, last, 1000)))
        _write_rows(out, last, values(last, hi))


def serialize_witness(w: ReductionWitness) -> str:
    """A table witness as text: the header, ``---``, then one row
    "index<TAB>value" per entry, a floor table's tail in aligned blocks
    of 1000."""
    prog = w.program
    if not isinstance(prog, TableProgram):
        raise PreconditionFailed("only table-backed witnesses serialize")
    out = io.StringIO()
    out.write(pair_lines(zip(_HEADER, (w.claim, w.source, w.target, w.horizon,
                                       w.convention, int(w.verified)))) + "---\n")
    floor = isinstance(prog, FloorTableProgram)
    _write_rows(out, 0, prog.prefix if floor else prog.values)
    if floor:
        _write_floor_tail(out, prog)
    return out.getvalue()


def _parse_rows(lines: list, first_row: int) -> list:
    """Witness table rows "index<TAB>value", one at a time: the first bad
    row raises, naming its line."""
    values = []
    for lineno, line in enumerate(lines, first_row):
        i, _, v = line.partition("\t")
        try:
            index, value = int(i), int(v)
        except ValueError:
            raise ParseError(f"malformed witness row on line {lineno}: {line!r}") from None
        if value < 0:
            raise ParseError(f"negative witness value on line {lineno}: {line!r}")
        if index != len(values):
            raise PreconditionFailed(f"witness table rows out of order at {i}")
        values.append(value)
    return values


def parse_witness(text: str) -> ReductionWitness:
    """Read a witness file; malformed rows and header keys raise ParseError.

    A body that ``columns`` reads, with indices 0, 1, ... and every value
    under the decimal cap, is read by lookup; any other body goes through
    _parse_rows, which names the first bad line."""
    head, _, body = text.partition("---\n")
    fields = dict(pairs(head.splitlines()))
    table = columns(body, 2)
    values = integers(table[1]) if table else None
    if values is None or table[0] != decimals(range(len(values))):
        values = _parse_rows(body.splitlines(), len(head.splitlines()) + 2)
    for key in _HEADER:
        if key not in fields:
            raise ParseError(f"witness header has no {key!r} line")
    try:
        horizon = int(fields["horizon"])
    except ValueError:
        raise ParseError(f"malformed witness horizon {fields['horizon']!r}") from None
    if horizon != len(values) - 1:
        raise PreconditionFailed("witness table length does not match its horizon")
    return ReductionWitness(TableProgram(values, "table"), fields["claim"],
                            fields["source"], fields["target"], horizon,
                            fields["convention"], fields["verified"] == "1")


def load_witness(path) -> ReductionWitness:
    return parse_witness(read_text(path))
