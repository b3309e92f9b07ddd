"""Set descriptors, zero-count profiles, and the binary-string calculus.

A descriptor is a clocked bit-generator for a coinfinite primitive recursive
set: ``bit(n)`` is the characteristic value, total and deterministic, and
every bit carries a per-bit step cost.  Two zero-count profiles are exposed:

  * ``zeros_by_index(s)``: zeros among bits 0..s (the prefix of length s+1);
  * ``zeros_by_steps(s)``: zeros among the bits the generator can produce
    with a total step budget of s, i.e. bits 0..k for the largest k whose
    cumulative cost stays within s.

Per-bit costs: 1 for builtins, the evaluator's node count for term-backed
descriptors, and the replayed stage count (n+1 for bit n) for trace-backed
descriptors.  Both profile sequences are nondecreasing and climb by at most
one per unit.

The descriptor DSL understood by the CLI and by test fixtures:

    evens | mod K | id | term "<unary term>" bound "<unary term>"
    | trace <path> | join(<expr>, <expr>) | meet(<expr>, <expr>)
    | drop(<expr>)

``id`` denotes the set {0}, whose induced relation is the identity.
``drop`` removes the least zero (flips it to membership).

Bits, zero counts and cumulative costs are memoized as prefixes.  A memo
normally grows one bit at a time, but some descriptors also have a range
fill that produces the bits and costs of a whole range in one call: the
builtins (by their periodic pattern), prefix and trace sets with the
default cost (by their pattern: the constructed head, then 1,0 at cost
n + 1), ``drop`` and the zero-member override (from the operand's arrays
with one bit flipped), and join and meet (the max or min of the normalised
operands' zero counts).  A descriptor fills only if all its operands do, so
term-backed sets, normal-form carriers, zero-list sets and everything built
over them keep the per-bit loop and their evaluator work.  Only unlimited
growth fills, and only for extensions of at least ``_FILL_MIN`` bits, since
a fill has a fixed cost; step-limited growth (``zeros_by_steps``) and
zero-limited growth (the zero searches ``principal_zero`` and
``next_zero``) take the per-bit loop, so a memo, and its operands' memos,
stop exactly at the bit where the limit is met.  A set built from a pattern
answers ``zeros_by_steps`` and steps profiles by arithmetic on the pattern
and grows no memo for them; bit, index and cost reads still grow its memo.
Only zero-list sets answer ``principal_zero`` by a closed form, from their
list of zeros.

Scans read memos in bulk: ``profile(points, convention)`` answers a whole
list of index points or step budgets from one growth to the largest, and
``prefix(n).bits`` hands a scan the bits it maps over, so a scan pays one
``_ensure`` entry, not one per element.
"""

from __future__ import annotations

import bisect
import math
import sys
import threading
from dataclasses import dataclass
from itertools import accumulate, cycle, islice, repeat
from operator import sub
from typing import Callable, Iterable, Iterator, Sequence

from . import pr_lang
from .errors import (
    CeilingExceeded,
    NotEquivalence,
    ParseError,
    PunctualityViolation,
    ShapeMismatch,
)

DEFAULT_CEILING = 200_000

# A fill costs a fixed few microseconds before its first bit, so extensions
# shorter than this many bits keep the per-bit loop.  Measured on the seed-1
# benchmark lists (2-CPU machine, two runs each): with 1 (fill every growth)
# stage_machine read 37 jobs/s and witness_calculus 58-61; with 8, 32 or 128
# they read 44-47 and 66-72 alike.
_FILL_MIN = 32


# ---------------------------------------------------------------------------
# Finite binary strings


@dataclass(frozen=True)
class Prefix:
    bits: tuple

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __iter__(self):
        return iter(self.bits)

    @property
    def zero_count(self) -> int:
        return len(self.bits) - sum(self.bits)

    def zero_positions(self) -> tuple:
        return tuple(i for i, b in enumerate(self.bits) if b == 0)

    def concat(self, other: "Prefix") -> "Prefix":
        return Prefix(self.bits + other.bits)

    def as_str(self) -> str:
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_str(cls, text: str) -> "Prefix":
        return cls(tuple(int(c) for c in text))


def _check_shapes(sigma: Prefix, tau: Prefix):
    if len(sigma) != len(tau):
        raise ShapeMismatch(f"lengths differ: {len(sigma)} vs {len(tau)}")
    if sigma.zero_count != tau.zero_count:
        raise ShapeMismatch(
            f"zero counts differ: {sigma.zero_count} vs {tau.zero_count}")


def _string_op(sigma: Prefix, tau: Prefix, pick) -> Prefix:
    """Join (pick=min) or meet (pick=max): the n-th zero sits at pick of the
    operands' n-th zeros."""
    _check_shapes(sigma, tau)
    marks = set(map(pick, sigma.zero_positions(), tau.zero_positions()))
    return Prefix(tuple(0 if i in marks else 1 for i in range(len(sigma))))


def string_join(sigma: Prefix, tau: Prefix) -> Prefix:
    """Zeros of the join sit at min(p_sigma(n), p_tau(n)) for each n."""
    return _string_op(sigma, tau, min)


def string_meet(sigma: Prefix, tau: Prefix) -> Prefix:
    """Zeros of the meet sit at max(p_sigma(n), p_tau(n)) for each n."""
    return _string_op(sigma, tau, max)


# ---------------------------------------------------------------------------
# Set descriptors


class PrSet:
    """Clocked bit-generator for a coinfinite primitive recursive set.

    Immutable from the outside; bits and costs are memoized behind a lock so
    concurrent readers observe identical values.
    """

    def __init__(self, name: str, bit_fn: Callable[[int], int],
                 cost_fn: Callable[[int], int] | None = None,
                 *, dsl: str | None = None,
                 zeros_fast: Callable[[int], int] | None = None,
                 fill: Callable[[int, int], tuple] | None = None):
        self.name = name
        self.dsl = dsl
        self._bit_fn = bit_fn
        self._cost_fn = cost_fn or (lambda n: 1)
        self._zeros_fast = zeros_fast
        # fill(m, n) -> (bits, per-bit costs) of bits m..n, each cost >= 1;
        # it must agree with bit_fn and cost_fn.  A _Pattern fill also
        # answers step queries.
        self._fill = fill
        self._pattern = fill if isinstance(fill, _Pattern) else None
        self._lock = threading.Lock()
        self._bits: list[int] = []
        self._zero_cum: list[int] = []   # zeros among bits 0..n
        self._cost_cum: list[int] = []   # total cost of bits 0..n

    def __repr__(self):
        return f"<set {self.name}>"

    def _ensure(self, n: int, steps: int = sys.maxsize, zeros: int = sys.maxsize) -> None:
        """Materialise bits 0..n; stop early at total cost > steps or at `zeros` zeros.

        The memo always ends at n, at the first bit whose total cost passes
        steps, or at the `zeros`-th zero.  With a fill, an unlimited
        extension of at least ``_FILL_MIN`` bits runs in one call; limited
        growth takes the per-bit loop, so it reads no bit, and no operand
        bit, past the one where it stops.
        """
        if n < len(self._bits):
            return
        with self._lock:
            bits, zero_cum, cost_cum = self._bits, self._zero_cum, self._cost_cum
            m = len(bits)
            z = zero_cum[-1] if m else 0
            c = cost_cum[-1] if m else 0
            if (self._fill is not None and steps == zeros == sys.maxsize
                    and n - m + 1 >= _FILL_MIN):
                new, costs = self._fill(m, n)
                # readers test len(bits) without the lock, so bits grow last
                zero_cum += map(sub, range(z + 1, z + 1 + len(new)), accumulate(new))
                cost_cum += islice(accumulate(costs, initial=c), 1, None)
                bits += new
                return
            bit_fn, cost_fn = self._bit_fn, self._cost_fn
            while m <= n and c <= steps and z < zeros:
                b = 1 if bit_fn(m) else 0
                k = cost_fn(m)
                c += k if k > 1 else 1      # max(1, k) without a call per bit
                z += 1 - b
                zero_cum.append(z)
                cost_cum.append(c)
                bits.append(b)
                m += 1

    def read_ahead(self, n: int) -> None:
        """Grow the memo to n in one fill, ahead of a scan that reads bits
        0..n upward.  Filling sets cannot raise, so growing one past a
        scan's early exit shows nowhere; other sets are left to the scan,
        so no evaluator work moves."""
        if self._fill is not None and n >= len(self._bits):
            self._ensure(n)

    @property
    def decided(self) -> int:
        """How many bits the memo holds: bits 0..decided-1 are read without
        another generator call."""
        return len(self._bits)

    def bit(self, n: int) -> int:
        if n >= len(self._bits):
            self._ensure(n)
        return self._bits[n]

    def prefix(self, s: int) -> Prefix:
        """Initial segment of length s+1 (bits 0..s)."""
        if s >= len(self._bits):
            self._ensure(s)
        return Prefix(tuple(self._bits[:s + 1]))

    def zeros_by_index(self, s: int) -> int:
        if s >= len(self._bits):
            self._ensure(s)
        return self._zero_cum[s]

    def bit_cost(self, n: int) -> int:
        if n >= len(self._bits):
            self._ensure(n)
        return self._cost_cum[n] - (self._cost_cum[n - 1] if n else 0)

    def cum_cost(self, n: int) -> int:
        """Total generator cost of producing bits 0..n."""
        if n >= len(self._bits):
            self._ensure(n)
        return self._cost_cum[n]

    def zeros_by_steps(self, s: int) -> int:
        """Zeros among the bits decidable within s total generator steps."""
        if self._pattern is not None:
            return self._pattern.zeros_by_steps(s)
        if s <= 0:
            return 0
        # bits 0..s cost at least s + 1 steps, so growth stops by bit s
        self._ensure(s, steps=s)
        k = bisect.bisect_right(self._cost_cum, s)
        return self._zero_cum[k - 1] if k else 0

    def profile(self, points: Iterable[int], convention: str = "index") -> Iterator[int]:
        """zeros_by_index or zeros_by_steps at each point, in order, from
        one memo growth to the largest point.

        Points may come in any order; step budgets of 0 and below count no
        zeros.  If a generator fails during the growth, the counts are read
        point by point instead, so the failure surfaces at the first point
        that needs the failing bit, as it would with one read per point.
        A pattern set counts step budgets by arithmetic and grows no memo.
        """
        if convention not in ("index", "steps"):
            raise ValueError(f"unknown convention {convention!r}")
        steps = convention == "steps"
        if steps and self._pattern is not None:
            return map(self._pattern.zeros_by_steps, points)
        points = points if isinstance(points, (list, range)) else list(points)
        top = max(points, default=-1)
        try:
            if not steps:
                self._ensure(top)
            elif top > 0:
                # bits 0..top cost at least top + 1 steps, so growth stops by bit top
                self._ensure(top, steps=top)
        except Exception:
            return map(self.zeros_by_steps if steps else self.zeros_by_index, points)
        zc = self._zero_cum
        if not steps:
            return iter([zc[s] for s in points])
        return iter([zc[k - 1] if k else 0
                     for k in map(bisect.bisect_right, repeat(self._cost_cum), points)])

    def _kth_zero(self, k: int, ceiling: int) -> int | None:
        """Position of the k-th zero (k >= 1) if it is at most ceiling,
        reading no bit past the ceiling; else None."""
        self._ensure(ceiling, zeros=k)
        # the memo now holds the k-th zero or runs past the ceiling
        pos = bisect.bisect_left(self._zero_cum, k)
        return pos if pos <= ceiling else None

    def next_zero(self, after: int, ceiling: int) -> int | None:
        """The least zero past `after` and at most `ceiling`, or None."""
        if after >= ceiling:
            return None
        return self._kth_zero(self.zeros_by_index(after) + 1 if after >= 0 else 1,
                              ceiling)

    def principal_zero(self, n: int, ceiling: int = DEFAULT_CEILING) -> int:
        """Position of the (n+1)-st zero; CeilingExceeded if it lies past the
        ceiling, except on zero-list sets, which answer from their list."""
        if self._zeros_fast is not None:
            return self._zeros_fast(n)
        pos = self._kth_zero(n + 1, ceiling)
        if pos is None:
            raise CeilingExceeded(
                f"{self.name}: fewer than {n + 1} zeros below ceiling {ceiling}")
        return pos


# Range fills


class _Pattern:
    """head[n] below len(head), then `period` over and over, at unit cost or
    at cost n + 1 for bit n.

    Called as ``fill(m, n)`` it gives the bits and costs of bits m..n.
    ``zeros_by_steps(s)`` counts the zeros among the bits decided within s
    steps by arithmetic, so a step query grows no memo.
    """

    def __init__(self, head: tuple, period: tuple, unit_cost: bool = True):
        self.head, self.period, self.unit_cost = head, period, unit_cost
        self._ones = None   # member counts below each head and period offset

    def __call__(self, m: int, n: int) -> tuple:
        head, period = self.head, self.period
        h = len(head)
        bits = list(head[m:n + 1])
        if n >= h:
            lo = max(m, h) - h              # offsets lo..n-h of the tail
            r = lo % len(period)
            bits += islice(cycle(period), r, r + n - h - lo + 1)
        return bits, [1] * (n - m + 1) if self.unit_cost else range(m + 1, n + 2)

    def zeros_by_steps(self, s: int) -> int:
        if s <= 0:
            return 0
        # k bits cost k steps, or k(k+1)/2 at cost n + 1 for bit n
        k = s if self.unit_cost else (math.isqrt(8 * s + 1) - 1) // 2
        if self._ones is None:
            self._ones = (list(accumulate(self.head, initial=0)),
                          list(accumulate(self.period, initial=0)))
        head_ones, period_ones = self._ones
        h = len(self.head)
        if k <= h:
            return k - head_ones[k]
        q, r = divmod(k - h, len(self.period))
        return k - head_ones[h] - q * period_ones[-1] - period_ones[r]


def _bit_costs(x: PrSet, m: int, n: int) -> list:
    """Per-bit costs of bits m..n of x, whose memo reaches n."""
    cum = x._cost_cum
    return list(map(sub, cum[m:n + 1], cum[m - 1:n] if m else [0] + cum[:n]))


def _flip_fill(x: PrSet, pos: int):
    """Fill for x with bit pos forced to 1."""
    def fill(m, n):
        x._ensure(n)
        bits = x._bits[m:n + 1]
        if m <= pos <= n:
            bits[pos - m] = 1
        return bits, _bit_costs(x, m, n)

    return fill


# Builtins


def evens_set() -> PrSet:
    return PrSet("evens", lambda n: 1 - (n % 2), dsl="evens",
                 fill=_Pattern((), (1, 0)))


def mod_set(k: int) -> PrSet:
    if k < 2:
        raise ParseError(f"mod K needs K >= 2, got {k}")
    return PrSet(f"mod{k}", lambda n: 1 if n % k == 0 else 0, dsl=f"mod {k}",
                 fill=_Pattern((), (1,) + (0,) * (k - 1)))


def singleton_zero_set() -> PrSet:
    return PrSet("id", lambda n: 1 if n == 0 else 0, dsl="id",
                 fill=_Pattern((1,), (0,)))


def blocks_set(k: int) -> PrSet:
    """Period-2k blocks: k members then k non-members.

    Useful as a partner whose zero count oscillates around the halving line,
    crossing it at every period boundary.
    """
    if k < 1:
        raise ParseError(f"blocks K needs K >= 1, got {k}")
    return PrSet(f"blocks{k}", lambda n: 1 if n % (2 * k) < k else 0,
                 dsl=f"blocks {k}", fill=_Pattern((), (1,) * k + (0,) * k))


def term_set(term, bound, name: str | None = None) -> PrSet:
    """Descriptor backed by a unary term with a declared step-bound term."""
    if isinstance(term, str):
        term = pr_lang.parse_term(term)
    if isinstance(bound, str):
        bound = pr_lang.parse_term(bound)
    term = pr_lang.unary_wrap(term)
    bound = pr_lang.unary_wrap(bound)
    term_text = pr_lang.serialize(term)
    bound_text = pr_lang.serialize(bound)
    outcomes: dict[int, pr_lang.Converged] = {}

    def run(n):
        hit = outcomes.get(n)
        if hit is None:
            budget = pr_lang.eval_total(bound, [n])
            out = pr_lang.eval_clocked(term, [n], budget)
            if not isinstance(out, pr_lang.Converged):
                raise PunctualityViolation(
                    f"term set {term_text} exceeded its bound {bound_text} at n={n}")
            hit = outcomes[n] = out
        return hit

    return PrSet(name or f"term:{term_text}",
                 lambda n: 1 if run(n).value else 0,
                 lambda n: run(n).steps,
                 dsl=f'term "{term_text}" bound "{bound_text}"')


def zero_list_set(name: str, next_zero: Callable[[list], int]) -> PrSet:
    """Set given by its (strictly increasing) zero positions; bit n costs n + 1.

    ``next_zero(zs)`` extends the list of known zeros; positions may be huge,
    so bits and principal zeros are derived from the list, never by scan.
    ``zs`` is the live list, not a copy: callbacks must not mutate it.
    """
    zeros: list[int] = []
    lock = threading.Lock()

    def ensure_past(n):
        with lock:
            while not zeros or zeros[-1] <= n:
                zeros.append(next_zero(zeros))

    def bit(n):
        ensure_past(n)
        i = bisect.bisect_left(zeros, n)
        return 0 if i < len(zeros) and zeros[i] == n else 1

    def nth(n):
        with lock:
            while len(zeros) <= n:
                zeros.append(next_zero(zeros))
            return zeros[n]

    return PrSet(name, bit, lambda n: n + 1, zeros_fast=nth)


def prefix_set(name: str, bits: Sequence[int], *, dsl: str | None = None,
               cost_fn: Callable[[int], int] | None = None) -> PrSet:
    """Finite constructed prefix, extended past its end by alternating 1,0.

    The alternating tail keeps the set infinite and coinfinite at any
    horizon beyond the constructed part.
    """
    frozen = tuple(1 if int(b) else 0 for b in bits)

    def bit(n):
        if n < len(frozen):
            return frozen[n]
        return 1 - (n - len(frozen)) % 2

    return PrSet(name, bit, cost_fn or (lambda n: n + 1), dsl=dsl,
                 fill=None if cost_fn else _Pattern(frozen, (1, 0), False))


# Derived descriptors


def sample_window_mixed(x: PrSet, horizon: int, window: int = 64) -> bool:
    """Sampled coinfiniteness check: the window past the horizon holds both
    a member and a non-member.  Descriptors are user-supplied, so this is
    evidence, not proof."""
    bits = [x.bit(n) for n in range(horizon, horizon + window + 1)]
    return 0 in bits and 1 in bits


def override_zero_member(x: PrSet) -> PrSet:
    """Force 0 into the set (bit 0 becomes 1); identity if already there."""
    if x.bit(0) == 1:
        return x
    return PrSet(f"{x.name}+0", lambda n: 1 if n == 0 else x.bit(n),
                 x.bit_cost, dsl=x.dsl, fill=_flip_fill(x, 0) if x._fill else None)


def _lattice_op(x: PrSet, y: PrSet, pick, op: str, symbol: str) -> PrSet:
    """Join (pick=max) or meet (pick=min): its index profile is pick of the
    normalised operands' profiles, bit by bit, so its fill maps pick over
    their zero-count arrays."""
    x = override_zero_member(x)
    y = override_zero_member(y)

    def bit(n):
        if n == 0:
            return 1
        before = pick(x.zeros_by_index(n - 1), y.zeros_by_index(n - 1))
        after = pick(x.zeros_by_index(n), y.zeros_by_index(n))
        return 0 if after > before else 1

    def fill(m, n):
        x._ensure(n)
        y._ensure(n)
        lo = m - 1 if m else 0
        zc = list(map(pick, x._zero_cum[lo:n + 1], y._zero_cum[lo:n + 1]))
        if not m:
            zc.insert(0, 0)
        # bit i is 1 unless the zero count climbs at i
        bits = [1 - b + a for a, b in zip(zc, islice(zc, 1, None))]
        costs = [c + 1 for c in map(max, _bit_costs(x, m, n), _bit_costs(y, m, n))]
        return bits, costs

    dsl = f"{op}({x.dsl}, {y.dsl})" if x.dsl and y.dsl else None
    return PrSet(f"({x.name} {symbol} {y.name})", bit,
                 lambda n: max(x.bit_cost(n), y.bit_cost(n)) + 1, dsl=dsl,
                 fill=fill if x._fill and y._fill else None)


def set_join(x: PrSet, y: PrSet) -> PrSet:
    """Supremum carrier: its index profile is the pointwise max of the two."""
    return _lattice_op(x, y, max, "join", "v")


def set_meet(x: PrSet, y: PrSet) -> PrSet:
    """Infimum carrier: its index profile is the pointwise min of the two."""
    return _lattice_op(x, y, min, "meet", "^")


def drop_least_zero(x: PrSet) -> PrSet:
    """Flip the least zero of x to membership; profile drops by exactly one."""
    z0 = x.principal_zero(0)
    zeros_fast = None
    if x._zeros_fast is not None:
        zeros_fast = lambda n: x._zeros_fast(n + 1)
    dsl = f"drop({x.dsl})" if x.dsl else None
    return PrSet(f"{x.name}^[-1]", lambda n: 1 if n == z0 else x.bit(n),
                 x.bit_cost, dsl=dsl, zeros_fast=zeros_fast,
                 fill=_flip_fill(x, z0) if x._fill else None)


# ---------------------------------------------------------------------------
# Relations


class Relation:
    """Binary predicate descriptor for an equivalence relation on omega."""

    name: str

    def related(self, x: int, y: int) -> bool:
        raise NotImplementedError

    def __repr__(self):
        return f"<relation {self.name}>"


class SetRelation(Relation):
    """The 1-dimensional relation of a set: related iff both members or equal."""

    def __init__(self, carrier: PrSet):
        self.carrier = carrier
        self.name = f"R[{carrier.name}]"

    def related(self, x: int, y: int) -> bool:
        return x == y or (self.carrier.bit(x) == 1 and self.carrier.bit(y) == 1)


class IdentityRelation(Relation):
    name = "Id"

    def related(self, x: int, y: int) -> bool:
        return x == y


class PredicateRelation(Relation):
    """User-supplied equivalence predicate."""

    def __init__(self, fn: Callable[[int, int], bool], name: str):
        self.fn = fn
        self.name = name

    def related(self, x: int, y: int) -> bool:
        return bool(self.fn(x, y))


def check_equivalence_sampled(r: Relation, bound: int) -> None:
    """Sampled reflexivity/symmetry/transitivity check; raises NotEquivalence."""
    w = min(bound, 40)
    for x in range(min(bound, 500) + 1):
        if not r.related(x, x):
            raise NotEquivalence(f"{r.name} is not reflexive at {x}")
    for x in range(w + 1):
        for y in range(w + 1):
            if r.related(x, y) != r.related(y, x):
                raise NotEquivalence(f"{r.name} is not symmetric at ({x},{y})")
    t = min(bound, 20)
    for x in range(t + 1):
        for y in range(t + 1):
            if not r.related(x, y):
                continue
            for z in range(t + 1):
                if r.related(y, z) and not r.related(x, z):
                    raise NotEquivalence(
                        f"{r.name} is not transitive at ({x},{y},{z})")


def in_principal_transversal(r: Relation, y: int) -> bool:
    if y == 0:
        return False
    return all(not r.related(x, y) for x in range(y))


def principal_transversal(r: Relation, bound: int) -> Prefix:
    """Characteristic prefix of the least-representative transversal."""
    check_equivalence_sampled(r, bound)
    return Prefix(tuple(1 if in_principal_transversal(r, y) else 0
                        for y in range(bound + 1)))


def normal_form(r: Relation, *, sample_bound: int = 40):
    """Carrier of the normal form plus the two reduction programs.

    Returns (X, f, g) where X is the complement of the principal
    transversal, f reduces r to the relation of X by least representatives,
    and g maps the main class back to 0 and keeps transversal points fixed.
    """
    check_equivalence_sampled(r, sample_bound)

    memo: dict[int, bool] = {}

    def in_main(n):
        hit = memo.get(n)
        if hit is None:
            hit = memo[n] = not in_principal_transversal(r, n)
        return hit

    x = PrSet(f"nf[{r.name}]", lambda n: 1 if in_main(n) else 0,
              lambda n: n + 1)

    def f_fn(v):
        for y in range(v + 1):
            if r.related(y, v):
                return y
        return v

    f = pr_lang.NativeProgram(f"nf-fwd[{r.name}]", f_fn, lambda v: v + 1)
    g = pr_lang.NativeProgram(
        f"nf-back[{r.name}]", lambda v: 0 if in_main(v) else v, lambda v: v + 1)
    return x, f, g


# ---------------------------------------------------------------------------
# Descriptor DSL


class _DslParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek_word(self) -> str:
        self.skip_ws()
        j = self.pos
        while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
            j += 1
        return self.text[self.pos:j]

    def take_word(self) -> str:
        w = self.peek_word()
        self.pos += len(w)
        return w

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r} in descriptor", self.pos)
        self.pos += 1

    def quoted(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != '"':
            raise ParseError("expected a quoted string", self.pos)
        end = self.text.find('"', self.pos + 1)
        if end < 0:
            raise ParseError("unterminated quote", self.pos)
        out = self.text[self.pos + 1:end]
        self.pos = end + 1
        return out

    def path(self) -> str:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == '"':
            return self.quoted()
        j = self.pos
        while j < len(self.text) and not self.text[j].isspace() and self.text[j] not in ",()":
            j += 1
        if j == self.pos:
            raise ParseError("expected a path", self.pos)
        out = self.text[self.pos:j]
        self.pos = j
        return out

    def expr(self) -> PrSet:
        word = self.take_word()
        if word == "evens":
            return evens_set()
        if word == "id":
            return singleton_zero_set()
        if word in ("mod", "blocks"):
            self.skip_ws()
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            if j == self.pos:
                raise ParseError(f"{word} needs a number", self.pos)
            k = int(self.text[self.pos:j])
            self.pos = j
            return mod_set(k) if word == "mod" else blocks_set(k)
        if word == "term":
            t = self.quoted()
            if self.take_word() != "bound":
                raise ParseError("term descriptor needs a bound", self.pos)
            b = self.quoted()
            return term_set(t, b)
        if word == "trace":
            p = self.path()
            from . import constructions
            return constructions.load_trace_set(p)
        if word in ("join", "meet"):
            self.expect("(")
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            return set_join(a, b) if word == "join" else set_meet(a, b)
        if word == "drop":
            self.expect("(")
            a = self.expr()
            self.expect(")")
            return drop_least_zero(a)
        raise ParseError(f"unknown descriptor {word!r}", self.pos)


def parse_set(text: str) -> PrSet:
    p = _DslParser(text.strip())
    s = p.expr()
    p.skip_ws()
    if p.pos != len(p.text):
        raise ParseError("trailing input after descriptor", p.pos)
    return s
