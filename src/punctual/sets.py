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

    evens | mod K | blocks K | id
    term "<unary term>" bound "<unary term>"
    trace <path>[:<output>]
    join(<expr>, <expr>) | meet(<expr>, <expr>) | drop(<expr>)

``id`` denotes the set {0}, whose induced relation is the identity.
``blocks K`` alternates K members with K non-members.  ``drop`` removes the
least zero (flips it to membership).  The DSL reads through the scanner of
the term grammar (``pr_lang``), so blanks between tokens are skipped alike
and an error names its position in the descriptor, inside a quoted term too.

Bits, zero counts and cumulative costs are memoized as prefixes; below
bit 0, ``zeros_by_index`` and ``cum_cost`` read 0, ``prefix(-1)`` is
empty, and ``bit``, ``bit_cost`` and a shorter prefix raise ``ValueError``.
A memo grows one bit at a time, or by a range fill that gives the bits
and costs of a whole range in one call and reads nothing past its reach.
A pattern (a head, then a period, each bit costing a constant or n + 1
plus a constant) reaches without end.  It fills the builtins, prefix and
trace sets with the default cost (the constructed head, then 1,0 at cost
n + 1), and ``drop``, the zero-member override, join and meet over pattern
sets while their head plus period stays within ``_PATTERN_MAX`` bits:
``drop`` and the override flip one bit of the operand's pattern, and join
and meet read one pass over the operands' patterns (``_lattice_pattern``),
unless a unit-cost operand costs more than the n + 1 one.  Such a pattern
is built once while it stays among the last ``_LATTICE_PATTERNS`` built,
kept by the operands' heads, periods and costs, the pick and
``_PATTERN_MAX``; the sets built over it share it, each with its own
memo.  Every other ``drop``, override, join and meet fills from its
operands' memos (one bit flipped, or the max or min of the normalised
zero counts) and reaches as far as its least operand, where a set
reaches to the further of its memo and its fill.  Term-backed sets,
normal-form carriers and zero-list sets have no fill, so a set derived
over one has a bounded reach.  Within its reach a fill cannot raise, and
a bounded one only slices memos.  A set with a pattern answers ``bit``
past its memo from the pattern, in O(1) and with no memo growth, so
``decided`` does not count the bits it read that way; every other read
past a memo grows it.

The one reach rule: an unlimited read that grows a memo by at least
``_FILL_MIN`` bits fills to the bit read when the reach is unbounded and
to the reach otherwise, which may lie past the bit read, and the per-bit
loop goes on from there, failing where it failed before.  ``read_ahead``
grows only sets whose reach is unbounded.  Step-limited growth
(``bits_within``) and zero-limited growth (``fresh_zeros``, the one zero
search, which ``next_zero`` and ``principal_zero`` call) take the per-bit
loop, so a memo, and its operands' memos, stop exactly at the bit where
the limit is met; a limit not met by bit ``DEFAULT_CEILING`` raises
CeilingExceeded.  A step budget that the memo's total cost already
exceeds is met there, so ``bits_within`` reads it without a growth step.
``fresh_zeros`` picks a run of zeros in one pass: it reads the memo by
bisection on from the last pick and grows it only for a pick it lacks.  A
pattern set answers ``zeros_by_steps`` and steps profiles by arithmetic
and grows no memo for them either: a steps column is read off one pass
over the bits its largest budget decides, and only a sparser column (over
8 such bits a budget) counts budget by budget.  Zero-list sets answer
``principal_zero`` from their list of zeros, past any ceiling.

Scans read memos as whole columns: ``profile(points, convention)`` and
``cum_costs(points)`` answer a list of points from one growth to the
largest, an index range from 0 up by 1 as one slice of the memo, and
``prefix(n).bits`` hands a scan the bits it maps over, so a scan pays one
``_ensure`` entry, not one per element; ``reader(n)`` hands a stage loop
the memo list's lookup for bits 0..n.

Descriptors are single-threaded: memos grow unguarded, so no descriptor may
be read from two threads at once.
"""

from __future__ import annotations

import bisect
import math
import re
import sys
from functools import lru_cache
from itertools import accumulate, cycle, islice, repeat
from operator import itemgetter, sub
from typing import Callable, Iterable, Iterator, Sequence

from . import pr_lang
from .errors import (
    ArityError,
    CeilingExceeded,
    NotEquivalence,
    ParseError,
    PunctualityViolation,
    ShapeMismatch,
)

DEFAULT_CEILING = 200_000

# A set derived from pattern sets is built as a pattern while its head plus
# period stays within this many bits; a longer one keeps the generic fill.
# A join or meet built as a pattern costs about 0.55 us per bit of head plus
# span before its first read, the generic fill about 1.2 us per bit read, so
# a pattern pays back once reads pass about half its span (step reads pay
# back at once).  Build plus read of a fresh join or meet, pattern/generic
# (2-CPU x86-64, Python 3.11.7, medians of 31): span 1,984 read to bit 10
# 1.16/0.12 ms, to bit 1,999 1.55/2.11 ms; span 4,140 to bit 10 2.41/0.08,
# to bit 1,999 2.72/2.49, to bit 3,999 3.05/4.62; span 8,190 to bit 1,999
# 4.88/2.29; span 64,507 to bit 10 18.5/0.11, to bit 130,000 43/151.  The
# benchmark lists read these sets to bit 2,001 at most, over spans of at
# most 2,003, so the cap sits where a 2,000-bit read breaks even.
_PATTERN_MAX = 1 << 12

# Join and meet patterns kept by their operands' patterns, pick and
# _PATTERN_MAX, least recently used first out.  The benchmark lists build 9
# distinct ones per process at most; an entry holds three patterns of at
# most _PATTERN_MAX bits, about 0.4 MB with every zero-count table built.
_LATTICE_PATTERNS = 16

# A fill costs a fixed few microseconds before its first bit, so extensions
# shorter than this many bits keep the per-bit loop.  Measured on the seed-1
# benchmark lists (2-CPU machine, two runs each): with 1 (fill every growth)
# stage_machine read 37 jobs/s and witness_calculus 58-61; with 8, 32 or 128
# they read 44-47 and 66-72 alike.
_FILL_MIN = 32

_FLIP = bytes.maketrans(b"\0\1", b"\1\0")     # 0 <-> 1, for bytes.translate


# ---------------------------------------------------------------------------
# Finite binary strings


class Prefix:
    """A finite binary string: ``bits`` is a tuple of 0s and 1s, fixed once
    built."""

    def __init__(self, bits: tuple):
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return self.bits == other.bits if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.bits,))

    def __repr__(self):
        return f"Prefix(bits={self.bits!r})"

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __iter__(self):
        return iter(self.bits)

    @property
    def zero_count(self) -> int:
        return len(self.bits) - sum(self.bits)

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
    """Join (pick=max) or meet (pick=min): the bits between pick of the
    operands' zero counts, as for sets."""
    _check_shapes(sigma, tau)
    return Prefix(tuple(_climbs(_picked(pick, _zero_counts(sigma.bits),
                                        _zero_counts(tau.bits)))))


def string_join(sigma: Prefix, tau: Prefix) -> Prefix:
    """Zeros of the join sit at min(p_sigma(n), p_tau(n)) for each n."""
    return _string_op(sigma, tau, max)


def string_meet(sigma: Prefix, tau: Prefix) -> Prefix:
    """Zeros of the meet sit at max(p_sigma(n), p_tau(n)) for each n."""
    return _string_op(sigma, tau, min)


# ---------------------------------------------------------------------------
# Set descriptors


class PrSet:
    """Clocked bit-generator for a coinfinite primitive recursive set.

    Immutable from the outside; bits and costs are memoized.  Descriptors
    are single-threaded: a memo grows unguarded, so one descriptor, and the
    descriptors built over it, must not be read from two threads at once.
    """

    def __init__(self, name: str, bit_fn: Callable[[int], int],
                 cost_fn: Callable[[int], int] | None = None,
                 *, dsl: str | None = None, fill: _Pattern | _MemoFill | None = None):
        self.name = name
        self.dsl = dsl
        self._bit_fn = bit_fn
        self._cost_fn = cost_fn or (lambda n: 1)
        # fill(m, n) -> (bits, per-bit costs) of bits m..n for n up to
        # fill.reach(), each cost >= 1, agreeing with bit_fn and cost_fn;
        # a _Pattern fill also answers step queries
        self._fill = fill
        self._pattern = fill if isinstance(fill, _Pattern) else None
        self._bits: list[int] = []
        self._zero_cum: list[int] = []   # zeros among bits 0..n
        self._cost_cum: list[int] = []   # total cost of bits 0..n

    def __repr__(self):
        return f"<set {self.name}>"

    def _ensure(self, n: int, steps: int = sys.maxsize, zeros: int = sys.maxsize) -> None:
        """Materialise bits 0..n; stop early at total cost > steps or at `zeros` zeros.

        Limited growth ends the memo at n, at the first bit whose total cost
        passes steps, or at the `zeros`-th zero, and takes the per-bit loop,
        so it reads no bit, and no operand bit, past the one where it stops;
        a limit not met by bit ``DEFAULT_CEILING`` raises CeilingExceeded.
        An unlimited extension of at least ``_FILL_MIN`` bits fills to n
        when the fill's reach is unbounded and to the reach otherwise, so
        the memo may end past n; past the reach the per-bit loop goes on.
        """
        if n < len(self._bits):
            return
        bits, zero_cum, cost_cum = self._bits, self._zero_cum, self._cost_cum
        m = len(bits)
        if steps == zeros == sys.maxsize:
            reach = self._fill.reach() if self._fill else -1
            top = n if reach == sys.maxsize else reach
            if top - m + 1 >= _FILL_MIN:
                new, costs = self._fill(m, top)
                z = zero_cum[-1] if m else 0
                c = cost_cum[-1] if m else 0
                bits += new
                zero_cum += islice(accumulate(_zeros_mask(new), initial=z), 1, None)
                cost_cum += islice(accumulate(costs, initial=c), 1, None)
                if top >= n:
                    return
                m = len(bits)
        elif n > DEFAULT_CEILING:
            self._ensure(DEFAULT_CEILING, steps, zeros)
            if cost_cum[-1] <= steps and zero_cum[-1] < zeros:
                limit = (f"a budget of {steps} steps" if zeros == sys.maxsize
                         else f"a search for zero number {zeros}")
                raise CeilingExceeded(f"{self.name}: {limit} reads past bit "
                                      f"{DEFAULT_CEILING}, the index ceiling")
            return
        z = zero_cum[-1] if m else 0
        c = cost_cum[-1] if m else 0
        bit_fn, cost_fn = self._bit_fn, self._cost_fn
        while m <= n and c <= steps and z < zeros:
            b = 1 if bit_fn(m) else 0
            k = cost_fn(m)
            c += k if k > 1 else 1      # max(1, k) without a call per bit
            z += 1 - b
            bits.append(b)
            zero_cum.append(z)
            cost_cum.append(c)
            m += 1

    def read_ahead(self, n: int) -> None:
        """Grow the memo to n in one fill, ahead of a scan that reads bits
        0..n upward, if the fill's reach is unbounded: such a set cannot
        raise, so growing it past a scan's early exit shows nowhere.  Other
        sets are left to the scan, so no evaluator work moves."""
        if n >= len(self._bits) and self._fill and self._fill.reach() == sys.maxsize:
            self._ensure(n)

    @property
    def decided(self) -> int:
        """How many bits the memo holds: bits 0..decided-1 are read without
        another generator call.  A pattern set's ``bit`` past the memo adds
        none, though it reads the bit."""
        return len(self._bits)

    def bit(self, n: int) -> int:
        """Bit n: from the memo when it holds n, else from the set's pattern
        if it has one, which grows no memo, else from the memo grown to n."""
        if n >= len(self._bits):
            if self._pattern is not None:
                return self._pattern.bit(n)
            self._ensure(n)
        elif n < 0:
            raise ValueError(f"{self.name}: no bit {n}")
        return self._bits[n]

    def reader(self, n: int) -> Callable[[int], int]:
        """``bit`` for a scan of bits 0..n: the memo list's own lookup when
        the memo holds them all (it only grows in place), else ``bit``,
        which a pattern set answers past its memo from its pattern."""
        return self._bits.__getitem__ if n < len(self._bits) else self.bit

    def prefix(self, s: int) -> Prefix:
        """Initial segment of length s+1 (bits 0..s); empty at s = -1."""
        if s >= len(self._bits):
            self._ensure(s)
        elif s < -1:
            raise ValueError(f"{self.name}: no prefix through bit {s}")
        return Prefix(tuple(self._bits[:s + 1]))

    def zeros_by_index(self, s: int) -> int:
        """Zeros among bits 0..s; 0 for s < 0."""
        if s >= len(self._bits):
            self._ensure(s)
        elif s < 0:
            return 0
        return self._zero_cum[s]

    def bit_cost(self, n: int) -> int:
        if n >= len(self._bits):
            self._ensure(n)
        elif n < 0:
            raise ValueError(f"{self.name}: no bit {n}")
        return self._cost_cum[n] - (self._cost_cum[n - 1] if n else 0)

    def cum_cost(self, n: int) -> int:
        """Total generator cost of producing bits 0..n; 0 for n < 0."""
        if n >= len(self._bits):
            self._ensure(n)
        elif n < 0:
            return 0
        return self._cost_cum[n]

    def zeros_by_steps(self, s: int) -> int:
        """Zeros among the bits decidable within s total generator steps."""
        if self._pattern is not None:
            return self._pattern.steps_column((s,))[0]
        k = self.bits_within(s)
        return self._zero_cum[k - 1] if k else 0

    def bits_within(self, s: int) -> int:
        """How many bits, from bit 0 on, are decided within s total steps;
        the memo grows by the budget, bit by bit, to the first bit past s.
        A memo whose total cost already passes s holds that bit, so it is
        read without an ``_ensure`` entry, which would add no bit (each
        costs at least 1) and raise nothing (the ceiling test is a total
        within s)."""
        cost_cum = self._cost_cum
        if s > 0 and (not cost_cum or cost_cum[-1] <= s):
            # bits 0..s cost at least s + 1 steps, so growth stops by bit s
            self._ensure(s, steps=s)
        return bisect.bisect_right(cost_cum, s)

    def profile(self, points: Iterable[int], convention: str = "index") -> Iterator[int]:
        """zeros_by_index or zeros_by_steps at each point, in order, from
        one memo growth to the largest point.

        Points may come in any order; index points below 0 and step budgets
        of 0 and below count no zeros.  If a generator fails during the
        growth, the counts are read point by point instead, so the failure
        surfaces at the first point that needs the failing bit, as it would
        with one read per point.
        A pattern set counts step budgets by arithmetic and grows no memo.
        """
        if convention not in ("index", "steps"):
            raise ValueError(f"unknown convention {convention!r}")
        if convention == "index":
            return self._column(points, self._zero_cum, self.zeros_by_index)
        if self._pattern is not None:
            return iter(self._pattern.steps_column(points))
        points = points if isinstance(points, (list, tuple, range)) else list(points)
        try:
            self.bits_within(max(points, default=-1))
        except Exception:
            return map(self.zeros_by_steps, points)
        zc = self._zero_cum
        return iter([zc[k - 1] if k else 0
                     for k in map(bisect.bisect_right, repeat(self._cost_cum), points)])

    def cum_costs(self, points: Iterable[int]) -> Iterator[int]:
        """cum_cost at each point, read as ``profile`` reads zeros_by_index."""
        return self._column(points, self._cost_cum, self.cum_cost)

    def _column(self, points, memo: list, read) -> Iterator[int]:
        whole = isinstance(points, range) and points.step == 1 and 0 <= points.start < points.stop
        points = points if isinstance(points, (list, tuple, range)) else list(points)
        try:
            self._ensure(points[-1] if whole else max(points, default=-1))
        except Exception:
            return map(read, points)
        return iter(memo[points.start:points.stop] if whole
                    else [memo[s] if s >= 0 else 0 for s in points])

    def fresh_zeros(self, ceilings: Iterable[int], first: int = 1) -> Iterator[int]:
        """The zeros from the `first`-th on (counting from 1), the j-th while
        it is at most the j-th ceiling, read one per pick; stops at the first
        ceiling that hides its zero.  The memo grows only when it holds too
        few zeros, so it ends where one search per pick would end it."""
        zero_cum, last, k = self._zero_cum, -1, first
        for ceiling in ceilings:
            if last >= ceiling:
                return
            if not zero_cum or zero_cum[-1] < k:
                # the memo then holds the k-th zero or runs past the ceiling
                self._ensure(ceiling, zeros=k)
            last = bisect.bisect_left(zero_cum, k, last + 1)
            if last > ceiling:
                return
            yield last
            k += 1

    def next_zero(self, after: int, ceiling: int) -> int | None:
        """The least zero past `after` and at most `ceiling`, or None."""
        if after >= ceiling:
            return None
        k = self.zeros_by_index(after) + 1 if after >= 0 else 1
        return next(self.fresh_zeros((ceiling,), k), None)

    def principal_zero(self, n: int, ceiling: int = DEFAULT_CEILING) -> int:
        """Position of the (n+1)-st zero; CeilingExceeded if it lies past the
        ceiling, except on zero-list sets, which answer from their list."""
        pos = next(self.fresh_zeros((ceiling,), n + 1), None)
        if pos is None:
            raise CeilingExceeded(
                f"{self.name}: fewer than {n + 1} zeros below ceiling {ceiling}")
        return pos


# Range fills


class _Pattern:
    """head[n] below len(head), then `period` over and over; bit n costs
    1 + extra steps at unit cost, else n + 1 + extra.

    ``bit`` and ``cost`` are the per-bit generator of a set built from the
    pattern, and ``bit`` answers that set's bit reads past its memo; called
    as ``fill(m, n)`` it gives the bits and costs of bits m..n, and it
    reaches without end.  ``steps_column(points)`` counts the zeros among
    the bits decided within each step budget by arithmetic, so a step query
    grows no memo.
    """

    def __init__(self, head: tuple, period: tuple, unit_cost: bool = True, extra: int = 0):
        self.head, self.period, self.unit_cost, self.extra = head, period, unit_cost, extra
        self._ones = None   # members among the first j bits, j up to head + period

    def __eq__(self, other):
        return isinstance(other, _Pattern) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def _fields(self) -> tuple:
        return self.head, self.period, self.unit_cost, self.extra

    def bit(self, n: int) -> int:
        h = len(self.head)
        return self.head[n] if n < h else self.period[(n - h) % len(self.period)]

    def cost(self, n: int) -> int:
        return 1 + self.extra if self.unit_cost else n + 1 + self.extra

    def bits(self, m: int, n: int) -> list:
        head, period = self.head, self.period
        h = len(head)
        bits = list(head[m:n + 1])
        if n >= h:
            lo = max(m, h) - h              # offsets lo..n-h of the tail
            r = lo % len(period)
            bits += islice(cycle(period), r, r + n - h - lo + 1)
        return bits

    def reach(self) -> int:
        return sys.maxsize

    def __call__(self, m: int, n: int) -> tuple:
        e = self.extra
        return self.bits(m, n), ([1 + e] * (n - m + 1) if self.unit_cost
                                 else range(m + 1 + e, n + 2 + e))

    def steps_column(self, points: Iterable[int]) -> list:
        """Zeros among the k bits decided within each step budget: one pass
        over bits 0..k - 1 for the largest k up to 8 bits a point, where it
        costs as much as counting k by k, as a sparser column does."""
        e = self.extra
        if self.unit_cost:
            ks = [s // (1 + e) if s > 0 else 0 for s in points]
        else:
            # k bits cost k(k+1)/2 + k*e steps at cost n + 1 + e for bit n
            b = 2 * e + 1
            ks = [(math.isqrt(b * b + 8 * s) - b) // 2 if s > 0 else 0 for s in points]
        top = max(ks, default=0)
        if top > 8 * len(ks):
            return list(map(self._zeros_below, ks))
        zc = list(accumulate(_zeros_mask(self.bits(0, top - 1)), initial=0))
        return list(itemgetter(*ks)(zc)) if len(ks) > 1 else [zc[k] for k in ks]

    def _zeros_below(self, k: int) -> int:
        """Zeros among bits 0..k - 1, from the members of the head and one period."""
        h, p = len(self.head), len(self.period)
        if self._ones is None:
            self._ones = list(accumulate(self.bits(0, h + p - 1), initial=0))
        ones = self._ones
        if k <= h:
            return k - ones[k]
        q, r = divmod(k - h, p)
        return k - ones[h + r] - q * (ones[h + p] - ones[h])


def _rotated(period: tuple, r: int) -> tuple:
    r %= len(period)
    return period[r:] + period[:r]


def _zeros_mask(bits: Sequence[int]) -> bytearray:
    """1 at each zero of bits (0s and 1s), 0 at each one: compress's selector."""
    return bytearray(bits).translate(_FLIP)


def _zero_counts(bits: Sequence[int]) -> list:
    """Zeros among the first j bits, for j = 0..len(bits)."""
    return list(accumulate((1 - b for b in bits), initial=0))


def _flipped(p: _Pattern | None, pos: int) -> _Pattern | None:
    """p with bit pos forced to 1; None without p or past ``_PATTERN_MAX`` bits."""
    if p is None:
        return None
    h = max(len(p.head), pos + 1)
    if h + len(p.period) > _PATTERN_MAX:
        return None
    head = p.bits(0, h - 1)
    head[pos] = 1
    return _Pattern(tuple(head), _rotated(p.period, h - len(p.head)), p.unit_cost, p.extra)


def _lattice_pattern(px: _Pattern | None, py: _Pattern | None, pick) -> _Pattern | None:
    """The pattern of the join (pick=max) or meet (pick=min) of two
    normalised pattern sets, or None where the generic fill stays: an
    operand without a pattern, a unit cost side that costs more than an
    n + 1 side, or a pattern past ``_PATTERN_MAX`` bits.

    Past the longer head h, both zero counts gain a fixed number of zeros
    every span (the lcm of the periods).  With equal gains their difference
    repeats, so the bits repeat every span from bit h.  Otherwise the
    difference grows by the gap each span; from the first span past which
    it keeps its sign, pick keeps one operand's count, so the bits are that
    operand's.
    """
    # an operand past the cap makes no pattern and stays out of the cache,
    # so an entry holds three patterns of at most _PATTERN_MAX bits
    if (px is None or py is None or len(px.head) + len(px.period) > _PATTERN_MAX
            or len(py.head) + len(py.period) > _PATTERN_MAX):
        return None
    return _lattice_pattern_of(px, py, pick, _PATTERN_MAX)


@lru_cache(maxsize=_LATTICE_PATTERNS)
def _lattice_pattern_of(px: _Pattern, py: _Pattern, pick, cap: int) -> _Pattern | None:
    """_lattice_pattern under the cap ``_PATTERN_MAX``, kept by the
    operands' fields, pick and cap: sets share the pattern, which is
    immutable (its ``_ones`` is derived), and each keeps its own memo."""
    unit, other = (px, py) if px.unit_cost else (py, px)
    if unit.unit_cost and not other.unit_cost and unit.extra > other.extra:
        return None
    h = max(len(px.head), len(py.head))
    span = math.lcm(len(px.period), len(py.period))
    n = h + span
    if n > cap:
        return None
    zx, zy = _zero_counts(px.bits(0, n - 1)), _zero_counts(py.bits(0, n - 1))
    gx = px.period.count(0) * (span // len(px.period))
    gy = py.period.count(0) * (span // len(py.period))
    if gx == gy:
        bits = _climbs(_picked(pick, zx, zy))
        head, period = bits[:h], tuple(bits[h:])
    else:
        more, fewer = (zx, zy) if gx > gy else (zy, zx)
        gap = abs(gx - gy)
        low = min(map(sub, more[h:n], fewer[h:n]))
        # past `top`, more - fewer stays >= 0: max keeps `more`, min `fewer`
        top = h + max(0, gap - 1 - low) // gap * span
        kept = px if (gx > gy) == (pick is max) else py
        if top + len(kept.period) > cap:
            return None
        if top > n:
            zx, zy = _zero_counts(px.bits(0, top - 1)), _zero_counts(py.bits(0, top - 1))
        head = _climbs(_picked(pick, zx[:top + 1], zy[:top + 1]))
        period = _rotated(kept.period, top - len(kept.head))
    # the shortest period, then the shortest head, that give the same bits
    b = bytes(period)
    p = (b + b).find(b, 1)
    period = period[:p]
    k = len(head)
    while k and head[k - 1] == period[(k - 1 - len(head)) % p]:
        k -= 1
    return _Pattern(tuple(head[:k]), _rotated(period, k - len(head)),
                    px.unit_cost and py.unit_cost, max(px.extra, py.extra) + 1)


def _picked(pick, xs: Sequence[int], ys: Sequence[int]) -> list:
    """``list(map(pick, xs, ys))`` for pick max or min, compared inline
    rather than through a builtin call per element."""
    if pick is max:
        return [a if a >= b else b for a, b in zip(xs, ys)]
    return [a if a <= b else b for a, b in zip(xs, ys)]


def _running_max(values: Iterable[int]) -> list:
    """``list(accumulate(values, max, initial=0))[1:]``, six times as fast."""
    top = 0
    return [top := v if v > top else top for v in values]


def _climbs(zc: list) -> list:
    """The bits between consecutive zero counts: 1 unless the count climbs."""
    return [1 - b + a for a, b in zip(zc, islice(zc, 1, None))]


def _bit_costs(x: PrSet, m: int, n: int) -> list:
    """Per-bit costs of bits m..n of x, whose memo reaches n."""
    cum = x._cost_cum
    return list(map(sub, cum[m:n + 1], cum[m - 1:n] if m else [0] + cum[:n]))


class _MemoFill:
    """The fill of a derived set from its operands' memos: ``fn(m, n)``
    grows each operand to n and reads its arrays.  It reaches as far as its
    least operand, where a set reaches to the further of its memo and its
    fill, so without end when every operand does."""

    def __init__(self, fn: Callable[[int, int], tuple], *operands: PrSet):
        self.fn, self.operands = fn, operands

    def __call__(self, m: int, n: int) -> tuple:
        return self.fn(m, n)

    def reach(self) -> int:
        return min(max(len(x._bits) - 1, x._fill.reach() if x._fill else -1)
                   for x in self.operands)


def _flip(x: PrSet, pos: int, name: str, dsl: str | None) -> PrSet:
    """x with bit pos forced to 1: a pattern set where ``_flipped`` finds
    one, otherwise filled from x's memo."""
    pattern = _flipped(x._pattern, pos)
    if pattern:
        return _pattern_set(name, pattern, dsl)

    def fill(m, n):
        x._ensure(n)
        bits = x._bits[m:n + 1]
        if m <= pos <= n:
            bits[pos - m] = 1
        return bits, _bit_costs(x, m, n)

    return PrSet(name, lambda n: 1 if n == pos else x.bit(n), x.bit_cost, dsl=dsl,
                 fill=_MemoFill(fill, x))


# Builtins


def _pattern_set(name: str, pattern: _Pattern, dsl: str | None) -> PrSet:
    return PrSet(name, pattern.bit, pattern.cost, dsl=dsl, fill=pattern)


def evens_set() -> PrSet:
    return _pattern_set("evens", _Pattern((), (1, 0)), "evens")


def mod_set(k: int) -> PrSet:
    if k < 2:
        raise ParseError(f"mod K needs K >= 2, got {k}")
    if k > DEFAULT_CEILING:     # a longer period never shows in full
        raise ParseError(f"mod K needs K <= the index ceiling {DEFAULT_CEILING}, got {k}")
    return _pattern_set(f"mod{k}", _Pattern((), (1,) + (0,) * (k - 1)), f"mod {k}")


def singleton_zero_set() -> PrSet:
    return _pattern_set("id", _Pattern((1,), (0,)), "id")


def blocks_set(k: int) -> PrSet:
    """Period-2k blocks: k members then k non-members.

    Useful as a partner whose zero count oscillates around the halving line,
    crossing it at every period boundary.
    """
    if k < 1:
        raise ParseError(f"blocks K needs K >= 1, got {k}")
    if k > DEFAULT_CEILING:
        raise ParseError(f"blocks K needs K <= the index ceiling {DEFAULT_CEILING}, got {k}")
    return _pattern_set(f"blocks{k}", _Pattern((), (1,) * k + (0,) * k), f"blocks {k}")


def term_set(term, bound, name: str | None = None) -> PrSet:
    """Descriptor backed by a unary term with a declared step-bound term.

    A new bit runs the term once, clocked by the bound's value; both run
    through their compiled entries, called directly.  The entries are
    looked up on the set's first bit, and kept only once both lookups
    succeed, so a term or bound that is not well formed raises on every
    first bit.  The memo asks for a bit's cost right after the bit, so only
    the last run's steps are kept; the cost of any other bit runs the term
    again."""
    if isinstance(term, str):
        term = pr_lang.parse_term(term)
    if isinstance(bound, str):
        bound = pr_lang.parse_term(bound)
    term = pr_lang.unary_wrap(term)
    bound = pr_lang.unary_wrap(bound)
    term_text = pr_lang.serialize(term)
    bound_text = pr_lang.serialize(bound)
    last = [-1, 0]      # the bit evaluated last and its steps, for its cost
    limit = run = None  # the bound's and the term's entries, from the first bit on

    def bit(n):
        nonlocal limit, run
        if run is None:
            limit, run = pr_lang._compiled_for(bound, (n,)), pr_lang._compiled_for(term, (n,))
        budget = limit(0, pr_lang._UNBOUNDED, n)[0]
        try:
            value, steps = run(0, budget, n)
        except pr_lang._Abort:
            raise PunctualityViolation(
                f"term set {term_text} exceeded its bound {bound_text} at n={n}") from None
        last[0], last[1] = n, steps
        return 1 if value else 0

    def cost(n):
        if last[0] != n:
            bit(n)
        return last[1]

    return PrSet(name or f"term:{term_text}", bit, cost,
                 dsl=f'term "{term_text}" bound "{bound_text}"')


class _ZeroListSet(PrSet):
    """A set given by its zeros, which answers ``principal_zero`` from them."""

    def __init__(self, name: str, next_zero: Callable[[list], int]):
        self._zeros, self._next_zero = [], next_zero
        super().__init__(name, self._member, lambda n: n + 1)

    def _member(self, n: int) -> int:
        zeros = self._zeros
        while not zeros or zeros[-1] <= n:
            zeros.append(self._next_zero(zeros))
        i = bisect.bisect_left(zeros, n)
        return 0 if i < len(zeros) and zeros[i] == n else 1

    def principal_zero(self, n: int, ceiling: int = DEFAULT_CEILING) -> int:
        zeros = self._zeros
        while len(zeros) <= n:
            zeros.append(self._next_zero(zeros))
        return zeros[n]


def zero_list_set(name: str, next_zero: Callable[[list], int]) -> PrSet:
    """Set given by its (strictly increasing) zero positions; bit n costs n + 1.

    ``next_zero(zs)`` extends the list of known zeros; positions may be huge,
    so bits and principal zeros are derived from the list, never by scan.
    ``zs`` is the live list, not a copy: callbacks must not mutate it.
    """
    return _ZeroListSet(name, next_zero)


def prefix_set(name: str, bits: Sequence[int], *, dsl: str | None = None) -> PrSet:
    """Finite constructed prefix, extended past its end by alternating 1,0.

    The alternating tail keeps the set infinite and coinfinite at any
    horizon beyond the constructed part.
    """
    try:    # bytes() takes ints 0..255 only, so a list of 0s and 1s converts in C
        data = bytes(bits) if isinstance(bits, (list, tuple)) else b"\2"
    except (TypeError, ValueError):
        data = b"\2"
    bits = (tuple(data) if not data.translate(None, b"\0\1")
            else tuple(1 if int(b) else 0 for b in bits))
    return _pattern_set(name, _Pattern(bits, (1, 0), False), dsl)


# Derived descriptors


def sample_window_mixed(x: PrSet, horizon: int, window: int = 64) -> bool:
    """Sampled coinfiniteness check: the window past the horizon holds both
    a member and a non-member.  Descriptors are user-supplied, so this is
    evidence, not proof."""
    bits = x.prefix(horizon + window).bits[horizon:] if window >= 0 else ()
    return 0 in bits and 1 in bits


def override_zero_member(x: PrSet) -> PrSet:
    """Force 0 into the set (bit 0 becomes 1); identity if already there."""
    if x.bit(0) == 1:
        return x
    return _flip(x, 0, f"{x.name}+0", x.dsl)


def _lattice_op(x: PrSet, y: PrSet, pick, op: str, symbol: str) -> PrSet:
    """Join (pick=max) or meet (pick=min): its index profile is pick of the
    normalised operands' profiles, bit by bit.  Over two pattern sets it is
    a pattern set where ``_lattice_pattern`` finds one; otherwise its fill
    maps pick over the operands' zero-count arrays."""
    x = override_zero_member(x)
    y = override_zero_member(y)
    name = f"({x.name} {symbol} {y.name})"
    dsl = f"{op}({x.dsl}, {y.dsl})" if x.dsl and y.dsl else None
    pattern = _lattice_pattern(x._pattern, y._pattern, pick)
    if pattern:
        return _pattern_set(name, pattern, dsl)

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
        zc = _picked(pick, x._zero_cum[lo:n + 1], y._zero_cum[lo:n + 1])
        if not m:
            zc.insert(0, 0)
        bits = _climbs(zc)
        costs = [c + 1 for c in _picked(max, _bit_costs(x, m, n), _bit_costs(y, m, n))]
        return bits, costs

    return PrSet(name, bit,
                 lambda n: max(x.bit_cost(n), y.bit_cost(n)) + 1, dsl=dsl,
                 fill=_MemoFill(fill, x, y))


def set_join(x: PrSet, y: PrSet) -> PrSet:
    """Supremum carrier: its index profile is the pointwise max of the two."""
    return _lattice_op(x, y, max, "join", "v")


def set_meet(x: PrSet, y: PrSet) -> PrSet:
    """Infimum carrier: its index profile is the pointwise min of the two."""
    return _lattice_op(x, y, min, "meet", "^")


def drop_least_zero(x: PrSet) -> PrSet:
    """Flip the least zero of x to membership; profile drops by exactly one.
    Over a zero-list set it is the zero-list set of x's later zeros."""
    z0 = x.principal_zero(0)
    name, dsl = f"{x.name}^[-1]", f"drop({x.dsl})" if x.dsl else None
    if isinstance(x, _ZeroListSet):
        return zero_list_set(name, lambda zs: x.principal_zero(len(zs) + 1))
    return _flip(x, z0, name, dsl)


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


def _least_related(r: Relation, v: int) -> int:
    """The least element related to v under r (v itself if none is)."""
    return next((u for u in range(v + 1) if r.related(u, v)), v)


def in_principal_transversal(r: Relation, y: int) -> bool:
    return y != 0 and _least_related(r, y) == y


def principal_transversal(r: Relation, bound: int) -> Prefix:
    """Characteristic prefix of the least-representative transversal."""
    check_equivalence_sampled(r, bound)
    return Prefix(tuple(1 if in_principal_transversal(r, y) else 0
                        for y in range(bound + 1)))


def normal_form(r: Relation):
    """Carrier of the normal form plus the two reduction programs.

    Returns (X, f, g) where X is the complement of the principal
    transversal, f reduces r to the relation of X by least representatives,
    and g maps the main class back to 0 and keeps transversal points fixed.
    """
    check_equivalence_sampled(r, 40)

    memo: dict[int, bool] = {}

    def in_main(n):
        hit = memo.get(n)
        if hit is None:
            hit = memo[n] = not in_principal_transversal(r, n)
        return hit

    x = PrSet(f"nf[{r.name}]", lambda n: 1 if in_main(n) else 0,
              lambda n: n + 1)

    f = pr_lang.NativeProgram(f"nf-fwd[{r.name}]", lambda v: _least_related(r, v),
                              lambda v: v + 1)
    g = pr_lang.NativeProgram(
        f"nf-back[{r.name}]", lambda v: 0 if in_main(v) else v, lambda v: v + 1)
    return x, f, g


# ---------------------------------------------------------------------------
# Descriptor DSL


_PATH = re.compile(r"\s*([^\s,()]*)")


class _DslParser(pr_lang._Scanner):
    expected = "expected {ch!r} in descriptor"

    def quoted(self) -> str:
        if self.peek() != '"':
            raise ParseError("expected a quoted string", self.pos)
        end = self.text.find('"', self.pos + 1)
        if end < 0:
            raise ParseError("unterminated quote", self.pos)
        out = self.text[self.pos + 1:end]
        self.pos = end + 1
        return out

    def term(self) -> pr_lang.PrTerm:
        """A quoted term; an error in it names its position in the descriptor."""
        text = self.quoted()
        try:
            return pr_lang.parse_term(text)
        except (ParseError, ArityError) as exc:
            if exc.position is None:
                raise
            start = self.pos - 1 - len(text)    # the term text's first character
            raise type(exc)(exc.reason, start + exc.position) from None

    def path(self) -> str:
        if self.peek() == '"':
            return self.quoted()
        out = self.read(_PATH)
        if not out:
            raise ParseError("expected a path", self.pos)
        return out

    def expr(self) -> PrSet:
        word = self.word()
        if word == "evens":
            return evens_set()
        if word == "id":
            return singleton_zero_set()
        if word in ("mod", "blocks"):
            k = self.number(f"{word} needs a number")
            return mod_set(k) if word == "mod" else blocks_set(k)
        if word == "term":
            t = self.term()
            if self.word() != "bound":
                raise ParseError("term descriptor needs a bound", self.pos)
            return term_set(t, self.term())
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
    p = _DslParser(text)
    s = p.expr()
    p.end("trailing input after descriptor")
    return s
