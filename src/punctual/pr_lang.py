"""Primitive recursive term calculus: grammar, coding, clocked evaluation.

Concrete syntax (whitespace insignificant, ASCII only):

    Z                      constant zero, arity 0
    S                      successor, arity 1
    P[n,i]                 projection, arity n, 1 <= i <= n <= MAX_ARITY
    C(f; g1, ..., gk)      composition; k = arity(f), the g's share one arity
    R(base; step)          primitive recursion on the first argument

Recursion semantics: a term ``R(base; step)`` with ``arity(base) = n`` has
arity ``n + 1`` and evaluates as

    f(y, xs) = step(y, xs, y-1, ... step(y, xs, 1, step(y, xs, 0, base(xs))))

i.e. the step term receives the full argument tuple of f, then the loop
counter, then the accumulator, so ``arity(step) = n + 3``.  Under this
signature ``R(Z; C(S; P[3,3]))`` is the unary recursion whose step bumps the
accumulator: it returns its argument.

Cost model (version ``visits/1``): every node visit costs one step, and a
recursion on argument y performs one base evaluation plus y step
evaluations.  A clocked evaluation converges iff its total cost is strictly
below the given budget, which makes convergence monotone in the budget.

Evaluation compiles each term to Python source once and keeps the code on
the term object, so evaluating that object again finds it in O(1); a
bounded cache keyed by the term serves equal terms built afresh.  Terms
are immutable, so they are shared: ``parse_term`` returns the same object
for a repeated text (it keeps the 512 texts used last), ``unary_wrap``
keeps a non-unary term's wrap on the term, and ``serialize`` keeps each
composite node's text, so a repeated text, wrap or decoded program finds
its code without a parse or a lookup.  A term is validated when it is
compiled.  Visits are counted per straight-line block.  A recursion whose
step holds no recursion needs no loop: its caller computes it in closed
form.  Every other recursion is compiled once per process into a loop
function that every term holding it shares, so a new term compiles only
its entry; a loop that never reads its counter skips whole periods (see
the notes on compilation below).  Values, step counts and budget outcomes
are exactly those of the ``visits/1`` model.  A term text nests at most
``MAX_TERM_DEPTH`` compositions and recursions.  The parser reads through a
scanner that the descriptor DSL of ``sets`` shares; a number too long for
``int()`` is a ``ParseError`` at its first digit.

The Goedel coding is a direct coding of terms via Cantor pairing: every
natural number decodes to a well-formed term, except one that holds a
projection wider than ``MAX_ARITY`` (4096), which raises ``ArityError``;
``decode(encode(t))`` is ``t``.  Non-unary terms enter the public unary
enumeration through ``unary_wrap``, which feeds the single argument to
every slot.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import ArityError, BudgetExceeded, ParseError

COST_MODEL = "visits/1"


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Zero:
    def __repr__(self):
        return "Zero"


@dataclass(frozen=True)
class Succ:
    def __repr__(self):
        return "Succ"


@dataclass(frozen=True)
class Proj:
    n: int
    i: int

    def __repr__(self):
        return f"Proj({self.n},{self.i})"


def _hash_once(t, fields: tuple) -> int:
    """Hash of a composite term, computed on first use and kept.

    The compile cache hashes every new term object it is asked for, and a
    compile hashes each recursion it meets; terms are immutable, so a deep
    hash is needed only once per node.
    """
    h = t.__dict__.get("_hash")
    if h is None:
        h = hash(fields)
        object.__setattr__(t, "_hash", h)
    return h


@dataclass(frozen=True)
class Comp:
    outer: "PrTerm"
    inners: tuple

    def __hash__(self):
        return _hash_once(self, (self.outer, self.inners))

    def __repr__(self):
        return f"Comp({self.outer!r},{list(self.inners)!r})"


@dataclass(frozen=True)
class PrimRec:
    base: "PrTerm"
    step: "PrTerm"

    def __hash__(self):
        return _hash_once(self, (self.base, self.step))

    def __repr__(self):
        return f"PrimRec({self.base!r},{self.step!r})"


PrTerm = Union[Zero, Succ, Proj, Comp, PrimRec]

# Widest projection a term may hold.  Wrapping a term at another arity
# builds one projection per slot, so an unbounded arity exhausts memory;
# codes below 2**18 decode to projections of arity at most 418.
MAX_ARITY = 4096


def arity(t: PrTerm) -> int:
    if isinstance(t, Zero):
        return 0
    if isinstance(t, Succ):
        return 1
    if isinstance(t, Proj):
        return t.n
    if isinstance(t, Comp):
        return arity(t.inners[0])
    if isinstance(t, PrimRec):
        return arity(t.base) + 1
    raise TypeError(f"not a term: {t!r}")


def _node_arity(t: PrTerm, child_arities: Sequence[int], position: int | None) -> int:
    """Check one node whose children have the given arities; return its arity."""
    if isinstance(t, Zero):
        return 0
    if isinstance(t, Succ):
        return 1
    if isinstance(t, Proj):
        if t.n < 1 or not (1 <= t.i <= t.n):
            raise ArityError(f"projection P[{t.n},{t.i}] needs 1 <= i <= n", position)
        if t.n > MAX_ARITY:
            raise ArityError(f"projection P[{t.n},{t.i}] needs n <= {MAX_ARITY}", position)
        return t.n
    if isinstance(t, Comp):
        if not t.inners:
            raise ArityError("composition needs at least one inner term", position)
        k, inner = child_arities[0], child_arities[1:]
        if k != len(t.inners):
            raise ArityError(
                f"composition outer arity {k} != {len(t.inners)} inner terms", position)
        arities = set(inner)
        if len(arities) != 1:
            raise ArityError(f"composition inners have mixed arities {sorted(arities)}", position)
        if arities == {0}:
            raise ArityError("composition inners cannot be 0-ary", position)
        return inner[0]
    if isinstance(t, PrimRec):
        n, have = child_arities
        if have != n + 3:
            raise ArityError(
                f"recursion step arity {have} != base arity {n} + 3", position)
        return n + 1
    raise TypeError(f"not a term: {t!r}")


def _checked_arity(t: PrTerm, position: int | None) -> int:
    """Arity of t, checked at every node.  A composite node keeps its arity
    once checked, and a child object repeated in one node (the k copies of
    one projection in a coerced wrapper) is checked once, so a shared term
    is walked once; an error is never kept."""
    if isinstance(t, Comp):
        children = (t.outer, *t.inners)
    elif isinstance(t, PrimRec):
        children = (t.base, t.step)
    else:
        return _node_arity(t, (), position)
    n = t.__dict__.get("_arity")
    if n is None:
        child_arities, seen = [], {}
        for g in children:  # a plain loop keeps one frame per term level
            a = seen.get(id(g))
            if a is None:
                a = seen[id(g)] = _checked_arity(g, position)
            child_arities.append(a)
        n = _node_arity(t, child_arities, position)
        object.__setattr__(t, "_arity", n)
    return n


def validate(t: PrTerm, position: int | None = None) -> None:
    """Check arity consistency at every node; raise ArityError if violated."""
    _checked_arity(t, position)


# ---------------------------------------------------------------------------
# Concrete syntax


def serialize(t: PrTerm) -> str:
    """Canonical text of t; a composite node keeps its text after the first call."""
    if isinstance(t, (Comp, PrimRec)):
        text = t.__dict__.get("_text")
        if text is None:
            if isinstance(t, Comp):
                text = f"C({serialize(t.outer)}; {', '.join(map(serialize, t.inners))})"
            else:
                text = f"R({serialize(t.base)}; {serialize(t.step)})"
            object.__setattr__(t, "_text", text)
        return text
    if isinstance(t, Zero):
        return "Z"
    if isinstance(t, Succ):
        return "S"
    if isinstance(t, Proj):
        return f"P[{t.n},{t.i}]"
    raise TypeError(f"not a term: {t!r}")


# Deepest nesting of compositions and recursions a term text may have.
# Walks over a term recurse once per level: hashing, the code generator and
# evaluation take about three Python frames a level, the parser, the arity
# check and ``serialize`` one or two.  From the top of a fresh interpreter,
# at CPython's default recursion limit of 1000, every walk handled 330
# levels and none 333; 250 leaves about 250 frames for the caller's stack.
MAX_TERM_DEPTH = 250


class _Scanner:
    """A text and a position, with the reads that both text grammars share:
    terms here and descriptors in ``sets``.  Each read skips blanks first."""

    expected = "expected {ch!r}, got {got!r}"   # expect()'s message

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        """The next non-blank character, '' at the end; moves up to it."""
        ch = self.text[self.pos:self.pos + 1]
        if ch.isspace():    # most reads start at a token: skip the match then
            self.pos = _BLANKS.match(self.text, self.pos).end()
            ch = self.text[self.pos:self.pos + 1]
        return ch

    def read(self, pattern: re.Pattern) -> str:
        """The run that ``pattern`` (blanks, then one group) matches here:
        the group, maybe empty; moves past it."""
        m = pattern.match(self.text, self.pos)
        self.pos = m.end()
        return m[1]

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise ParseError(self.expected.format(ch=ch, got=got or "end of input"), self.pos)
        self.pos += 1

    def word(self) -> str:
        return self.read(_WORD)

    def number(self, missing: str = "expected a number") -> int:
        """A run of ASCII digits; ``missing`` is the message when none follows."""
        run = self.read(_DIGITS)
        start = self.pos - len(run)
        if not run:
            raise ParseError(missing, start)
        try:
            return int(run)
        except ValueError:      # past int()'s limit on digits
            raise ParseError(f"number of {len(run)} digits is too long", start) from None

    def end(self, trailing: str):
        """Raise ``trailing`` unless only blanks are left."""
        if self.peek():
            raise ParseError(trailing, self.pos)


_BLANKS = re.compile(r"\s*")
_WORD = re.compile(r"\s*(\w*)")       # \w: what isalnum() accepts, and '_'
_DIGITS = re.compile(r"\s*([0-9]*)")


class _Parser(_Scanner):
    depth = 0       # compositions and recursions open at pos

    def term(self) -> tuple[PrTerm, int]:
        """Parse one term; return it with its arity.

        Children are checked when they are built, so each node checks only
        itself and the whole parse stays linear in the text.
        """
        ch = self.peek()
        start = self.pos
        self.pos += 1
        if ch == "Z":
            return Zero(), 0
        if ch == "S":
            return Succ(), 1
        if ch == "P":
            self.expect("[")
            n = self.number()
            self.expect(",")
            i = self.number()
            self.expect("]")
            t = Proj(n, i)
            return t, _node_arity(t, (), start)
        if ch == "C" or ch == "R":
            if self.depth == MAX_TERM_DEPTH:
                raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH} levels", start)
            self.depth += 1
        if ch == "C":
            self.expect("(")
            outer, k = self.term()
            self.expect(";")
            parsed = [self.term()]
            while self.peek() == ",":
                self.expect(",")
                parsed.append(self.term())
            self.expect(")")
            t = Comp(outer, tuple(g for g, _ in parsed))
            self.depth -= 1
            return t, _node_arity(t, [k, *(a for _, a in parsed)], start)
        if ch == "R":
            self.expect("(")
            base, n = self.term()
            self.expect(";")
            step, m = self.term()
            self.expect(")")
            t = PrimRec(base, step)
            self.depth -= 1
            return t, _node_arity(t, (n, m), start)
        raise ParseError(f"expected a term, got {ch!r}" if ch else "unexpected end of input",
                         start)


# Bound of the parse memo, the compile cache and the loop cache (entries each).
_COMPILE_CACHE_SIZE = 512


@lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def parse_term(text: str) -> PrTerm:
    """The term a text denotes.

    A repeated text returns the same immutable object, so the code, wrap
    and text kept on it serve every caller; a bad text raises afresh.
    """
    if not text.isascii():
        raise ParseError("term text must be ASCII")
    p = _Parser(text)
    t, _ = p.term()
    p.end("trailing input after term")
    return t


# ---------------------------------------------------------------------------
# Clocked evaluation


@dataclass(frozen=True)
class Converged:
    value: int
    steps: int


@dataclass(frozen=True)
class OutOfBudget:
    pass


StepOutcome = Union[Converged, OutOfBudget]

OUT_OF_BUDGET = OutOfBudget()


class _Abort(Exception):
    pass


# Compilation to Python source.  A recursion-free term computes a constant
# or an argument plus a constant, so its value is an affine expression
# ``(name, offset)`` (name ``None`` for a constant) that needs no statement,
# and its cost, one visit per node, is static.  Only recursions emit code,
# as flat temp-variable statements; with no nested loops or expressions in
# one code object, deep terms stay within CPython's compile limits.  Every
# function body and loop body is a straight-line block; its static cost is
# added with one ``c += k`` and the budget is checked right after, so the
# counter never runs ahead of the true visit count and the last check sees
# the exact total.
#
# A recursion whose step holds no recursion is flat: its step block emits
# no lines, so y iterations cost y times the block's cost and the result
# is affine in the caller's names.  It gets no loop; the caller writes
# ``c += k * (y)``, one budget check and one temp: ``acc + off*y`` for a
# step ``acc + off``, otherwise the last step's value (``i`` is ``y - 1``
# there) or the base when ``y == 0``.  Every other recursion is compiled
# once per process by ``_loop``, keyed by (term, arity), into a function
# with one ``for`` loop, in its own namespace that binds the loops it
# calls; a term then compiles only its entry.  A generated function is
# taken out of its namespace after the ``exec``, so no namespace is a
# reference cycle and dropped code is freed as soon as nothing holds it.
#
# A loop body that never reads the counter ``i`` is a fixed map on ``acc``,
# since ``y`` and the ``x``s do not change.  The loop records each ``acc``
# with its iteration and count for its first ``_PERIOD_WINDOW`` iterations,
# and ``_skip`` ends it once one repeats.  Like the closed form, one budget
# check then stands for many iterations; the count only grows, so the run
# aborts exactly when its final total reaches the budget, as the
# per-iteration checks would.

_PERIOD_WINDOW = 64   # iterations a counter-free loop records its states for


def _skip(seen: dict, acc: int, i: int, y: int, c: int, b) -> tuple[int, int]:
    """Finish a counter-free loop whose state ``acc`` at iteration i repeats.

    ``seen`` maps each earlier state, in order, to (iteration, count before
    it); from ``acc``'s first visit j, states and costs repeat every i - j.
    """
    j, cj = seen[acc]
    periods, rest = divmod(y - i, i - j)
    acc = list(seen)[j + rest]
    c += periods * (c - cj) + seen[acc][1] - cj
    if c >= b:
        raise _Abort
    return acc, c


def _expr(val) -> str:
    name, offset = val
    if name is None:
        return str(offset)
    return f"{name} + {offset}" if offset else name


class _Block:
    """Straight-line statements of one generated function or loop body."""

    def __init__(self):
        self.lines: list[str] = []
        self.cost = 0
        self.reads: set = set()     # names the emitted lines read
        self.callees: dict = {}     # loop function -> its name in the namespace

    def value(self, t: PrTerm, args: Sequence[tuple]) -> tuple:
        """Emit t applied to affine args; return its affine value."""
        self.cost += 1
        if isinstance(t, Zero):
            return (None, 0)
        if isinstance(t, Succ):
            name, offset = args[0]
            return (name, offset + 1)
        if isinstance(t, Proj):
            return args[t.i - 1]
        if isinstance(t, Comp):
            inner = []
            for g in t.inners:  # a plain loop keeps one frame per term level
                inner.append(self.value(g, args))
            return self.value(t.outer, inner)
        if isinstance(t, PrimRec):
            acc = self.value(t.base, args[1:])
            loop = _loop(t, len(args))
            if isinstance(loop, tuple):
                return self.closed_form(*loop, args, acc)
            name = self.callees.setdefault(loop, f"r{len(self.callees)}")
            temp = self.temp((*args, acc))
            self.lines.append(
                f"{temp}, c = {name}(c, b, {', '.join(_expr(v) for v in (*args, acc))})")
            return (temp, 0)
        raise TypeError(f"not a term: {t!r}")

    def closed_form(self, cost: int, step: tuple, args: Sequence[tuple], acc: tuple) -> tuple:
        """Emit a flat recursion on args whose step costs ``cost`` and
        returns the affine ``step`` of the loop's names; return its value."""
        y = args[0]
        self.reads.add(y[0])
        self.lines += [f"c += {cost} * ({_expr(y)})", "if c >= b: raise _Abort"]
        name, offset = step
        if name == "acc":
            if not offset:
                return acc
            line, reads = f"{_expr(acc)} + {offset} * ({_expr(y)})", (acc,)
        else:   # a flat step's other names are i, y and the x's: never a constant
            last = (y[0], y[1] - 1) if name == "i" else args[0 if name == "y" else int(name[1:])]
            last = (last[0], last[1] + offset)
            line, reads = f"{_expr(last)} if {_expr(y)} else {_expr(acc)}", (acc, last)
        temp = self.temp(reads)
        self.lines.append(f"{temp} = {line}")
        return (temp, 0)

    def temp(self, reads: Sequence[tuple]) -> str:
        """Name for the next line's result; that line reads ``reads``."""
        self.reads.update(name for name, _ in reads)
        return f"t{len(self.lines) + 1}"


def _define(name: str, lines: list, callees: dict) -> Callable:
    """Compile the function ``name`` from lines, in a namespace of its own
    that binds its callees; the function is not left in that namespace."""
    namespace = {"_Abort": _Abort, "_skip": _skip}
    namespace.update((callee, fn) for fn, callee in callees.items())
    exec(compile("\n".join(lines), "<pr_lang term>", "exec"), namespace)
    return namespace.pop(name)


@lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def _loop(t: PrimRec, n: int) -> Union[tuple, Callable]:
    """How the recursion t runs at arity n.

    A flat step gives ``(cost, value)``: its block's cost and its affine
    value in the loop's names ``y, x1, ..., i, acc``.  Any other step gives
    the compiled ``loop(c, b, y, x1, ..., acc)``, which returns (acc, c).
    """
    xs = [f"x{j}" for j in range(1, n)]
    body = _Block()
    acc = body.value(t.step, [(p, 0) for p in ("y", *xs, "i", "acc")])
    if not body.lines:
        return body.cost, acc
    run = ["for i in range(y):",
           f"    c += {body.cost}",
           "    if c >= b: raise _Abort",
           *(f"    {line}" for line in body.lines),
           *([f"    acc = {_expr(acc)}"] if acc != ("acc", 0) else [])]
    if "i" not in body.reads and acc[0] != "i":    # counter-free
        run[1:1] = [f"    if i < {_PERIOD_WINDOW}:",
                    "        if acc in seen: return _skip(seen, acc, i, y, c, b)",
                    "        seen[acc] = i, c"]
        run.insert(0, "seen = {}")
    return _define("loop", [
        f"def loop(c, b, {', '.join(('y', *xs, 'acc'))}):",
        *(f"    {line}" for line in run),
        "    return acc, c",
    ], body.callees)


@lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def _compiled(t: PrTerm) -> tuple[int, Callable]:
    """(arity, entry) of t; ``entry(0, budget, *args)`` returns (value, visits).

    The entry raises ``_Abort`` as soon as the visit count reaches the budget.
    A term that is not well formed raises ArityError here.
    """
    n = _checked_arity(t, None)
    params = [f"a{j}" for j in range(n)]
    body = _Block()
    value = body.value(t, [(p, 0) for p in params])
    return n, _define("entry", [
        f"def entry(c, b, {', '.join(params)}):",
        f"    c += {body.cost}",
        "    if c >= b: raise _Abort",
        *(f"    {line}" for line in body.lines),
        f"    return {_expr(value)}, c",
    ], body.callees)


_UNBOUNDED = float("inf")


def _compiled_for(t: PrTerm, args: Sequence[int]) -> Callable:
    """The entry of t, kept on the term object after its first lookup."""
    code = t.__dict__.get("_code")
    if code is None:
        code = _compiled(t)
        object.__setattr__(t, "_code", code)
    n, fn = code
    if len(args) != n:
        raise ArityError(f"term of arity {n} applied to {len(args)} arguments")
    return fn


def eval_clocked(t: PrTerm, args: Sequence[int], budget: int) -> StepOutcome:
    """Evaluate t on args; converges iff total cost < budget."""
    fn = _compiled_for(t, args)
    try:
        value, steps = fn(0, budget, *args)
    except _Abort:
        return OUT_OF_BUDGET
    return Converged(value, steps)


def eval_total(t: PrTerm, args: Sequence[int]) -> int:
    """Unclocked evaluation; every term is total."""
    return _compiled_for(t, args)(0, _UNBOUNDED, *args)[0]


def eval_cost(t: PrTerm, args: Sequence[int]) -> int:
    """Exact node-visit cost of evaluating t on args."""
    return _compiled_for(t, args)(0, _UNBOUNDED, *args)[1]


# ---------------------------------------------------------------------------
# Derived combinators

CONST0_UNARY = PrimRec(Zero(), Proj(3, 3))


def zero_of_arity(n: int) -> PrTerm:
    """The constant-zero term of arity n >= 1."""
    if n < 1:
        raise ArityError("zero_of_arity needs n >= 1")
    return Comp(CONST0_UNARY, (Proj(n, 1),))


def coerce_arity(t: PrTerm, n: int) -> PrTerm:
    """Reuse t at arity n: feed the first argument to every slot."""
    k = arity(t)
    if k == n:
        return t
    if n < 1:
        raise ArityError("cannot coerce to arity 0")
    if k == 0:
        return zero_of_arity(n)
    return Comp(t, (Proj(n, 1),) * k)


def unary_wrap(t: PrTerm) -> PrTerm:
    """t at arity 1; a non-unary t keeps its wrap, so each call returns it."""
    wrapped = t.__dict__.get("_unary")
    if wrapped is None:
        wrapped = coerce_arity(t, 1)
        if wrapped is not t:
            object.__setattr__(t, "_unary", wrapped)
    return wrapped


def const_term(c: int) -> PrTerm:
    """Unary term computing the constant c."""
    t: PrTerm = CONST0_UNARY
    for _ in range(c):
        t = Comp(Succ(), (t,))
    return t


# ---------------------------------------------------------------------------
# Goedel coding: decode up to MAX_ARITY, injective encode, decode(encode(t)) == t.


def cantor_pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def cantor_unpair(z: int) -> tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


def _pair_list(xs: Sequence[int]) -> int:
    acc = xs[-1]
    for x in reversed(xs[:-1]):
        acc = cantor_pair(x, acc)
    return acc


def _unpair_list(z: int, k: int) -> list[int]:
    out = []
    for _ in range(k - 1):
        a, z = cantor_unpair(z)
        out.append(a)
    out.append(z)
    return out


def encode(t: PrTerm) -> int:
    if isinstance(t, Zero):
        return 0
    if isinstance(t, Succ):
        return 1
    if isinstance(t, Proj):
        return 2 + 3 * cantor_pair(t.n - 1, t.i - 1)
    if isinstance(t, Comp):
        payload = cantor_pair(encode(t.outer), _pair_list([encode(g) for g in t.inners]))
        return 3 + 3 * payload
    if isinstance(t, PrimRec):
        return 4 + 3 * cantor_pair(encode(t.base), encode(t.step))
    raise TypeError(f"not a term: {t!r}")


@lru_cache(maxsize=1 << 16)
def decode(e: int) -> PrTerm:
    """Every natural denotes a well-formed term, unless it holds a projection
    wider than ``MAX_ARITY``: then ArityError."""
    if e == 0:
        return Zero()
    if e == 1:
        return Succ()
    m, tag = divmod(e - 2, 3)
    if tag == 0:
        a, b = cantor_unpair(m)
        n = a + 1
        if n > MAX_ARITY:
            raise ArityError(f"code {e} decodes to a projection of arity {n} > {MAX_ARITY}")
        return Proj(n, (b % n) + 1)
    if tag == 1:
        a, b = cantor_unpair(m)
        outer = decode(a)
        k = arity(outer)
        if k == 0:
            return outer
        inners = [decode(x) for x in _unpair_list(b, k)]
        n = max(1, max(arity(g) for g in inners))
        return Comp(outer, tuple(coerce_arity(g, n) for g in inners))
    a, b = cantor_unpair(m)
    base = decode(a)
    return PrimRec(base, coerce_arity(decode(b), arity(base) + 3))


def converges_within(e: int, x: int, s: int) -> Optional[int]:
    """Value of the e-th unary program on x if it converges in < s steps."""
    outcome = eval_clocked(unary_wrap(decode(e)), [x], s)
    if isinstance(outcome, Converged):
        return outcome.value
    return None


# ---------------------------------------------------------------------------
# Clocked unary programs: the common currency for opponents and witnesses.


class ClockedProgram:
    """A total unary function with a deterministic step-cost assignment.

    value(x) is total; cost(x) is the number of steps needed, so
    converges_within(x, s) returns the value exactly when cost(x) < s.
    values_at(points) is value at each point, in order, read point by point
    here; native programs map their function, tables read the column whole.
    A column fails where its first failing point does, with that error.
    """

    name: str

    def value(self, x: int) -> int:
        raise NotImplementedError

    def cost(self, x: int) -> int:
        raise NotImplementedError

    def converges_within(self, x: int, s: int) -> Optional[int]:
        if self.cost(x) < s:
            return self.value(x)
        return None

    def values_at(self, points: Iterable[int]) -> Sequence[int]:
        return list(map(self.value, points))

    def __repr__(self):
        return f"<program {self.name}>"


class TermProgram(ClockedProgram):
    """Program backed by a unary term; cost is the evaluator's node count."""

    def __init__(self, term: PrTerm, name: str | None = None):
        validate(term)
        self.source = term
        self.term = unary_wrap(term)
        self.name = name if name is not None else serialize(term)
        self._memo: dict[int, tuple[int, int]] = {}

    def _run(self, x: int) -> tuple[int, int]:
        hit = self._memo.get(x)
        if hit is None:
            hit = self._memo[x] = _compiled_for(self.term, (x,))(0, _UNBOUNDED, x)
        return hit

    def value(self, x: int) -> int:
        return self._run(x)[0]

    def cost(self, x: int) -> int:
        return self._run(x)[1]


class NativeProgram(ClockedProgram):
    """Program backed by a Python callable with a declared cost function.

    Used where term evaluation is infeasible (very large values); the cost
    function stands in for the step counter and must be deterministic.
    """

    def __init__(self, name: str, fn: Callable[[int], int],
                 cost_fn: Callable[[int], int] = lambda x: 1):
        self.name = name
        self.fn = fn
        self.cost_fn = cost_fn

    def value(self, x: int) -> int:
        return self.fn(x)

    def values_at(self, points: Iterable[int]) -> Sequence[int]:
        return list(map(self.fn, points))

    def cost(self, x: int) -> int:
        return self.cost_fn(x)


class TableProgram(ClockedProgram):
    """Program backed by a finite table; lookups cost one step."""

    def __init__(self, values: Sequence[int], name: str = "table"):
        self.values = tuple(values)
        self.name = name

    def value(self, x: int) -> int:
        if 0 <= x < len(self.values):
            return self.values[x]
        raise self._off_table(x)

    def _off_table(self, x: int) -> BudgetExceeded:
        return BudgetExceeded(f"table program {self.name} has horizon {self.horizon}, "
                              f"asked for {x}")

    def cost(self, x: int) -> int:
        return 1

    def values_at(self, points: Iterable[int]) -> Sequence[int]:
        values, end = self.values, len(self.values)
        r = points if isinstance(points, range) and points.step == 1 else range(-1)
        if 0 <= r.start <= r.stop <= end:
            return values[r.start:r.stop]
        return [values[x] if 0 <= x < end else self.value(x) for x in points]

    @property
    def horizon(self) -> int:
        return len(self.values) - 1


class FloorTableProgram(TableProgram):
    """Table that is a dense prefix, then max(x + 1, floor) up to the horizon.

    This is the shape of a step-rate table past the source's reach; the
    dense ``values`` tuple is built on demand, never stored.
    """

    def __init__(self, prefix: Sequence[int], floor: int, horizon: int,
                 name: str = "table"):
        self.prefix = tuple(prefix)
        self.floor = floor
        self._horizon = max(horizon, len(self.prefix) - 1)
        self.name = name

    def value(self, x: int) -> int:
        if not 0 <= x <= self._horizon:
            raise self._off_table(x)
        return self.prefix[x] if x < len(self.prefix) else max(x + 1, self.floor)

    def values_at(self, points: Iterable[int]) -> Sequence[int]:
        """A range up by 1 from 0 is built as prefix, floor run and climb."""
        prefix, floor, n, top = self.prefix, self.floor, len(self.prefix), self._horizon
        r = points if isinstance(points, range) and points.step == 1 else range(-1)
        if r.start == 0 <= r.stop <= top + 1:
            run = max(0, min(floor, r.stop) - n)
            return (*prefix[:r.stop], *[floor] * run, *range(n + run + 1, r.stop + 1))
        return [(prefix[x] if x < n else floor if x < floor else x + 1) if 0 <= x <= top
                else self.value(x) for x in points]

    values = property(lambda self: self.values_at(range(self._horizon + 1)))

    @property
    def horizon(self) -> int:
        return self._horizon


NATIVE_REGISTRY: dict[str, NativeProgram] = {
    "id": NativeProgram("id", operator.index),    # the identity on ints, in C
    "succ": NativeProgram("succ", lambda x: x + 1, lambda x: 3),
    "plus2": NativeProgram("plus2", lambda x: x + 2, lambda x: 5),
    "double": NativeProgram("double", lambda x: 2 * x, lambda x: 2 + 5 * x),
    "triple": NativeProgram("triple", lambda x: 3 * x, lambda x: 2 + 7 * x),
    "square": NativeProgram("square", lambda x: x * x, lambda x: 2 + (x + 2) * x),
    "square_plus": NativeProgram("square_plus", lambda x: x * x + x + 1,
                                 lambda x: 4 + (x + 3) * x),
    "const0": NativeProgram("const0", lambda x: 0),
    "const1": NativeProgram("const1", lambda x: 1, lambda x: 2),
    "const5": NativeProgram("const5", lambda x: 5, lambda x: 6),
}


def resolve_program(text: str) -> ClockedProgram:
    """Resolve a family entry: `@name` hits the native registry, else a term."""
    text = text.strip()
    if text.startswith("@"):
        name = text[1:]
        if name not in NATIVE_REGISTRY:
            raise ParseError(f"unknown native program @{name}")
        return NATIVE_REGISTRY[name]
    return TermProgram(parse_term(text))


def program_text(p: ClockedProgram) -> str:
    """Canonical family-file text for a program."""
    if isinstance(p, TermProgram):
        return serialize(p.source)
    if isinstance(p, NativeProgram):
        return f"@{p.name}"
    raise ParseError(f"program {p!r} has no canonical text form")
