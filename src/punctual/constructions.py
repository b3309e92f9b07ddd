"""Deterministic stage machine and the diagonalization constructions.

Every construction runs in stages against a finite ordered family of
clocked opponents, opening and closing requirement cycles, and emits one
bit per output set per stage.  The run is a pure function of its inputs:
two runs with equal inputs produce byte-identical traces.

One driver, ``_drive``, owns the stage loop of every construction, the
separator's included: scheduling, cycle open, the cycle budget, one trace
record per stage and exhaustion at the end of the run.  Each construction
supplies a ``_Machine`` whose ``step`` and ``fallback`` emit a stage's bits
and append its events, close events included.  A machine reads each input
through ``PrSet.reader``, the memo list's own lookup once the builder has
read the input ahead, and appends each output bit to that output's list,
which is also its trace column; it keeps only the zero counts it reads.

Under the ``once`` policy the requirement list is processed in order and,
after the last cycle closes, emission follows a fixed fallback that keeps
the construction's structural invariants (alternating tail, donor copying
for the density machine, filler cycles for splits and diamonds).  Under
``round-robin`` the family is revisited forever.  A cycle that cannot
close by ``max_stages`` (or within ``cycle_budget`` stages) aborts the run
with StageBudgetExhausted naming the cycle and phase; at desk scale an
opponent may genuinely satisfy the reduction the cycle is trying to
refute, so exhaustion is a first-class outcome.

``CONSTRUCTIONS`` maps each kind to its public builder, its header input
roles and its validator; the command line, replay and validation read it.

A trace keeps its records as columns (stage, cycle, phase, sparse events)
and its bits as the machines' own output lists, written as text in one
join and read back one line at a time.  ``verify_trace_file`` replays
from the header alone and parses the records only when the replay raises
or its bytes differ, so a malformed record is still the first error
reported.
Validators compare zero-count columns: each reads every set's index
profile once, as a list, and checks whole columns (a meet or join of
outputs is their pointwise min or max, as in the lattice); only a failing
check looks for the first index that differs, to name it.
To add a construction, write a machine that declares its output names
and prefix convention, a builder that hands ``_drive`` its name and its
input sets by role, a validator that reads ``result.inputs`` and
``result.outputs``, and one registry entry.  ``_drive`` writes the header
from the machine and the inputs; a result's ``notes`` hold only evidence
the validator re-checks against the family and the outputs.
"""

from __future__ import annotations

import bisect
import functools
from functools import partial
from itertools import islice, product, zip_longest
from operator import gt, le
from typing import Callable, NamedTuple, Optional, Sequence

from . import _text, pr_lang
from .errors import NotCertified, ParseError, PreconditionFailed, StageBudgetExhausted
from .lattice import anti_reduction_evidence, equilibrium_points, family_hash
from .pr_lang import COST_MODEL, ClockedProgram, cantor_pair, program_text, resolve_program
from .reductions import (
    _PAIR_PREDICATES,
    Counterexample,
    ReductionWitness,
    _fresh_pick_table,
    check_reduction_prefix,
    detect_counterexample,
    domination_certificate,
    revalidate_counterexample,
    verify_claim,
)
from .sets import (
    DEFAULT_CEILING,
    PrSet,
    Relation,
    SetRelation,
    _picked,
    drop_least_zero,
    override_zero_member,
    parse_set,
    prefix_set,
    sample_window_mixed,
    set_join,
)

TRACE_FORMAT = "punctual-trace/1"
_RECORD_FIELDS = ("stage", "cycle", "phase", "bits", "events")


# ---------------------------------------------------------------------------
# Trace plumbing


class StageRecord(NamedTuple):
    stage: int
    cycle: str
    phase: str
    events: tuple              # strings


class Trace:
    def __init__(self, header: list, stages: Sequence = None, cycles: list = None,
                 phases: list = None, events: dict = None, columns: dict = None,
                 footer: list = None):
        self.header = header  # ordered (key, value) pairs; keys may repeat
        self.stages = [] if stages is None else stages  # range(n) for a run, else a list
        self.cycles = [] if cycles is None else cycles
        self.phases = [] if phases is None else phases
        self.events = {} if events is None else events  # record index -> events; none empty
        self.columns = {} if columns is None else columns  # output name -> bits
        self.footer = [] if footer is None else footer

    @property
    def records(self) -> list:
        """The records as ``StageRecord``s, a read-only view of the columns."""
        return [StageRecord(s, c, p, self.events.get(i, ()))
                for i, (s, c, p) in enumerate(zip(self.stages, self.cycles, self.phases))]

    def first_bit_stage(self) -> int:
        """Stage showing bit 0: 1 under the ``stage`` convention, else 0."""
        return 1 if self.header_value("prefix-convention") == "stage" else 0

    def _bits_field(self) -> list:
        """Each record's bits field; records past a column show none of it."""
        skip = ["-"] * min(self.first_bit_stage(), len(self.stages))
        shown = len(self.stages) - len(skip)
        names, columns = list(self.columns), list(self.columns.values())
        # one lookup per record in a table of every 0/1 field (2^k entries for
        # k columns, so at most three), by the bit or the record's tuple of
        # bits, unless a column runs short or a parsed trace holds another int
        if 0 < len(columns) <= 3 and all(len(bits) >= shown for bits in columns):
            one = len(columns) == 1
            table = {bits[0] if one else bits: ",".join(map("{}={}".format, names, bits))
                     for bits in product((0, 1), repeat=len(names))}
            keys = columns[0] if one else zip(*columns)
            try:
                return skip + list(map(table.__getitem__, islice(keys, shown)))
            except KeyError:
                pass
        fields = [[f"{k}={b}" for b in bits[:shown]] for k, bits in self.columns.items()]
        return skip + [",".join(filter(None, parts)) or "-"
                       for parts in zip_longest([""] * shown, *fields, fillvalue="")]

    def serialize(self) -> str:
        events = ["-"] * len(self.stages)
        for i, evs in self.events.items():
            events[i] = ";".join(evs) or "-"
        records = _text.rows([_text.decimals(self.stages), self.cycles, self.phases,
                              self._bits_field(), events])
        return (f"{TRACE_FORMAT}\n{_text.pair_lines(self.header)}---\n{records}"
                f"---\n{_text.pair_lines(self.footer)}")

    def header_value(self, key: str) -> Optional[str]:
        return next((v for k, v in self.header if k == key), None)

    def header_all(self, key: str) -> list:
        return [v for k, v in self.header if k == key]


def _required(trace: Trace, key: str) -> str:
    """A header value that must be present; ParseError names the key."""
    value = trace.header_value(key)
    if value is None:
        raise ParseError(f"trace header has no {key!r} line")
    return value


def _split_trace(text: str):
    """A trace text's header pairs, its record lines with the line number
    of the first, and its footer pairs.

    The first two ``---`` lines end the header and the records; the footer
    skips blank lines.  Only a text without the format line raises here.
    """
    lines = _text.split_lines(text)
    if not lines or lines[0] != TRACE_FORMAT:
        raise ParseError("not a trace file")

    marks = lines + ["---", "---"]      # a missing ``---`` ends the text
    head = marks.index("---", 1)
    body = marks.index("---", head + 1)
    footer = _text.pairs(filter(None, lines[body + 1:]))
    return _text.pairs(lines[1:head]), lines[head + 1:body], head + 2, footer


def _parse_records(lines: list, first: int) -> tuple:
    """The record lines' columns, events by record and bits by output, one
    line at a time; the first bad line raises, naming its line in the file."""
    stages, cycles, phases, events, columns = [], [], [], {}, {}
    try:
        for i, line in enumerate(lines):
            stage, cycle, phase, bits, evs = line.split("\t")
            for n, b in [p.split("=") for p in bits.split(",")] if bits != "-" else []:
                columns.setdefault(n, []).append(int(b))
            stages.append(int(stage))
            cycles.append(cycle)
            phases.append(phase)
            if evs != "-":
                events[i] = tuple(evs.split(";"))
    except ValueError:
        raise ParseError(f"malformed trace record on line {first + i}: {line!r}") from None
    return stages, cycles, phases, events, columns


def parse_trace(text: str) -> Trace:
    header, lines, first, footer = _split_trace(text)
    return Trace(header, *_parse_records(lines, first), footer)


class ConstructionResult:
    def __init__(self, name: str, outputs: dict, trace: Trace, counterexamples: list,
                 inputs: dict = None, witnesses: dict = None, notes: dict = None):
        self.name = name
        self.outputs = outputs
        self.trace = trace
        self.counterexamples = counterexamples  # (cycle, Counterexample, source role, target role)
        self.inputs = {} if inputs is None else inputs  # role -> set, as the header lists them
        self.witnesses = {} if witnesses is None else witnesses
        self.notes = {} if notes is None else notes  # evidence the validator re-checks

    def output(self) -> PrSet:
        """The first output set."""
        return next(iter(self.outputs.values()))


# ---------------------------------------------------------------------------
# Incremental permanent-violation detector


class _Detector:
    """Stage-incremental form of the definitional detectors.

    Eligibility and the fired condition are monotone in the stage, so each
    input is examined once when it becomes eligible and each unordered pair
    once, with the flavour's pair predicate; on the first hit the
    definitional scan extracts the least pair for the record.  Each side of
    the claim is a relation or a decided bit prefix, as in the detectors.
    The program is asked only converges_within(l, s), never a cost or a
    value, so a member that converges late costs the scan no more than s.
    """

    def __init__(self, flavor: str, program: ClockedProgram):
        self.flavor = flavor
        self.pair = _PAIR_PREDICATES[flavor]
        self.program = program
        self.eligible: list = []
        self.pending: list = []
        self.next_l = 0
        self.fired = False

    def scan(self, s: int, source, target) -> bool:
        """Advance to stage budget s; True once some eligible pair fires."""
        if self.fired:
            return True
        limit = s + 1 if isinstance(source, Relation) else len(source)
        images = None if isinstance(target, Relation) else len(target)
        self.pending.extend(range(self.next_l, limit))
        self.next_l = max(self.next_l, limit)
        prog, pair = self.program, self.pair
        still = []
        for l in self.pending:
            lv = prog.converges_within(l, s)
            if lv is None or images is not None and lv >= images:
                still.append(l)
                continue
            for m, mv in self.eligible:
                left, right = pair(source, target, l, m, lv, mv)
                if left == right:
                    self.fired = True
                    return True
            self.eligible.append((l, lv))
        self.pending = still
        return False

    def extract(self, s: int, source, target) -> Counterexample:
        """Definitional least-pair scan at the firing stage."""
        cex = detect_counterexample(self.flavor, self.program, source, target, s)
        if cex is None:
            raise AssertionError("incremental detector fired but full scan found nothing")
        return cex._replace(member=self.program.name)


# ---------------------------------------------------------------------------
# The stage-machine driver


def _schedule(kinds: Sequence[str], family_size: int, policy: str,
              relation_count: int = 1):
    """Requirement cycles as (label, member index, relation index, kind).

    Slots (member, relation) come in Cantor-pairing order, one cycle per
    kind each; the label numbers the slot, so round-robin labels wrap.
    """
    slots = sorted(((e, i) for e in range(family_size)
                    for i in range(relation_count)),
                   key=lambda p: cantor_pair(p[0], p[1]))
    while slots:
        for n, (e, i) in enumerate(slots):
            for kind in kinds:
                yield f"{kind}{n}", e, i, kind
        if policy == "once":
            return


class _Cycle:
    """An open requirement cycle; fillers have no member and no watch."""

    def __init__(self, label: str, kind: str, member: Optional[int], relation: int,
                 watch: object, phase: str, opened: int):
        self.label = label
        self.kind = kind
        self.member = member
        self.relation = relation
        self.watch = watch  # per-cycle detector state
        self.phase = phase
        self.opened = opened


class _Machine:
    """The per-construction half of a stage run; ``_drive`` owns the loop.

    A subclass declares its output names, its prefix convention, the
    requirement kinds and the phase a cycle opens in.  It is built as
    ``cls(family, policy, max_stages, inputs)``, inputs by role, and
    supplies ``step(stage, cycle, events)``: emit this stage's bits in
    the open cycle, append its events (``close`` appends the close event)
    and return the phase to show and whether the cycle closed.
    ``fallback(stage, events)`` does the same for a stage with no cycle.
    A counterexample names its sides by input role, output name or
    relation name; ``notes`` keeps the evidence the validator re-checks.
    """

    names = ("Y",)             # output names, in header order
    convention = "stage"       # stage s shows bit s - 1; "stage+1": bit s
    kinds = ("P", "Q")
    phase = "copy"             # phase a scheduled cycle opens in
    filler_phase = None        # phase of filler cycles F<i>; None: fall back

    def __init__(self, family, policy, max_stages, inputs, relation_count=1):
        self.family, self.policy = family, policy
        self.outputs = {n: [] for n in self.names}     # name -> bits, its trace column
        self.y = self.outputs[self.names[0]]
        self.slots = _schedule(self.kinds, len(family), policy, relation_count)
        self.counterexamples: list = []
        self.notes: dict = {}
        self.flip = 0

    def watch(self, kind, member, relation):
        return _Detector("RX_to_RY", self.family[member])

    def init(self, cycle) -> None:
        """Stage 0: the stage+1 convention emits a bit per output here."""

    def fallback(self, stage, events) -> None:
        """No cycle left: an alternating tail keeps the output coinfinite."""
        self.flip = 1 - self.flip
        self.y.append(self.flip)

    def starved(self, cycle) -> str:
        return "open cycle at the stage budget"

    def close(self, cycle, events, detail="") -> bool:
        """Append the cycle's close event; True, for ``step`` to return."""
        events.append(f"close:{cycle.label}{detail}")
        return True

    def witnesses(self, outputs, max_stages) -> dict:
        """Witness tables over the output sets by name, checked by the validator."""
        return {}

    def refute(self, cycle, s, source, target, names, events) -> bool:
        """Scan the cycle's detector; on a hit record the counterexample."""
        if not cycle.watch.scan(s, source, target):
            return False
        cex = cycle.watch.extract(s, source, target)
        self.counterexamples.append((cycle.label, cex) + names)
        il, im = cex.images
        events.append(f"cex:{cex.flavor}:l={cex.l}:m={cex.m}:il={il}:im={im}"
                      f":left={int(cex.left)}:right={int(cex.right)}")
        return True


def _drive(construction: str, machine: Callable, inputs: dict, family,
           max_stages: int, policy: str, cycle_budget: int | None,
           extra=()) -> ConstructionResult:
    """Build the machine, run it for max_stages stages and return the
    validated result; the header ends with the ``extra`` lines."""
    family = list(family)
    m = machine(family, policy, max_stages, inputs)
    header = [("construction", construction), ("cost-model", COST_MODEL),
              ("policy", policy), ("max-stages", str(max_stages)),
              ("cycle-budget", str(cycle_budget) if cycle_budget else "-"),
              ("prefix-convention", m.convention), ("outputs", ",".join(m.names)),
              *(("input", f"{role}\t{s.dsl or '!opaque:' + s.name}")
                for role, s in inputs.items()),
              *(("family", f"{i}\t{program_text(p)}") for i, p in enumerate(family)),
              ("family-hash", family_hash(family) if family else "-"), *extra]
    fillers = 0

    def open_cycle(stage, events):
        nonlocal fillers
        nxt = next(m.slots, None)
        if nxt is not None:
            label, member, relation, kind = nxt
            cycle = _Cycle(label, kind, member, relation,
                           m.watch(kind, member, relation), m.phase, stage)
        elif m.filler_phase is not None:
            label, kind = f"F{fillers}", m.kinds[fillers % 2]
            fillers += 1
            cycle = _Cycle(label, kind, None, 0, None, m.filler_phase, stage)
        else:
            return None
        events.append(f"open:{label}")
        return cycle

    trace = Trace(header, range(max(max_stages, 0) + 1), columns=m.outputs)
    cycles, phases, records = trace.cycles, trace.phases, trace.events
    step, fallback = m.step, m.fallback
    events: list = []
    cycle = open_cycle(0, events)
    m.init(cycle)
    label, shown = (cycle.label if cycle else "-"), "init"
    stages = iter(trace.stages)
    for stage in stages:
        if stage:           # stage 0 shows the init above
            if cycle_budget and stage - cycle.opened > cycle_budget:
                trace.stages = range(stage)     # the stages run
                raise StageBudgetExhausted("cycle exceeded its stage budget",
                                           cycle=cycle.label, phase=cycle.phase,
                                           stage=stage, trace=trace)
            label = cycle.label
            shown, closed = step(stage, cycle, events)
            if closed:
                cycle = open_cycle(stage, events)
        cycles.append(label)
        phases.append(shown)
        if events:          # an empty list goes on to the next stage
            records[stage] = tuple(events)
            events = []
        if cycle is None:
            break
    # a cycle opens only as one closes, so with none open every later stage
    # falls back
    tail = len(trace.stages) - len(cycles)
    cycles += ["-"] * tail
    phases += ["fallback"] * tail
    for stage in stages:
        fallback(stage, events)
        if events:
            records[stage] = tuple(events)
            events = []
    if cycle is not None and cycle.member is not None and m.policy == "once":
        raise StageBudgetExhausted(m.starved(cycle), cycle=cycle.label,
                                   phase=cycle.phase, stage=max_stages,
                                   trace=trace)
    outputs = {name: prefix_set(name, bits) for name, bits in m.outputs.items()}
    result = ConstructionResult(construction, outputs, trace, m.counterexamples,
                                inputs, m.witnesses(outputs, max_stages), m.notes)
    _finish(result)
    for name, table in result.witnesses.items():
        trace.footer.append((f"witness-{name}", _text.digest(_text.decimals(table))))
    return result


# ---------------------------------------------------------------------------
# Immunity construction


def _immune_schedule(family_size: int, policy: str):
    """One P cycle per member; round-robin labels keep counting."""
    idx = 0
    while family_size and (policy != "once" or idx < family_size):
        yield f"P{idx}", idx % family_size, 0, "P"
        idx += 1


class _ImmuneMachine(_Machine):
    phase = "wait"

    def __init__(self, family, policy, max_stages, inputs):
        super().__init__(family, policy, max_stages, inputs)
        self.slots = _immune_schedule(len(family), policy)
        self.next_input = 1
        self.closed: list = []
        self.notes = {"closed": self.closed, "family": family}

    def watch(self, kind, member, relation):
        # values seen so far, and the inputs not yet converged
        return {}, list(range(self.next_input))

    def step(self, stage, cycle, events):
        s = stage - 1           # detector budget and input bound
        y = self.y
        prog = self.family[cycle.member]
        seen, pending = cycle.watch
        pending.extend(range(self.next_input, s + 1))
        self.next_input = max(self.next_input, s + 1)
        witness = None
        still = []
        for l in pending:
            v = prog.converges_within(l, s)
            if v is None:
                still.append(l)
                continue
            if v in seen and witness is None:
                witness = ("case1", seen[v], l, v)
            seen.setdefault(v, l)
            if witness is None and v < len(y) and y[v] == 1:
                witness = ("case2", l, v)
        pending[:] = still
        if witness is None:
            # a value that converged earlier may sit on a freshly set bit
            for v, l in seen.items():
                if v < len(y) and y[v] == 1:
                    witness = ("case2", l, v)
                    break
        if witness is None:
            y.append(1)
            return "copy", False
        y.append(0)
        case, *data = witness
        self.closed.append((cycle.label, cycle.member, case, tuple(data)))
        names = ("l", "m", "v") if case == "case1" else ("m", "v")
        detail = "".join(f":{n}={d}" for n, d in zip(names, data))
        return "copy", self.close(cycle, events, f":{case}{detail}")


def construct_immune(family: Sequence[ClockedProgram], max_stages: int,
                     policy: str = "once",
                     cycle_budget: int | None = None) -> ConstructionResult:
    """Build a set whose complement dodges every injective family member.

    A cycle closes either on a non-injectivity witness or on an image
    already inside the set; the closing stage contributes one fresh
    complement element.
    """
    return _drive("immune", _ImmuneMachine, {}, family, max_stages, policy,
                  cycle_budget)


# ---------------------------------------------------------------------------
# Incomparability and antichain


class _IncomparableMachine(_Machine):
    """P cycles refute reductions of a relation into the new set's relation
    by keeping members; Q cycles refute the reverse by keeping zeros."""

    def __init__(self, family, policy, max_stages, inputs, relations):
        super().__init__(family, policy, max_stages, inputs, len(relations))
        self.relations = relations
        self.notes = {"relations": {r.name: r for r in relations}}

    def watch(self, kind, member, relation):
        return _Detector("R_to_RY" if kind == "P" else "RY_to_R",
                         self.family[member])

    def step(self, stage, cycle, events):
        y = self.y
        rel = self.relations[cycle.relation]
        if cycle.kind == "P":
            sides, names = (rel, y), (rel.name, "Y")
        else:
            sides, names = (y, rel), ("Y", rel.name)
        if self.refute(cycle, stage - 1, *sides, names, events):
            y.append(0)
            return "copy", self.close(cycle, events)
        y.append(1 if cycle.kind == "P" else 0)
        return "copy", False


def construct_incomparable(relation, family, max_stages: int,
                           policy: str = "once",
                           cycle_budget: int | None = None) -> ConstructionResult:
    """Build a set whose relation is family-incomparable with the given one.

    A set given in place of the relation stands for the relation it
    induces, and its descriptor goes into the trace header.
    """
    dsl = None
    if isinstance(relation, PrSet):
        relation, dsl = SetRelation(relation), relation.dsl
    return _incomparable_multi([relation], family, max_stages, policy,
                               cycle_budget, [dsl])


def _incomparable_multi(relations: Sequence[Relation], family, max_stages,
                        policy="once", cycle_budget=None,
                        relation_dsls=None) -> ConstructionResult:
    relation_dsls = relation_dsls or [None] * len(relations)
    extra = [("relation", f"{i}\t{relation_dsls[i] or '!opaque:' + r.name}")
             for i, r in enumerate(relations)]
    return _drive("incomparable", partial(_IncomparableMachine, relations=relations),
                  {}, family, max_stages, policy, cycle_budget, extra)


def construct_antichain(count: int, family, max_stages: int,
                        policy: str = "once") -> list:
    """Pairwise family-incomparable sets, built one against the previous."""
    if count < 1:
        raise PreconditionFailed("antichain needs count >= 1")
    results = [construct_immune(family, max_stages, policy)]
    members = []
    for i in range(1, count):
        members.append(prefix_set(f"S{i - 1}", results[i - 1].trace.columns["Y"]))
        rels = [SetRelation(m) for m in members]
        results.append(_incomparable_multi(rels, family, max_stages, policy))
    return results


# ---------------------------------------------------------------------------
# Density machine


def _upper_dominating(x: PrSet, z: PrSet, max_stages: int):
    """z, joined with x if x ever has more zeros; plus its header line.

    Filling sets among x and the result are read ahead to max_stages, the
    last stage a machine reads them at, so its per-stage reads hit the memo.
    """
    x.read_ahead(max_stages)
    z.read_ahead(max_stages)
    # a set read ahead compares as a memo column, any other index by index,
    # so it grows no further than the first index where x has more zeros
    r = range(max_stages + 1)
    if any(map(gt, *(s.profile(r) if s.decided > max_stages else map(s.zeros_by_index, r)
                     for s in (x, z)))):
        z = set_join(x, z)
        z.read_ahead(max_stages)
        return z, ("normalized-z", "1")
    return z, ("normalized-z", "0")


def _sample_infinite_coinfinite(z: PrSet, window: int) -> None:
    if not sample_window_mixed(z, 0, window):
        raise PreconditionFailed(
            f"{z.name} is not infinite and coinfinite on the sampled window")


class _DenseMachine(_Machine):
    """Density and density-plus-incomparability.

    The P side refutes reductions of the new set into the lower input by
    copying the upper input; the Q side refutes reductions of the upper
    input into the new set by copying the lower one; transitions rebalance
    zero counts before the hand-off.  With a middle input the detectors
    target it instead, in both directions.
    """

    convention = "stage+1"

    def __init__(self, family, policy, max_stages, inputs):
        super().__init__(family, policy, max_stages, inputs)
        self.x, self.z = inputs["X"], inputs["Z"]
        self.p_role, self.q_role = ("T", "T") if "T" in inputs else ("X", "Z")
        self.x_bit, self.z_bit, self.tp_bit, self.tq_bit = (
            s.reader(max_stages) for s in (self.x, self.z, inputs[self.p_role],
                                           inputs[self.q_role]))
        self.tp_bits: list = []     # prefix of the P-side detector target
        self.tq_bits: list = []     # prefix of the Q-side detector source
        # after the last close no detector reads a side, so a fallback stage
        # reads only the sides that can still raise: sets not read ahead
        # through max_stages, whose reader is ``bit``
        self.unsettled = [s.bit for s in (inputs[self.p_role], inputs[self.q_role])
                          if s.decided <= max_stages]
        self.zeros = 0      # zeros of Y through the last step; fallback leaves it

    def _track(self, stage):
        self.tp_bits.append(self.tp_bit(stage))
        self.tq_bits.append(self.tq_bit(stage))

    def init(self, cycle):
        self.y.append(1)
        self._track(0)

    def fallback(self, stage, events):
        for read in self.unsettled:
            read(stage)
        self.y.append(self.z_bit(stage))

    def witnesses(self, outputs, max_stages):
        # the sandwich reductions promised by the construction; Y grows in
        # one fill, so the searches in it hit the memo
        y = outputs["Y"]
        y.read_ahead(max_stages)
        return {"lower_into_new": _fresh_zero_table(self.x, y, max_stages),
                "new_into_upper": _fresh_zero_table(y, self.z, max_stages)}

    def step(self, stage, cycle, events):
        self._track(stage)
        y, p_side, copy = self.y, cycle.kind == "P", cycle.phase == "copy"
        b = (self.z_bit if p_side else self.x_bit)(stage) if copy else 1 if p_side else 0
        y.append(b)
        self.zeros += 1 - b
        if copy:
            if p_side:
                sides, names = (y, self.tp_bits), ("Y", self.p_role)
            else:
                sides, names = (self.tq_bits, y), (self.q_role, "Y")
            if self.refute(cycle, stage, *sides, names, events):
                cycle.phase = "transition"
        if cycle.phase == "transition":
            target = (self.x if p_side else self.z).zeros_by_index(stage)
            if self.zeros == target:
                return "transition", self.close(cycle, events)
        return cycle.phase, False


def _dense_run(construction: str, inputs: dict, family, max_stages, policy,
               cycle_budget) -> ConstructionResult:
    x, z = inputs["X"], inputs["Z"]
    if x.bit(0) != 1 or z.bit(0) != 1:
        raise PreconditionFailed("density needs 0 in both input sets")
    _sample_infinite_coinfinite(z, min(200, max_stages))
    z, normalized = _upper_dominating(x, z, max_stages)
    if "T" in inputs:
        inputs["T"].read_ahead(max_stages)
    return _drive(construction, _DenseMachine, {**inputs, "Z": z}, family,
                  max_stages, policy, cycle_budget, [normalized])


def _fresh_zero_table(lower: PrSet, upper: PrSet, horizon: int) -> list:
    """Reduction table: members of the lower set to 0, its zeros to fresh
    zeros of the upper set in order.

    Each pick is the least unused zero, so the used zeros are a prefix of
    the zeros in order, found in one pass over the upper set's memo.  A
    zero at s has a fresh partner below s+1 exactly when the upper set has
    at least as many zeros through s, the density chain invariant; where a
    faulty run breaks it the table ends, and validation, which checks the
    chain at every stage, reports the failure.
    """
    return _fresh_pick_table(lower.prefix(horizon).bits, upper, pr_lang.NATIVE_REGISTRY["id"], 0)


def construct_dense(x: PrSet, z: PrSet, f, family, max_stages: int,
                    policy: str = "once", cycle_budget: int | None = None) -> ConstructionResult:
    """A set strictly between two comparable sets, family-relative.

    The reduction f of x to z, or without one profile domination, is
    checked up to 200.
    """
    if f is not None:
        if isinstance(f, ReductionWitness):
            verify_claim(f, x, z, min(200, f.horizon))
        else:
            cex = check_reduction_prefix(f, SetRelation(x), SetRelation(z), 200)
            if cex is not None:
                raise NotCertified(
                    f"supplied witness is not a reduction: {cex.describe()}")
    elif any(map(gt, x.profile(range(200)), z.profile(range(200)))):
        raise NotCertified("no reduction witness and no profile domination")
    return _dense_run("dense", {"X": x, "Z": z}, family, max_stages, policy,
                      cycle_budget)


def construct_dense_incomparable(x: PrSet, t: PrSet, z: PrSet, certificates,
                                 family, max_stages: int, policy: str = "once",
                                 cycle_budget: int | None = None) -> ConstructionResult:
    """Density with both-direction counterexamples against a middle set.

    Supplied certificates, witnesses under the keys "x<=t" and "t<=z", are
    checked against their pair up to 200, whatever their verified flag.
    Without certificates (None) the builder derives both from profile
    domination up to max_stages.
    """
    if certificates is None:
        certificates = {"x<=t": domination_certificate(x, t, max_stages),
                        "t<=z": domination_certificate(t, z, max_stages)}
    else:
        for key, low, high in (("x<=t", x, t), ("t<=z", t, z)):
            w = certificates.get(key)
            if w is None:
                raise NotCertified(f"missing verified certificate {key}")
            verify_claim(w, low, high, min(200, w.horizon))
    if t.bit(0) != 1:
        raise PreconditionFailed("the middle set must contain 0")
    return _dense_run("dense-incomparable", {"X": x, "T": t, "Z": z}, family,
                      max_stages, policy, cycle_budget)


# ---------------------------------------------------------------------------
# Join and meet splittings


class _SplitMachine(_Machine):
    """Join mode: within a P cycle the first output copies the input set
    while the second gets filler ones, then transition zeros until the zero
    counts agree; blockwise the second output is ones-then-zeros, so the
    blockwise join reproduces the input.  Meet mode flips the filler bits
    (zeros first, then ones) and targets the dual requirement.  Filler
    cycles rebalance as soon as the counts diverge.
    """

    names = ("Y0", "Y1")
    filler_phase = "copy"

    def __init__(self, family, policy, max_stages, inputs, mode):
        super().__init__(family, policy, max_stages, inputs)
        self.mode = mode
        self.z_bit = inputs["Z"].reader(max_stages - 1)     # stage s reads bit s - 1
        self.z_bits: list = []
        self.copy_fill = 1 if mode == "join" else 0
        self.y1 = self.outputs["Y1"]
        self.gap = 0        # zeros of Y1 minus zeros of Y0; the columns grow together

    def step(self, stage, cycle, events):
        b = self.z_bit(stage - 1)
        self.z_bits.append(b)
        p_side = cycle.kind == "P"
        copier, filler, name = (self.y, self.y1, "Y1") if p_side else (self.y1, self.y, "Y0")
        copier.append(b)
        transition = cycle.phase == "transition"
        f = 1 - self.copy_fill if transition else self.copy_fill
        filler.append(f)
        self.gap += b - f if p_side else f - b
        if transition:
            return "transition", self.gap == 0 and self.close(cycle, events)
        if cycle.watch is None:
            diverged = self.gap != 0
        elif self.mode == "join":
            diverged = self.refute(cycle, stage, self.z_bits, filler, ("Z", name), events)
        else:
            diverged = self.refute(cycle, stage, filler, self.z_bits, (name, "Z"), events)
        if diverged:
            cycle.phase = "transition"
        return "copy", False


def _split_run(mode: str, z: PrSet, family, max_stages, policy,
               cycle_budget) -> ConstructionResult:
    _sample_infinite_coinfinite(z, min(200, max_stages))
    z.read_ahead(max_stages - 1)    # stage s reads bit s - 1
    return _drive(f"{mode}-split", partial(_SplitMachine, mode=mode), {"Z": z},
                  family, max_stages, policy, cycle_budget)


def construct_join_split(z: PrSet, family, max_stages: int,
                         policy: str = "once",
                         cycle_budget: int | None = None) -> ConstructionResult:
    return _split_run("join", z, family, max_stages, policy, cycle_budget)


def construct_meet_split(z: PrSet, family, max_stages: int,
                         policy: str = "once",
                         cycle_budget: int | None = None) -> ConstructionResult:
    return _split_run("meet", z, family, max_stages, policy, cycle_budget)


# ---------------------------------------------------------------------------
# Diamond construction


class _DiamondMachine(_Machine):
    """Within a Q cycle the first output tracks the lower input and the
    second the upper one (a P cycle swaps them) until the detector fires;
    the cycle closes at the next equilibrium of the output counts.  Filler
    cycles wait for an equilibrium straight away."""

    names = ("Y0", "Y1")
    convention = "stage+1"
    kinds = ("Q", "P")
    filler_phase = "transition"

    def __init__(self, family, policy, max_stages, inputs):
        super().__init__(family, policy, max_stages, inputs)
        self.x_bit, self.z_bit = inputs["X"].reader(max_stages), inputs["Z"].reader(max_stages)
        self.z_bits: list = []
        self.y1 = self.outputs["Y1"]
        self.gap = 0        # zeros of Y1 minus zeros of Y0; the columns grow together

    def init(self, cycle):
        self.y.append(1)
        self.y1.append(1)
        self.z_bits.append(self.z_bit(0))

    def step(self, stage, cycle, events):
        zb = self.z_bit(stage)
        self.z_bits.append(zb)
        xb = self.x_bit(stage)
        q_side = cycle.kind == "Q"
        x_tracker, z_tracker, name = (self.y, self.y1, "Y0") if q_side else (self.y1, self.y, "Y1")
        x_tracker.append(xb)
        z_tracker.append(zb)
        self.gap += xb - zb if q_side else zb - xb
        if cycle.phase == "copy":
            if self.refute(cycle, stage, self.z_bits, x_tracker, ("Z", name), events):
                cycle.phase = "transition"
            return "copy", False
        return "transition", self.gap == 0 and self.close(cycle, events)

    def starved(self, cycle):
        if cycle.phase == "transition":
            return "transition starved: no further equilibrium point of the pair"
        return super().starved(cycle)


def construct_diamond(x: PrSet, z: PrSet, family, max_stages: int,
                      policy: str = "once", cycle_budget: int | None = None,
                      min_equilibria: int = 1) -> ConstructionResult:
    """Two sets whose meet and join reproduce the given pair bit-exactly.

    Requires equilibrium points of the pair below the horizon; a starved
    transition (no further equilibrium) exhausts the stage budget with the
    transition phase named.
    """
    if x.bit(0) != 1 or z.bit(0) != 1:
        raise PreconditionFailed("diamond needs 0 in both input sets")
    z, normalized = _upper_dominating(x, z, max_stages)
    count = equilibrium_points(x, z, max_stages).count
    if count < min_equilibria:
        raise PreconditionFailed(f"only {count} equilibrium points below {max_stages}")
    return _drive("diamond", _DiamondMachine, {"X": x, "Z": z}, family, max_stages,
                  policy, cycle_budget, [normalized])


# ---------------------------------------------------------------------------
# Separator construction


def _normalize_family(family):
    """Strictly increasing members, each strictly above the previous one.

    Indices past the family continue as virtual, strictly larger members.
    Tables fill upward, so no read recurses; a read's own entry comes first,
    so a raising member raises where a recursion from the top would.
    """
    n = len(family)

    def table(entry, base):
        rows = [[] for _ in range(n)]       # rows[e][x], from x = 0 up

        def read(e, x):
            if e >= n:
                return (read(n - 1, x) if n else x + base) + 1 + (e - n + 1)
            if x < len(rows[e]):
                return rows[e][x]
            last = entry(e, x)
            for k in range(e + 1):
                row, below = rows[k], rows[k - 1]
                for y in range(len(row), x + 1):
                    v = entry(k, y) if k < e or y < x else last
                    if y > 0:
                        v = max(v, row[y - 1] + 1)
                    if k > 0:
                        v = max(v, below[y] + 1)
                    row.append(v)
            return rows[e][x]
        return read

    val = table(lambda e, x: max(family[e].value(x), x + 1), 0)
    # waits dominate values: seeing p(x) takes more steps than p(x) itself
    cost = table(lambda e, x: max(1, family[e].cost(x), val(e, x) + 1), 1)
    return val, cost


class _SeparatorMachine(_Machine):
    """Cycle V<i> waits on member i until the built count provably escapes
    y through it; the fallback waits on a virtual member past the family.
    The count is capped one below x's, which pins it to the dropped profile.
    """

    names = ("Z",)
    convention = "stage+1"
    kinds = ("V",)
    phase = "wait"

    def __init__(self, family, policy, max_stages, inputs):
        # the member list is finite: it runs once under either policy
        super().__init__(family, "once", max_stages, inputs)
        x = inputs["X"]
        self.y_steps = inputs["Y"].zeros_by_steps
        self.val, self.cost = _normalize_family(family)
        self.zx1 = [z - 1 if z else 0 for z in x.profile(range(max_stages + 2), "steps")]
        # bracket marks: budgets at which the dropped profile steps up
        self.marks = [t for t in range(max_stages + 1)
                      if self.zx1[t + 1] > self.zx1[t]]
        self.k = self.progress = 0      # the input awaited, stages spent on it
        self.bracket = 0                # bisect_left(marks, k)
        self.escapes: dict = {}         # member -> (t, Z count, y count)
        self.counts: list = []          # zeros of Z among bits 0..n
        self.notes = {"escapes": self.escapes, "val": self.val}

    def init(self, cycle):
        self.y.append(1)
        self.counts.append(0)

    def step(self, stage, cycle, events):
        n, k, zx1 = len(self.family), self.k, self.zx1
        e = cycle.member if cycle else n       # n: the fallback's virtual member
        increment = escaped = False
        self.progress += 1
        if self.progress >= self.cost(e, k):
            value = self.val(e, k)
            events.append(f"conv:e={e}:k={k}:v={value}")
            # a new zero of the dropped set is revealed between budgets k, k+1
            increment = zx1[k] != zx1[k + 1]
            if e < n:
                z_count, y_count = self.counts[k], self.y_steps(value)
                escaped = z_count > y_count
                if escaped:
                    self.escapes[e] = (k, z_count, y_count)
                    events.append(f"escape:e={e}:t={k}:z={z_count}:y={y_count}")
                    if e == n - 1:
                        events.append("done")
            self.k = k = k + 1
            self.progress = 0
            self.bracket = bisect.bisect_left(self.marks, k)
        cap = zx1[stage]
        count = self.counts[-1]
        b = 0 if increment and cap > count else 1
        self.y.append(b)
        count += 1 - b
        self.counts.append(count)
        # the built count tracks the dropped-profile bracket at every stage
        if count != self.bracket:
            raise AssertionError(f"bracket invariant failed at stage {stage}: "
                                 f"count={count} bracket={self.bracket} k={k}")
        if count > cap:
            raise AssertionError(f"domination cap failed at stage {stage}")
        return "wait", escaped

    def fallback(self, stage, events):
        self.step(stage, None, events)

    def starved(self, cycle):
        return "separator did not pass every member"


def construct_separator(x: PrSet, y: PrSet, family, max_stages: int,
                        policy: str = "once") -> ConstructionResult:
    """A set under the dropped version of x that escapes y through every member.

    The premise, that the dropped x escapes y through every member below
    max_stages, is checked first and raises NotCertified when it fails.  The
    member list is finite, so under either policy the run exhausts if a
    member is still open at max_stages.
    """
    family = list(family)
    anti_reduction_evidence(drop_least_zero(x), y, family, max_stages)
    result = _drive("separator", _SeparatorMachine, {"X": x, "Y": y}, family,
                    max_stages, policy, None)
    if not family:
        # no member opens, yet stage 0 shows V0 opening, as it always has
        trace = result.trace
        trace.cycles[0], trace.events = "V0", {0: ("open:V0",), **trace.events}
    return result


# ---------------------------------------------------------------------------
# Validation


def validate_result(result: ConstructionResult, closes: list) -> list:
    """Post-hoc validation: structural trace invariants plus the
    construction's own stated equalities.  ``closes`` is ``_closes(result)``.
    Returns human-readable failures."""
    trace = result.trace
    # one bit per stage from the first stage that shows one
    length = len(trace.stages) - trace.first_bit_stage()
    failures = [f"output {name} holds {len(bits)} bits, not {length}"
                for name, bits in trace.columns.items() if len(bits) != length]
    # past stage 0 a stage without a cycle falls back: in a run such stages
    # form a tail, from the first one on, which two counts check; any other
    # layout is read stage by stage
    cycles, phases = trace.cycles, trace.phases
    k = (cycles + ["-"]).index("-", 1)
    if cycles[k:].count("-") + phases[k:].count("fallback") != 2 * (len(cycles) - k):
        failures.extend(f"no open cycle at stage {stage}" for stage, cycle, phase
                        in islice(zip(trace.stages, cycles, phases), 1, None)
                        if cycle == "-" and phase != "fallback")

    by_name = {p.name: p for p in _header_family(trace)}
    # each side by input role, output name or relation name; an output is
    # its trace column when that holds every bit, and a prefix is read
    # only when a counterexample names it
    sides = {**result.inputs, **result.outputs, **result.notes.get("relations", {}),
             **{n: bits for n, bits in trace.columns.items() if len(bits) == length}}

    def side(role):
        s = sides[role]
        return s.prefix(length - 1) if isinstance(s, PrSet) else s

    for label, cex, src, tgt in result.counterexamples:
        prog = by_name.get(cex.member)
        if prog is None:
            failures.append(f"unknown member {cex.member} in {label}")
        elif not revalidate_counterexample(cex, prog, side(src), side(tgt)):
            failures.append(f"counterexample in {label} no longer violates")
    failures.extend(CONSTRUCTIONS[result.name].validate(result, closes))
    return failures


def _closes(result) -> list:
    """(stage, label) of every closed cycle, in stage order."""
    return [(result.trace.stages[i], e.split(":")[1]) for i, evs in result.trace.events.items()
            for e in evs if e.startswith("close:")]


def _validate_immune(result, closes) -> list:
    failures = []
    y = result.outputs["Y"]
    family = result.notes["family"]
    for label, e, case, witness in result.notes["closed"]:
        prog = family[e]
        if case == "case1":
            l, m, v = witness
            if l == m or prog.value(l) != prog.value(m):
                failures.append(f"{label} non-injectivity witness fails")
        else:
            m, v = witness
            if prog.value(m) != v or y.bit(v) != 1:
                failures.append(f"{label} membership witness fails")
    return failures


def _validate_incomparable(result, closes) -> list:
    # the revalidated counterexamples are the whole claim
    return []


def _validate_dense(result, closes) -> list:
    failures = []
    stages = result.trace.stages
    x, y, z = result.inputs["X"], result.outputs["Y"], result.inputs["Z"]
    xs, ys, zs = (list(v.profile(stages)) for v in (x, y, z))
    if not (all(map(le, xs, ys)) and all(map(le, ys, zs))):
        s = next(s for s, a, b, c in zip(stages, xs, ys, zs) if not a <= b <= c)
        failures.append(f"chain invariant broken at stage {s}")
    for s, label in closes:
        if label.startswith("P") and xs[s] != ys[s]:
            failures.append(f"lower counts differ at close of {label}")
        if label.startswith("Q") and ys[s] != zs[s]:
            failures.append(f"upper counts differ at close of {label}")
    g = result.witnesses["lower_into_new"]
    h = result.witnesses["new_into_upper"]
    hor = min(len(g), len(h), len(stages) - 1) - 1
    if check_reduction_prefix(list(g), SetRelation(x), SetRelation(y), hor):
        failures.append("lower sandwich witness fails")
    if check_reduction_prefix(list(h), SetRelation(y), SetRelation(z), hor):
        failures.append("upper sandwich witness fails")
    return failures


def _validate_split(result, closes) -> list:
    mode = result.name.partition("-")[0]
    last = closes[-1][0] if closes else 0
    # stage s emits bit s - 1; the join's zero counts are the max of the
    # outputs', the meet's the min
    y0, y1, z = (list(v.profile(range(last))) for v in (
        result.outputs["Y0"], result.outputs["Y1"], result.inputs["Z"]))
    failures = []
    if _picked(max if mode == "join" else min, y0, y1) != z:
        failures.append(f"{mode} of outputs differs from the input set")
    failures.extend(f"counts differ at close stage {stage}"
                    for stage, _ in closes if y0[stage - 1] != y1[stage - 1])
    return failures


def _validate_diamond(result, closes) -> list:
    failures = [f"output {name} does not hold 0" for name, y in result.outputs.items()
                if y.bit(0) != 1]
    last = closes[-1][0] if closes else 0
    # meet and join read the outputs with 0 forced in, as the lattice does
    x, y0, y1, z = (list(v.profile(range(last + 1))) for v in (
        result.inputs["X"], override_zero_member(result.outputs["Y0"]),
        override_zero_member(result.outputs["Y1"]), result.inputs["Z"]))
    meet, join = _picked(min, y0, y1), _picked(max, y0, y1)
    if last and (meet != x or join != z):
        i = next(i for i in range(last + 1) if meet[i] != x[i] or join[i] != z[i])
        failures.append(f"{'meet' if meet[i] != x[i] else 'join'} side differs at {i}")
    for stage, label in closes:
        if label.startswith(("Q", "F")):
            if not x[stage] == y0[stage] == y1[stage] == z[stage]:
                failures.append(f"four-way equality fails at close {stage}")
        elif y0[stage] != y1[stage]:
            failures.append(f"output counts differ at close {stage}")
    return failures


def _validate_separator(result, closes) -> list:
    failures = []
    x = result.inputs["X"]
    zed = result.outputs["Z"]
    hor = len(result.trace.stages) - 1
    x_steps = list(x.profile(range(hor + 1), "steps"))
    z_index = list(zed.profile(range(hor + 1)))
    # the cap is max(0, x_steps[s] - 1)
    over = next((s for s, (z, c) in enumerate(zip(z_index, x_steps)) if z > 0 and z >= c), None)
    if over is not None:
        failures.append(f"separator cap fails at stage {over}")
    escapes = result.notes["escapes"]
    if len(escapes) < len(result.trace.header_all("family")):
        failures.append("separator missed a member escape")
    val = result.notes["val"]
    start = 0               # a member's window opens past the previous escape
    for e, (t, _, _) in escapes.items():
        for kk in range(start + 1, t + 1):
            stage_val = val(e, kk)
            # the escape margin needs the source to have shown a zero
            if stage_val <= hor and 1 <= x_steps[kk] <= z_index[stage_val]:
                failures.append(f"anti-diamond window fails for member {e} at k={kk}")
        start = t + 1
    return failures


def _finish(result: ConstructionResult) -> None:
    closes = _closes(result)
    failures = validate_result(result, closes)
    result.trace.footer = [("verdict", "ok" if not failures else "fail")]
    for f in failures:
        result.trace.footer.append(("failure", f))
    result.trace.footer.append(("closed-cycles", str(len(closes))))
    result.trace.footer.append(("counterexamples", str(len(result.counterexamples))))


# ---------------------------------------------------------------------------
# Registry


class _Kind(NamedTuple):
    """How the command line, replay and validation reach one construction.

    ``build`` is called as ``build(*inputs, family=, max_stages=, policy=)``
    with the input sets in ``inputs`` role order, plus ``cycle_budget=``
    when the trace header sets one and the command line's ``options``;
    ``validate(result, closes)`` gets the result's ``_closes``.
    """
    build: Callable
    inputs: tuple = ()             # header input roles, in argument order
    validate: Optional[Callable] = None     # None: builds no trace of its own
    options: tuple = ()            # builder keywords taken from the command line


CONSTRUCTIONS = {
    "immune": _Kind(construct_immune, (), _validate_immune),
    "incomparable": _Kind(construct_incomparable, ("R",), _validate_incomparable),
    "antichain": _Kind(construct_antichain, (), None, ("count",)),
    "dense": _Kind(partial(construct_dense, f=None), ("X", "Z"),
                   _validate_dense, ("f",)),
    "dense-incomparable": _Kind(partial(construct_dense_incomparable,
                                        certificates=None),
                                ("X", "T", "Z"), _validate_dense),
    "join-split": _Kind(construct_join_split, ("Z",), _validate_split),
    "meet-split": _Kind(construct_meet_split, ("Z",), _validate_split),
    "diamond": _Kind(construct_diamond, ("X", "Z"), _validate_diamond,
                     ("min_equilibria",)),
    "separator": _Kind(construct_separator, ("X", "Y"), _validate_separator),
}


# ---------------------------------------------------------------------------
# Files and replay


def save_trace(result: ConstructionResult, path) -> None:
    _text.write_text(path, result.trace.serialize())


# Trace texts whose outputs load_trace_set keeps parsed, least recently
# used first out.  An entry holds 8 bytes per output bit and a key of the
# text's length and digest: 3.2 MB for a join-split at the 200,000-stage
# ceiling, whose 8.4 MB text it does not keep.
_TRACE_TEXTS = 16


class _TextKey(tuple):
    """A text's length and digest, with the text as an attribute until the
    parse drops it, so the key a cache keeps holds a few bytes."""


@functools.lru_cache(maxsize=_TRACE_TEXTS)
def _trace_outputs(key: _TextKey) -> tuple:
    """A trace text's output names, in header order, and each one's bits as
    a tuple; a malformed text raises, and raises again on the next call."""
    trace = parse_trace(key.text)
    del key.text
    outputs = tuple(_required(trace, "outputs").split(","))
    return outputs, tuple(tuple(trace.columns.get(n, ())) for n in outputs)


def load_trace_set(path: str) -> PrSet:
    """Rebuild a constructed set from a trace file (for the DSL).

    The file is read on every call and its text's length and digest are the
    key of the parse: a text among the last ``_TRACE_TEXTS`` parsed is not
    parsed again, a rewritten file parses afresh, and a malformed text
    raises on every call.  Each call builds a fresh set over the kept bits."""
    name = None
    if ":" in str(path) and not str(path).endswith(":"):
        base, _, maybe = str(path).rpartition(":")
        if maybe.isidentifier():
            path, name = base, maybe
    text = _text.read_text(path)
    key = _TextKey((len(text), _text.digest((text,))))
    key.text = text
    outputs, columns = _trace_outputs(key)
    pick = name or outputs[0]
    if pick not in outputs:
        raise ParseError(f"trace {path} has no output {pick!r}; "
                         f"its outputs are {', '.join(outputs)}")
    bits = columns[outputs.index(pick)]
    if not {0, 1}.issuperset(bits):
        i = next(i for i, b in enumerate(bits) if b not in (0, 1))
        raise ParseError(f"trace {path} output {pick} bit {i} is {bits[i]}, not 0 or 1")
    return prefix_set(f"trace:{path}:{pick}", bits,
                      dsl=f"trace {path}:{pick}" if name else f"trace {path}")


def _header_family(trace: Trace) -> list:
    return [resolve_program(v.partition("\t")[2]) for v in trace.header_all("family")]


def _header_inputs(trace: Trace) -> dict:
    """Input sets by role; relation lines carry the relation's set, role R."""
    sets = {}
    for key, value in trace.header:
        if key not in ("input", "relation"):
            continue
        role, _, dsl = value.partition("\t")
        role = role if key == "input" else "R"
        if dsl.startswith("!opaque:"):
            raise PreconditionFailed(f"{key} {role} is not replayable: {dsl}")
        sets[role] = parse_set(dsl)
    return sets


def replay_from_trace(trace: Trace) -> ConstructionResult:
    """Re-run a construction from its header alone."""
    kind = _required(trace, "construction")
    entry = CONSTRUCTIONS.get(kind)
    if entry is None or entry.validate is None:
        raise ParseError(f"unknown construction {kind!r}")
    family = _header_family(trace)
    policy = _required(trace, "policy")
    budget = _required(trace, "cycle-budget")
    try:
        counts = {"max_stages": int(_required(trace, "max-stages"))}
        if budget != "-":
            counts["cycle_budget"] = int(budget)
    except ValueError as exc:
        raise ParseError(f"malformed count in the trace header: {exc}") from None
    if (policy not in ("once", "round-robin")
            or not 0 <= counts["max_stages"] <= DEFAULT_CEILING
            or counts.get("cycle_budget", 1) < 1):
        raise ParseError(f"trace header out of range: policy {policy!r}, max-stages "
                         f"{counts['max_stages']}, cycle-budget {budget}")
    sets = _header_inputs(trace)
    for role in entry.inputs:
        if role not in sets:
            raise ParseError(f"trace header has no input {role}")
    return entry.build(*(sets[role] for role in entry.inputs), family=family,
                       policy=policy, **counts)


def _divergence(original: bytes, replayed: bytes) -> str:
    """First differing byte of two traces, with the record's stage and field."""
    at = next((i for i, (a, b) in enumerate(zip(original, replayed)) if a != b),
              min(len(original), len(replayed)))
    lineno = original.count(b"\n", 0, at)
    lines = original.decode().split("\n")
    where = f"line {lineno + 1}"
    if lines[1:lineno].count("---") == 1 and lines[lineno] != "---":
        mine = lines[lineno].split("\t")
        theirs = (replayed.decode().split("\n")[lineno:] or [""])[0].split("\t")
        field = next((f for f, a, b in zip_longest(_RECORD_FIELDS, mine, theirs)
                      if a != b), "record")
        where = f"stage {mine[0]} field {field}"
    return f"divergence at byte {at}: {where}"


def verify_trace_file(path) -> tuple[bool, str]:
    """Byte-identical replay check plus the recorded validation verdict.

    Replay reads the header alone.  Bytes equal to the replay's are well-
    formed records already, so the records are parsed only when the replay
    raises or differs: a malformed record is then reported first, as if the
    whole file had been parsed up front.  A replay that returns writes
    max-stages + 1 records, so a file with another count is parsed before
    the replay, which must then raise or differ, and a malformed record
    costs no replay.
    """
    with open(path, "rb") as fh:
        original = fh.read()
    header, lines, first, _ = _split_trace(_text.decode_text(original, path))
    trace = Trace(header)
    if trace.header_value("max-stages") != str(len(lines) - 1):
        _parse_records(lines, first)
    try:
        result = replay_from_trace(trace)
    except Exception:
        _parse_records(lines, first)
        raise
    replayed = result.trace.serialize().encode()
    if original != replayed:
        _parse_records(lines, first)
        return False, _divergence(original, replayed)
    verdict = result.trace.footer[0][1] if result.trace.footer else "unknown"
    if verdict != "ok":
        return False, f"validation verdict: {verdict}"
    return True, "ok"
