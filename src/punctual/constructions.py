"""Deterministic stage machine and the diagonalization constructions.

Every construction runs in stages against a finite ordered family of
clocked opponents, opening and closing requirement cycles, and emits one
bit per output set per stage.  The run is a pure function of its inputs:
two runs with equal inputs produce byte-identical traces.

Requirement scheduling: under the ``once`` policy the requirement list is
processed in order and, after the last cycle closes, emission follows a
fixed fallback that preserves the construction's structural invariants
(alternating tail for single-output constructions, donor copying for the
density machine, dummy rebalancing cycles for splits and diamonds).  Under
``round-robin`` the family is revisited forever.

A cycle that cannot close by ``max_stages`` (or within ``cycle_budget``
stages) aborts the run with StageBudgetExhausted naming the cycle and
phase; at desk scale an opponent may genuinely satisfy the reduction the
cycle is trying to refute, so exhaustion is a first-class outcome.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    NotCertified,
    ParseError,
    PreconditionFailed,
    StageBudgetExhausted,
)
from .lattice import family_hash
from .pr_lang import COST_MODEL, ClockedProgram, cantor_pair, program_text, resolve_program
from .reductions import (
    Counterexample,
    ReductionWitness,
    check_reduction_prefix,
    detect_counterexample_R_to_RY,
    detect_counterexample_RX_to_RY,
    detect_counterexample_RY_to_R,
    images_split,
    revalidate_counterexample,
    verify_claim,
)
from .sets import (
    Prefix,
    PrSet,
    Relation,
    SetRelation,
    parse_set,
    prefix_set,
    set_join,
    set_meet,
    string_join,
    string_meet,
)

TRACE_FORMAT = "punctual-trace/1"


# ---------------------------------------------------------------------------
# Trace plumbing


@dataclass(frozen=True)
class StageRecord:
    stage: int
    cycle: str
    phase: str
    bits: tuple                # ((output name, bit), ...)
    events: tuple              # strings

    def line(self) -> str:
        bits = ",".join(f"{n}={b}" for n, b in self.bits) or "-"
        events = ";".join(self.events) or "-"
        return f"{self.stage}\t{self.cycle}\t{self.phase}\t{bits}\t{events}"


@dataclass
class Trace:
    header: list               # ordered (key, value) pairs; keys may repeat
    records: list
    footer: list = field(default_factory=list)

    def serialize(self) -> str:
        lines = [TRACE_FORMAT]
        lines.extend(f"{k}\t{v}" for k, v in self.header)
        lines.append("---")
        lines.extend(r.line() for r in self.records)
        lines.append("---")
        lines.extend(f"{k}\t{v}" for k, v in self.footer)
        return "\n".join(lines) + "\n"

    def header_value(self, key: str) -> Optional[str]:
        for k, v in self.header:
            if k == key:
                return v
        return None

    def header_all(self, key: str) -> list:
        return [v for k, v in self.header if k == key]


def parse_trace(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_FORMAT:
        raise ParseError("not a trace file")
    header = []
    i = 1
    while i < len(lines) and lines[i] != "---":
        k, _, v = lines[i].partition("\t")
        header.append((k, v))
        i += 1
    i += 1
    records = []
    while i < len(lines) and lines[i] != "---":
        stage, cycle, phase, bits, events = lines[i].split("\t")
        bit_pairs = tuple(tuple(p.split("=")) for p in bits.split(",")) if bits != "-" else ()
        bit_pairs = tuple((n, int(b)) for n, b in bit_pairs)
        ev = tuple(events.split(";")) if events != "-" else ()
        records.append(StageRecord(int(stage), cycle, phase, bit_pairs, ev))
        i += 1
    i += 1
    footer = []
    while i < len(lines):
        if lines[i]:
            k, _, v = lines[i].partition("\t")
            footer.append((k, v))
        i += 1
    return Trace(header, records, footer)


@dataclass
class ConstructionResult:
    name: str
    outputs: dict
    trace: Trace
    counterexamples: list      # (cycle, Counterexample, source name, target name)
    witnesses: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def output(self, name: str | None = None) -> PrSet:
        if name is None:
            return next(iter(self.outputs.values()))
        return self.outputs[name]


def _cex_event(cyc: str, cex: Counterexample) -> str:
    il, im = cex.images if cex.images else ("-", "-")
    return (f"cex:{cex.flavor}:l={cex.l}:m={cex.m}:il={il}:im={im}"
            f":left={int(cex.left)}:right={int(cex.right)}")


# ---------------------------------------------------------------------------
# Incremental permanent-violation detector


class _Detector:
    """Stage-incremental wrapper around the definitional detectors.

    Eligibility and the fired condition are monotone in the stage, so each
    input is examined once when it becomes eligible and each unordered pair
    once; on the first hit the definitional full scan extracts the least
    pair for the record.
    """

    def __init__(self, flavor: str, program: ClockedProgram, member: str,
                 source_rel: Relation | None = None,
                 target_rel: Relation | None = None):
        self.flavor = flavor
        self.program = program
        self.member = member
        self.source_rel = source_rel
        self.target_rel = target_rel
        self.eligible: list = []
        self.pending: list = []
        self.next_l = 0
        self.fired = False

    def _try_eligible(self, l, s, tgt_bits):
        if self.program.cost(l) >= s:
            return None
        v = self.program.value(l)
        if self.flavor in ("R_to_RY", "RX_to_RY") and not (tgt_bits is not None
                                                           and v < len(tgt_bits)):
            return None
        return v

    def _pair_fires(self, l, lv, m, mv, src_bits, tgt_bits):
        if self.flavor == "R_to_RY":
            left = self.source_rel.related(l, m)
            right = images_split(tgt_bits, lv, mv)
        elif self.flavor == "RY_to_R":
            left = src_bits[l] == 1 and src_bits[m] == 1
            right = not self.target_rel.related(lv, mv)
        else:
            left = src_bits[l] == 1 and src_bits[m] == 1
            right = images_split(tgt_bits, lv, mv)
        return left == right

    def scan(self, s: int, src_bits=None, tgt_bits=None) -> bool:
        """Advance to stage budget s; True once some eligible pair fires."""
        if self.fired:
            return True
        limit = s + 1 if self.flavor == "R_to_RY" else len(src_bits)
        while self.next_l < limit:
            self.pending.append(self.next_l)
            self.next_l += 1
        still = []
        fresh = []
        for l in self.pending:
            v = self._try_eligible(l, s, tgt_bits)
            if v is None:
                still.append(l)
            else:
                fresh.append((l, v))
        self.pending = still
        for i, (l, lv) in enumerate(fresh):
            for m, mv in self.eligible:
                if m != l and self._pair_fires(l, lv, m, mv, src_bits, tgt_bits):
                    self.fired = True
            for m, mv in fresh[:i]:
                if m != l and self._pair_fires(l, lv, m, mv, src_bits, tgt_bits):
                    self.fired = True
            self.eligible.append((l, lv))
        return self.fired

    def extract(self, s: int, src_bits=None, tgt_bits=None) -> Counterexample:
        """Definitional least-pair scan at the firing stage."""
        tgt = Prefix(tuple(tgt_bits)) if tgt_bits is not None else None
        src = Prefix(tuple(src_bits)) if src_bits is not None else None
        if self.flavor == "R_to_RY":
            cex = detect_counterexample_R_to_RY(self.program, self.source_rel,
                                                tgt, s, self.member)
        elif self.flavor == "RY_to_R":
            cex = detect_counterexample_RY_to_R(self.program, src,
                                                self.target_rel, s, self.member)
        else:
            cex = detect_counterexample_RX_to_RY(self.program, src, tgt, s,
                                                 self.member)
        if cex is None:
            raise AssertionError("incremental detector fired but full scan found nothing")
        return cex


# ---------------------------------------------------------------------------
# Machine helpers


class _Output:
    """One constructed set: bit list plus running zero count."""

    def __init__(self, name: str):
        self.name = name
        self.bits: list = []
        self.zeros: list = []

    def emit(self, b: int):
        self.bits.append(b)
        prev = self.zeros[-1] if self.zeros else 0
        self.zeros.append(prev + (1 - b))

    @property
    def zero_count(self) -> int:
        return self.zeros[-1] if self.zeros else 0

    def as_set(self, dsl: str | None = None) -> PrSet:
        return prefix_set(self.name, self.bits, dsl=dsl)


def _family_header(family) -> list:
    rows = [("family", f"{i}\t{program_text(p)}") for i, p in enumerate(family)]
    rows.append(("family-hash", family_hash(family) if family else "-"))
    return rows


def _base_header(construction, inputs, family, policy, max_stages, cycle_budget,
                 prefix_convention, outputs, extra=()):
    header = [
        ("construction", construction),
        ("cost-model", COST_MODEL),
        ("policy", policy),
        ("max-stages", str(max_stages)),
        ("cycle-budget", str(cycle_budget) if cycle_budget else "-"),
        ("prefix-convention", prefix_convention),
        ("outputs", ",".join(outputs)),
    ]
    for role, s in inputs:
        header.append(("input", f"{role}\t{s.dsl if s.dsl else '!opaque:' + s.name}"))
    header.extend(_family_header(family))
    header.extend(extra)
    return header


class _Schedule:
    """Requirement scheduler over (kind, member index) cycles."""

    def __init__(self, kinds: Sequence[str], family_size: int, policy: str,
                 relation_count: int = 1):
        self.kinds = list(kinds)
        self.family_size = family_size
        self.policy = policy
        self.relation_count = relation_count
        self.position = 0
        self._slots = self._make_slots()

    def _make_slots(self):
        # requirement indices: member e, relation i, enumerated by the pairing
        if self.relation_count == 1:
            return [(e,) for e in range(self.family_size)]
        pairs = [(e, i) for e in range(self.family_size)
                 for i in range(self.relation_count)]
        pairs.sort(key=lambda p: cantor_pair(p[0], p[1]))
        return pairs

    def next_cycle(self):
        """Next (label, member index, relation index) or None when done."""
        if self.family_size == 0:
            return None
        total = len(self._slots) * len(self.kinds)
        if self.position >= total:
            if self.policy == "once":
                return None
            self.position %= total
        slot_i, kind_i = divmod(self.position, len(self.kinds))
        self.position += 1
        slot = self._slots[slot_i]
        e = slot[0]
        rel = slot[1] if len(slot) > 1 else 0
        kind = self.kinds[kind_i]
        return f"{kind}{slot_i}", e, rel, kind


# ---------------------------------------------------------------------------
# Immunity construction


def construct_immune(family: Sequence[ClockedProgram], max_stages: int,
                     policy: str = "once",
                     cycle_budget: int | None = None) -> ConstructionResult:
    """Build a set whose complement dodges every injective family member.

    A cycle closes either on a non-injectivity witness or on an image
    already inside the set; the closing stage contributes one fresh
    complement element.
    """
    family = list(family)
    header = _base_header("immune", [], family, policy, max_stages,
                          cycle_budget, "stage", ["Y"])
    y = _Output("Y")
    records = []
    closed = []

    idx = 0
    cycle = None          # (label, member index, opened stage, seen values)
    fallback_flip = 0
    if family:
        cycle = (f"P0", 0, 0)
        records.append(StageRecord(0, "P0", "init", (), ("open:P0",)))
        seen: dict = {}
        conv_pending: list = [0]
        next_input = 1
    else:
        records.append(StageRecord(0, "-", "init", (), ()))

    for stage in range(1, max_stages + 1):
        s = stage - 1           # detector budget and input bound
        if cycle is None:
            b = 1 - fallback_flip
            fallback_flip = 1 - fallback_flip
            y.emit(b)
            records.append(StageRecord(stage, "-", "fallback",
                                       (("Y", b),), ()))
            continue
        label, e, opened = cycle
        prog = family[e]
        if cycle_budget and stage - opened > cycle_budget:
            trace = Trace(header, records)
            raise StageBudgetExhausted("cycle exceeded its stage budget",
                                       cycle=label, phase="wait",
                                       stage=stage, trace=trace)
        while next_input <= s:
            conv_pending.append(next_input)
            next_input += 1
        events = []
        witness = None
        still = []
        for l in conv_pending:
            if prog.cost(l) < s:
                v = prog.value(l)
                if v in seen and witness is None:
                    witness = ("case1", seen[v], l, v)
                seen.setdefault(v, l)
                if witness is None and v < len(y.bits) and y.bits[v] == 1:
                    witness = ("case2", l, v)
            else:
                still.append(l)
        conv_pending = still
        if witness is None:
            # a value that converged earlier may sit on a freshly set bit
            for v, l in seen.items():
                if v < len(y.bits) and y.bits[v] == 1:
                    witness = ("case2", l, v)
                    break
        if witness is not None:
            y.emit(0)
            if witness[0] == "case1":
                _, l, m, v = witness
                events.append(f"close:{label}:case1:l={l}:m={m}:v={v}")
                closed.append((label, e, "case1", (l, m, v)))
            else:
                _, m, v = witness
                events.append(f"close:{label}:case2:m={m}:v={v}")
                closed.append((label, e, "case2", (m, v)))
            idx += 1
            nxt = idx if policy == "once" else idx % len(family)
            if policy == "once" and idx >= len(family):
                cycle = None
            else:
                cycle = (f"P{idx}", nxt % len(family), stage)
                seen = {}
                conv_pending = list(range(next_input))
                events.append(f"open:P{idx}")
            records.append(StageRecord(stage, label, "copy", (("Y", 0),),
                                       tuple(events)))
        else:
            y.emit(1)
            records.append(StageRecord(stage, label, "copy", (("Y", 1),), ()))

    if cycle is not None and policy == "once":
        trace = Trace(header, records)
        raise StageBudgetExhausted("open cycle at the stage budget",
                                   cycle=cycle[0], phase="wait",
                                   stage=max_stages, trace=trace)

    trace = Trace(header, records)
    result = ConstructionResult("immune", {"Y": y.as_set()}, trace, [],
                                notes={"closed": closed, "family": family})
    _finish(result)
    return result


# ---------------------------------------------------------------------------
# Incomparability and antichain


def construct_incomparable(relation: Relation, family, max_stages: int,
                           policy: str = "once",
                           cycle_budget: int | None = None,
                           relation_dsl: str | None = None) -> ConstructionResult:
    """Build a set whose relation is family-incomparable with the given one."""
    return _incomparable_multi([relation], family, max_stages, policy,
                               cycle_budget, [relation_dsl])


def _incomparable_multi(relations: Sequence[Relation], family, max_stages,
                        policy="once", cycle_budget=None,
                        relation_dsls=None) -> ConstructionResult:
    family = list(family)
    relation_dsls = relation_dsls or [None] * len(relations)
    extra = [("relation", f"{i}\t{relation_dsls[i] or '!opaque:' + r.name}")
             for i, r in enumerate(relations)]
    header = _base_header("incomparable", [], family, policy, max_stages,
                          cycle_budget, "stage", ["Y"], extra)
    y = _Output("Y")
    records = []
    counterexamples = []
    sched = _Schedule(["P", "Q"], len(family), policy, len(relations))
    fallback_flip = 0

    def open_next(stage, events):
        nxt = sched.next_cycle()
        if nxt is None:
            return None
        label, e, rel_i, kind = nxt
        events.append(f"open:{label}")
        flavor = "R_to_RY" if kind == "P" else "RY_to_R"
        det = _Detector(flavor, family[e], family[e].name,
                        source_rel=relations[rel_i], target_rel=relations[rel_i])
        return (label, e, rel_i, kind, det, stage)

    events0 = []
    cycle = open_next(0, events0) if family else None
    records.append(StageRecord(0, cycle[0] if cycle else "-", "init", (),
                               tuple(events0)))

    for stage in range(1, max_stages + 1):
        s = stage - 1
        if cycle is None:
            b = 1 - fallback_flip
            fallback_flip = 1 - fallback_flip
            y.emit(b)
            records.append(StageRecord(stage, "-", "fallback", (("Y", b),), ()))
            continue
        label, e, rel_i, kind, det, opened = cycle
        if cycle_budget and stage - opened > cycle_budget:
            raise StageBudgetExhausted("cycle exceeded its stage budget",
                                       cycle=label, phase="copy", stage=stage,
                                       trace=Trace(header, records))
        fired = det.scan(s, src_bits=y.bits, tgt_bits=y.bits)
        events = []
        if fired:
            cex = det.extract(s, src_bits=y.bits, tgt_bits=y.bits)
            names = (relations[rel_i].name, "Y") if kind == "P" else ("Y", relations[rel_i].name)
            counterexamples.append((label, cex, names[0], names[1]))
            events.append(_cex_event(label, cex))
            events.append(f"close:{label}")
            y.emit(0)
            cycle = open_next(stage, events)
            records.append(StageRecord(stage, label, "copy", (("Y", 0),),
                                       tuple(events)))
        else:
            b = 1 if kind == "P" else 0
            y.emit(b)
            records.append(StageRecord(stage, label, "copy", (("Y", b),), ()))

    if cycle is not None and policy == "once":
        raise StageBudgetExhausted("open cycle at the stage budget",
                                   cycle=cycle[0], phase="copy",
                                   stage=max_stages, trace=Trace(header, records))

    trace = Trace(header, records)
    result = ConstructionResult("incomparable", {"Y": y.as_set()}, trace,
                                counterexamples)
    _finish(result, relations=relations)
    return result


def construct_antichain(count: int, family, max_stages: int,
                        policy: str = "once") -> list:
    """Pairwise family-incomparable sets, built one against the previous."""
    if count < 1:
        raise PreconditionFailed("antichain needs count >= 1")
    results = [construct_immune(family, max_stages, policy)]
    members = []
    for i in range(1, count):
        prev = results[i - 1].output()
        members.append(PrSet(f"S{i - 1}", prev.bit, prev.bit_cost,
                             kind=prev.kind, dsl=prev.dsl))
        rels = [SetRelation(m) for m in members]
        results.append(_incomparable_multi(rels, family, max_stages, policy))
    return results


# ---------------------------------------------------------------------------
# Density machine


def _sample_infinite_coinfinite(z: PrSet, window: int) -> None:
    bits = [z.bit(n) for n in range(window + 1)]
    if 1 not in bits or 0 not in bits:
        raise PreconditionFailed(
            f"{z.name} is not infinite and coinfinite on the sampled window")


def _dense_run(x: PrSet, z: PrSet, family, max_stages, policy, cycle_budget,
               t_mid: PrSet | None, construction: str) -> ConstructionResult:
    """Shared runner for density and density-plus-incomparability.

    The P side refutes reductions of the new set into the lower input by
    copying the upper input; the Q side refutes reductions of the upper
    input into the new set by copying the lower one; transitions rebalance
    zero counts before the hand-off.  With a middle input the detectors
    target it instead, in both directions.
    """
    family = list(family)
    if x.bit(0) != 1 or z.bit(0) != 1:
        raise PreconditionFailed("density needs 0 in both input sets")
    _sample_infinite_coinfinite(z, min(200, max_stages))
    normalized = False
    if any(x.zeros_by_index(s) > z.zeros_by_index(s) for s in range(max_stages + 1)):
        z = set_join(x, z)
        normalized = True
    inputs = [("X", x), ("Z", z)] if t_mid is None else [("X", x), ("T", t_mid), ("Z", z)]
    extra = [("normalized-z", "1" if normalized else "0")]
    header = _base_header(construction, inputs, family, policy, max_stages,
                          cycle_budget, "stage+1", ["Y"], extra)
    y = _Output("Y")
    records = []
    counterexamples = []
    sched = _Schedule(["P", "Q"], len(family), policy)
    t_for_p = t_mid if t_mid is not None else x
    t_for_q = t_mid if t_mid is not None else z
    tp_bits = []        # prefix of the P-side detector target
    tq_bits = []        # prefix of the Q-side detector source

    def open_next(events):
        nxt = sched.next_cycle()
        if nxt is None:
            return None
        label, e, _, kind = nxt
        events.append(f"open:{label}")
        det = _Detector("RX_to_RY", family[e], family[e].name)
        return [label, e, kind, det, "copy", None]

    events0 = []
    cycle = open_next(events0) if family else None
    y.emit(1)
    tp_bits.append(t_for_p.bit(0))
    tq_bits.append(t_for_q.bit(0))
    records.append(StageRecord(0, cycle[0] if cycle else "-", "init",
                               (("Y", 1),), tuple(events0)))

    for stage in range(1, max_stages + 1):
        tp_bits.append(t_for_p.bit(stage))
        tq_bits.append(t_for_q.bit(stage))
        if cycle is None:
            b = z.bit(stage)
            y.emit(b)
            records.append(StageRecord(stage, "-", "fallback", (("Y", b),), ()))
            continue
        label, e, kind, det, phase, opened = cycle
        opened = opened if opened is not None else 0
        if cycle_budget and stage - opened > cycle_budget:
            raise StageBudgetExhausted("cycle exceeded its stage budget",
                                       cycle=label, phase=phase, stage=stage,
                                       trace=Trace(header, records))
        events = []
        if kind == "P":
            b = z.bit(stage) if phase == "copy" else 1
        else:
            b = x.bit(stage) if phase == "copy" else 0
        y.emit(b)
        if phase == "copy":
            if kind == "P":
                fired = det.scan(stage, src_bits=y.bits, tgt_bits=tp_bits)
            else:
                fired = det.scan(stage, src_bits=tq_bits, tgt_bits=y.bits)
            if fired:
                if kind == "P":
                    cex = det.extract(stage, src_bits=y.bits, tgt_bits=tp_bits)
                    counterexamples.append((label, cex, "Y", t_for_p.name))
                else:
                    cex = det.extract(stage, src_bits=tq_bits, tgt_bits=y.bits)
                    counterexamples.append((label, cex, t_for_q.name, "Y"))
                events.append(_cex_event(label, cex))
                phase = "transition"
        if phase == "transition":
            target = x.zeros_by_index(stage) if kind == "P" else z.zeros_by_index(stage)
            if y.zero_count == target:
                events.append(f"close:{label}")
                newc = open_next(events)
                if newc is not None:
                    newc[5] = stage
                cycle = newc
                records.append(StageRecord(stage, label, phase, (("Y", b),),
                                           tuple(events)))
                continue
        cycle = [label, e, kind, det, phase, opened]
        records.append(StageRecord(stage, label, phase, (("Y", b),),
                                   tuple(events)))

    if cycle is not None and policy == "once":
        raise StageBudgetExhausted("open cycle at the stage budget",
                                   cycle=cycle[0], phase=cycle[4],
                                   stage=max_stages, trace=Trace(header, records))

    trace = Trace(header, records)
    y_set = y.as_set()
    # the sandwich reductions promised by the construction, as witness tables
    g_table, h_table = _sandwich_witnesses(x, y.bits, z, max_stages)
    result = ConstructionResult(construction, {"Y": y_set}, trace,
                                counterexamples,
                                witnesses={"lower_into_new": g_table,
                                           "new_into_upper": h_table},
                                notes={"normalized": normalized,
                                       "x": x, "z": z, "t": t_mid})
    _finish(result)
    for name, table in result.witnesses.items():
        digest = hashlib.sha256(
            "\n".join(str(v) for v in table).encode()).hexdigest()[:16]
        trace.footer.append((f"witness-{name}", digest))
    return result


def _sandwich_witnesses(x: PrSet, y_bits, z: PrSet, horizon: int):
    """Sandwich reductions the density run guarantees: members to 0, fresh zeros in order.

    The chain invariant guarantees a fresh zero of the middle set below s+1
    for every zero of the lower set at s, and likewise one level up.
    """
    g, used_g = [], set()
    h, used_h = [], set()
    for s in range(horizon + 1):
        if x.bit(s) == 1:
            g.append(0)
        else:
            pick = next(i for i in range(s + 1)
                        if y_bits[i] == 0 and i not in used_g)
            used_g.add(pick)
            g.append(pick)
        if y_bits[s] == 1:
            h.append(0)
        else:
            pick = next(i for i in range(s + 1)
                        if z.bit(i) == 0 and i not in used_h)
            used_h.add(pick)
            h.append(pick)
    return g, h


def construct_dense(x: PrSet, z: PrSet, f, family, max_stages: int,
                    policy: str = "once", cycle_budget: int | None = None,
                    f_horizon: int = 200) -> ConstructionResult:
    """A set strictly between two comparable sets, family-relative."""
    if f is not None:
        if isinstance(f, ReductionWitness):
            verify_claim(f, x, z, min(f_horizon, f.horizon))
        else:
            cex = check_reduction_prefix(f, SetRelation(x), SetRelation(z),
                                         f_horizon)
            if cex is not None:
                raise NotCertified(
                    f"supplied witness is not a reduction: {cex.describe()}")
    elif not all(x.zeros_by_index(s) <= z.zeros_by_index(s)
                 for s in range(f_horizon)):
        raise NotCertified("no reduction witness and no profile domination")
    return _dense_run(x, z, family, max_stages, policy, cycle_budget, None,
                      "dense")


def construct_dense_incomparable(x: PrSet, t: PrSet, z: PrSet, certificates,
                                 family, max_stages: int, policy: str = "once",
                                 cycle_budget: int | None = None) -> ConstructionResult:
    """Density with both-direction counterexamples against a middle set."""
    for key in ("x<=t", "t<=z"):
        w = (certificates or {}).get(key)
        if w is None or not getattr(w, "verified", False):
            raise NotCertified(f"missing verified certificate {key}")
    if t.bit(0) != 1:
        raise PreconditionFailed("the middle set must contain 0")
    return _dense_run(x, z, family, max_stages, policy, cycle_budget, t,
                      "dense-incomparable")


# ---------------------------------------------------------------------------
# Join and meet splittings


def _split_run(z: PrSet, family, max_stages, policy, cycle_budget,
               mode: str) -> ConstructionResult:
    """Shared runner for the join and meet splittings.

    Join mode: within a P cycle the first output copies the input set while
    the second gets filler ones, then transition zeros until the zero
    counts agree; blockwise the second output is ones-then-zeros, so the
    blockwise join reproduces the input.  Meet mode flips the filler bits
    (zeros first, then ones) and targets the dual requirement.
    """
    family = list(family)
    _sample_infinite_coinfinite(z, min(200, max_stages))
    construction = "join-split" if mode == "join" else "meet-split"
    header = _base_header(construction, [("Z", z)], family, policy, max_stages,
                          cycle_budget, "stage", ["Y0", "Y1"])
    y0, y1 = _Output("Y0"), _Output("Y1")
    records = []
    counterexamples = []
    sched = _Schedule(["P", "Q"], len(family), policy)
    z_bits = []
    dummy_idx = 0
    copy_fill = 1 if mode == "join" else 0
    trans_fill = 1 - copy_fill

    def open_next(events):
        nonlocal dummy_idx
        nxt = sched.next_cycle()
        if nxt is None:
            label = f"F{dummy_idx}"
            kind = "P" if dummy_idx % 2 == 0 else "Q"
            dummy_idx += 1
            events.append(f"open:{label}")
            return [label, None, kind, None, "copy", None]
        label, e, _, kind = nxt
        events.append(f"open:{label}")
        det = _Detector("RX_to_RY", family[e], family[e].name)
        return [label, e, kind, det, "copy", None]

    events0 = []
    cycle = open_next(events0)
    records.append(StageRecord(0, cycle[0], "init", (), tuple(events0)))

    for stage in range(1, max_stages + 1):
        s = stage - 1
        z_bits.append(z.bit(s))
        label, e, kind, det, phase, opened = cycle
        opened = opened if opened is not None else 0
        if cycle_budget and stage - opened > cycle_budget:
            raise StageBudgetExhausted("cycle exceeded its stage budget",
                                       cycle=label, phase=phase, stage=stage,
                                       trace=Trace(header, records))
        copier, filler = (y0, y1) if kind == "P" else (y1, y0)
        fill_bit = copy_fill if phase == "copy" else trans_fill
        copier.emit(z.bit(s))
        filler.emit(fill_bit)
        events = []
        if phase == "copy":
            if det is not None:
                if mode == "join":
                    fired = det.scan(stage, src_bits=z_bits, tgt_bits=filler.bits)
                else:
                    fired = det.scan(stage, src_bits=filler.bits, tgt_bits=z_bits)
                if fired:
                    if mode == "join":
                        cex = det.extract(stage, src_bits=z_bits,
                                          tgt_bits=filler.bits)
                        counterexamples.append((label, cex, z.name, filler.name))
                    else:
                        cex = det.extract(stage, src_bits=filler.bits,
                                          tgt_bits=z_bits)
                        counterexamples.append((label, cex, filler.name, z.name))
                    events.append(_cex_event(label, cex))
                    phase = "next-transition"
            else:
                # dummy cycle: rebalance as soon as the counts diverge
                if copier.zero_count != filler.zero_count:
                    phase = "next-transition"
        elif phase == "transition":
            if y0.zero_count == y1.zero_count:
                events.append(f"close:{label}")
                newc = open_next(events)
                newc[5] = stage
                cycle = newc
                records.append(StageRecord(
                    stage, label, phase,
                    (("Y0", y0.bits[-1]), ("Y1", y1.bits[-1])), tuple(events)))
                continue
        shown = "copy" if phase in ("copy", "next-transition") else phase
        if phase == "next-transition":
            phase = "transition"
        cycle = [label, e, kind, det, phase, opened]
        records.append(StageRecord(stage, label, shown,
                                   (("Y0", y0.bits[-1]), ("Y1", y1.bits[-1])),
                                   tuple(events)))

    if cycle[1] is not None and policy == "once":
        raise StageBudgetExhausted("open cycle at the stage budget",
                                   cycle=cycle[0], phase=cycle[4],
                                   stage=max_stages, trace=Trace(header, records))

    trace = Trace(header, records)
    result = ConstructionResult(construction,
                                {"Y0": y0.as_set(), "Y1": y1.as_set()},
                                trace, counterexamples, notes={"z": z, "mode": mode})
    _finish(result)
    return result


def construct_join_split(z: PrSet, family, max_stages: int,
                         policy: str = "once",
                         cycle_budget: int | None = None) -> ConstructionResult:
    return _split_run(z, family, max_stages, policy, cycle_budget, "join")


def construct_meet_split(z: PrSet, family, max_stages: int,
                         policy: str = "once",
                         cycle_budget: int | None = None) -> ConstructionResult:
    return _split_run(z, family, max_stages, policy, cycle_budget, "meet")


# ---------------------------------------------------------------------------
# Diamond construction


def construct_diamond(x: PrSet, z: PrSet, family, max_stages: int,
                      policy: str = "once", cycle_budget: int | None = None,
                      min_equilibria: int = 1) -> ConstructionResult:
    """Two sets whose meet and join reproduce the given pair bit-exactly.

    Requires equilibrium points of the pair below the horizon; a starved
    transition (no further equilibrium) exhausts the stage budget with the
    transition phase named.
    """
    family = list(family)
    if x.bit(0) != 1 or z.bit(0) != 1:
        raise PreconditionFailed("diamond needs 0 in both input sets")
    normalized = False
    if any(x.zeros_by_index(s) > z.zeros_by_index(s) for s in range(max_stages + 1)):
        z = set_join(x, z)
        normalized = True
    eq = [s for s in range(max_stages + 1)
          if x.zeros_by_index(s) == z.zeros_by_index(s)]
    if len(eq) < min_equilibria:
        raise PreconditionFailed(
            f"only {len(eq)} equilibrium points below {max_stages}")
    header = _base_header("diamond", [("X", x), ("Z", z)], family, policy,
                          max_stages, cycle_budget, "stage+1", ["Y0", "Y1"],
                          [("normalized-z", "1" if normalized else "0")])
    y0, y1 = _Output("Y0"), _Output("Y1")
    records = []
    counterexamples = []
    sched = _Schedule(["Q", "P"], len(family), policy)
    z_bits = []
    dummy_idx = 0
    boundary_equalities = []

    def open_next(events, stage):
        nonlocal dummy_idx
        nxt = sched.next_cycle()
        if nxt is None:
            label = f"F{dummy_idx}"
            kind = "Q" if dummy_idx % 2 == 0 else "P"
            dummy_idx += 1
            events.append(f"open:{label}")
            return [label, None, kind, None, "transition", stage]
        label, e, _, kind = nxt
        events.append(f"open:{label}")
        det = _Detector("RX_to_RY", family[e], family[e].name)
        return [label, e, kind, det, "copy", stage]

    events0 = []
    cycle = open_next(events0, 0)
    y0.emit(1)
    y1.emit(1)
    z_bits.append(z.bit(0))
    boundary_equalities.append((0, cycle[0], 0, 0, 0, 0))
    records.append(StageRecord(0, cycle[0], "init", (("Y0", 1), ("Y1", 1)),
                               tuple(events0)))

    for stage in range(1, max_stages + 1):
        z_bits.append(z.bit(stage))
        label, e, kind, det, phase, opened = cycle
        if cycle_budget and stage - opened > cycle_budget:
            raise StageBudgetExhausted("cycle exceeded its stage budget",
                                       cycle=label, phase=phase, stage=stage,
                                       trace=Trace(header, records))
        x_tracker, z_tracker = (y0, y1) if kind == "Q" else (y1, y0)
        x_tracker.emit(x.bit(stage))
        z_tracker.emit(z.bit(stage))
        events = []
        if phase == "copy" and det is not None:
            target = y0 if kind == "Q" else y1
            fired = det.scan(stage, src_bits=z_bits, tgt_bits=target.bits)
            if fired:
                cex = det.extract(stage, src_bits=z_bits, tgt_bits=target.bits)
                counterexamples.append((label, cex, z.name, target.name))
                events.append(_cex_event(label, cex))
                phase = "next-transition"
        if phase == "transition":
            if y0.zero_count == y1.zero_count:
                events.append(f"close:{label}")
                boundary_equalities.append(
                    (stage, label, x.zeros_by_index(stage), y0.zero_count,
                     y1.zero_count, z.zeros_by_index(stage)))
                newc = open_next(events, stage)
                cycle = newc
                records.append(StageRecord(
                    stage, label, phase,
                    (("Y0", y0.bits[-1]), ("Y1", y1.bits[-1])), tuple(events)))
                continue
        shown = "copy" if phase in ("copy", "next-transition") else phase
        if phase == "next-transition":
            phase = "transition"
        cycle = [label, e, kind, det, phase, opened]
        records.append(StageRecord(stage, label, shown,
                                   (("Y0", y0.bits[-1]), ("Y1", y1.bits[-1])),
                                   tuple(events)))

    if cycle[1] is not None and policy == "once":
        phase = cycle[4]
        message = ("transition starved: no further equilibrium point of the pair"
                   if phase == "transition" else "open cycle at the stage budget")
        raise StageBudgetExhausted(message, cycle=cycle[0], phase=phase,
                                   stage=max_stages, trace=Trace(header, records))

    trace = Trace(header, records)
    result = ConstructionResult("diamond", {"Y0": y0.as_set(), "Y1": y1.as_set()},
                                trace, counterexamples,
                                notes={"x": x, "z": z, "normalized": normalized,
                                       "boundaries": boundary_equalities})
    _finish(result)
    return result


# ---------------------------------------------------------------------------
# Separator construction


def _normalize_family(family):
    """Strictly increasing members, each strictly above the previous one."""
    members = list(family)
    val_memo: dict = {}
    cost_memo: dict = {}

    def val(e, x):
        key = (e, x)
        if key not in val_memo:
            v = members[e].value(x)
            if x > 0:
                v = max(v, val(e, x - 1) + 1)
            if e > 0:
                v = max(v, val(e - 1, x) + 1)
            v = max(v, x + 1)
            val_memo[key] = v
        return val_memo[key]

    def cost(e, x):
        # waits dominate values: seeing p(x) takes more steps than p(x) itself
        key = (e, x)
        if key not in cost_memo:
            c = max(1, members[e].cost(x), val(e, x) + 1)
            if x > 0:
                c = max(c, cost(e, x - 1) + 1)
            if e > 0:
                c = max(c, cost(e - 1, x) + 1)
            cost_memo[key] = c
        return cost_memo[key]

    return val, cost


def construct_separator(x: PrSet, y: PrSet, family, max_stages: int,
                        anti_certificate: dict | None = None,
                        policy: str = "once") -> ConstructionResult:
    """A set under the dropped version of x that escapes y through every member.

    Drives a member index V: each member is abandoned once the built set's
    count provably escapes y through it; the built count is capped one
    below x's count, which pins it to the dropped profile bracket.
    """
    family = list(family)
    if anti_certificate is None:
        raise NotCertified("separator needs the caller's anti-reducibility evidence")
    base_val, base_cost = _normalize_family(family)

    def val(e, xx):
        # indices past the family continue as a virtual, strictly larger member
        if e < len(family):
            return base_val(e, xx)
        base = base_val(len(family) - 1, xx) if family else xx
        return base + 1 + (e - len(family) + 1)

    def cost(e, xx):
        if e < len(family):
            return base_cost(e, xx)
        base = base_cost(len(family) - 1, xx) if family else xx + 1
        return base + 1 + (e - len(family) + 1)

    header = _base_header("separator", [("X", x), ("Y", y)], family, policy,
                          max_stages, None, "stage+1", ["Z"])
    zout = _Output("Z")
    records = []
    zx_steps = [x.zeros_by_steps(s) for s in range(max_stages + 2)]
    zx1_steps = [max(0, v - 1) for v in zx_steps]
    # bracket marks: budgets at which the dropped profile steps up
    marks = [t for t in range(max_stages + 1) if zx1_steps[t + 1] > zx1_steps[t]]

    v_idx = 0
    k = 0
    progress = 0
    escape_stages: dict = {}
    windows: dict = {0: [0, None]}      # member -> [first input, last input]
    zout.emit(1)
    records.append(StageRecord(0, "V0", "init", (("Z", 1),), ("open:V0",)))

    def bracket_index(kk):
        # i with marks[i-1] < kk <= marks[i]
        i = 0
        while i < len(marks) and marks[i] < kk:
            i += 1
        return i

    for stage in range(1, max_stages + 1):
        events = []
        label = f"V{v_idx}" if v_idx < len(family) else "-"
        phase = "wait" if v_idx < len(family) else "fallback"
        progress += 1
        increment = False
        if progress >= cost(v_idx, k):
            value = val(v_idx, k)
            events.append(f"conv:e={v_idx}:k={k}:v={value}")
            # a new zero of the dropped set is revealed between budgets k, k+1
            if zx1_steps[k] != zx1_steps[k + 1]:
                increment = True
            if v_idx < len(family):
                z_count = zout.zeros[k]
                y_count = y.zeros_by_steps(value)
                if z_count > y_count:
                    escape_stages[v_idx] = (k, z_count, y_count)
                    events.append(f"escape:e={v_idx}:t={k}:z={z_count}:y={y_count}")
                    windows[v_idx][1] = k
                    v_idx += 1
                    windows[v_idx] = [k + 1, None]
                    events.append(f"open:V{v_idx}" if v_idx < len(family) else "done")
            k += 1
            progress = 0
        if increment:
            cap = max(0, zx_steps[stage] - 1)
            new = max(zout.zero_count, min(zout.zero_count + 1, cap))
        else:
            new = zout.zero_count
        b = 1 if new == zout.zero_count else 0
        zout.emit(b)
        # the built count tracks the dropped-profile bracket at every stage
        want = bracket_index(k)
        if zout.zero_count != want:
            raise AssertionError(
                f"bracket invariant failed at stage {stage}: "
                f"count={zout.zero_count} bracket={want} k={k}")
        if zout.zero_count > max(0, zx_steps[stage] - 1):
            raise AssertionError(f"domination cap failed at stage {stage}")
        records.append(StageRecord(stage, label, phase, (("Z", b),),
                                   tuple(events)))

    if v_idx < len(family):
        raise StageBudgetExhausted(
            "separator did not pass every member", cycle=f"V{v_idx}",
            phase="wait", stage=max_stages, trace=Trace(header, records))

    windows.pop(len(family), None)
    trace = Trace(header, records)
    result = ConstructionResult("separator", {"Z": zout.as_set()}, trace, [],
                                notes={"x": x, "y": y, "escapes": escape_stages,
                                       "windows": windows, "marks": marks,
                                       "val": val, "family_size": len(family)})
    _finish(result)
    return result


# ---------------------------------------------------------------------------
# Validation and replay


def validate_result(result: ConstructionResult) -> list:
    """Post-hoc validation: structural trace invariants plus the
    construction's own stated equalities.  Returns human-readable failures."""
    failures = []
    records = result.trace.records
    convention = result.trace.header_value("prefix-convention")
    outputs = result.trace.header_value("outputs").split(",")
    emitted = {name: 0 for name in outputs}
    for rec in records:
        for name, _ in rec.bits:
            emitted[name] += 1
        expect = rec.stage if convention == "stage" else rec.stage + 1
        for name in outputs:
            if emitted[name] != expect:
                failures.append(
                    f"prefix length {emitted[name]} != {expect} at stage {rec.stage}")
                break
        if rec.stage > 0 and rec.cycle == "-" and rec.phase != "fallback":
            failures.append(f"no open cycle at stage {rec.stage}")

    fam = [resolve_program(t.split("\t")[1])
           for t in result.trace.header_all("family")]
    by_name = {p.name: p for p in fam}
    finals = {n: result.outputs[n] for n in result.outputs}
    horizon = len(records) - 1
    prefixes = {n: Prefix(tuple(finals[n].bit(i) for i in range(
        horizon if convention == "stage" else horizon + 1)))
        for n in finals}
    for label, cex, src, tgt in result.counterexamples:
        prog = by_name.get(cex.member)
        if prog is None:
            failures.append(f"unknown member {cex.member} in {label}")
            continue
        ok = _revalidate(result, cex, src, tgt, prog, prefixes)
        if not ok:
            failures.append(f"counterexample in {label} no longer violates")
    failures.extend(_specific_invariants(result, prefixes))
    return failures


def _input_set(result, role):
    return result.notes.get(role.lower())


def _revalidate(result, cex, src, tgt, prog, prefixes) -> bool:
    def prefix_of(name):
        if name in prefixes:
            return prefixes[name]
        s = _input_set(result, name) or _named_input(result, name)
        length = len(next(iter(prefixes.values())))
        return s.prefix(length - 1)

    if cex.flavor == "R_to_RY":
        rel = result.notes.get("relations", {}).get(src)
        return revalidate_counterexample(cex, prog, source=rel,
                                         sigma_y=prefix_of(tgt))
    if cex.flavor == "RY_to_R":
        rel = result.notes.get("relations", {}).get(tgt)
        return revalidate_counterexample(cex, prog, sigma_y=prefix_of(src),
                                         target=rel)
    return revalidate_counterexample(cex, prog, sigma_x=prefix_of(src),
                                     sigma_y=prefix_of(tgt))


def _named_input(result, name):
    for role in ("x", "z", "t", "y"):
        s = result.notes.get(role)
        if s is not None and s.name == name:
            return s
    raise KeyError(name)


def _last_close(result) -> int:
    last = 0
    for rec in result.trace.records:
        if any(e.startswith("close:") for e in rec.events):
            last = rec.stage
    return last


def _specific_invariants(result, prefixes) -> list:
    failures = []
    name = result.name
    records = result.trace.records
    if name == "immune":
        y = result.outputs["Y"]
        family = result.notes.get("family", [])
        for label, e, case, witness in result.notes.get("closed", []):
            prog = family[e]
            if case == "case1":
                l, m, v = witness
                if l == m or prog.value(l) != prog.value(m):
                    failures.append(f"{label} non-injectivity witness fails")
            else:
                m, v = witness
                if prog.value(m) != v or y.bit(v) != 1:
                    failures.append(f"{label} membership witness fails")
    if name in ("dense", "dense-incomparable"):
        x, z = result.notes["x"], result.notes["z"]
        y = result.outputs["Y"]
        closes = {}
        for rec in records:
            for e in rec.events:
                if e.startswith("close:"):
                    closes[rec.stage] = e.split(":")[1]
        for rec in records:
            s = rec.stage
            a, b, c = x.zeros_by_index(s), y.zeros_by_index(s), z.zeros_by_index(s)
            if not a <= b <= c:
                failures.append(f"chain invariant broken at stage {s}")
                break
        for s, label in closes.items():
            if label.startswith("P") and x.zeros_by_index(s) != y.zeros_by_index(s):
                failures.append(f"lower counts differ at close of {label}")
            if label.startswith("Q") and y.zeros_by_index(s) != z.zeros_by_index(s):
                failures.append(f"upper counts differ at close of {label}")
        g = result.witnesses["lower_into_new"]
        h = result.witnesses["new_into_upper"]
        hor = min(len(g) - 1, len(records) - 2)
        if check_reduction_prefix(list(g), SetRelation(x), SetRelation(y), hor):
            failures.append("lower sandwich witness fails")
        if check_reduction_prefix(list(h), SetRelation(y), SetRelation(z), hor):
            failures.append("upper sandwich witness fails")
    elif name in ("join-split", "meet-split"):
        z = result.notes["z"]
        mode = result.notes["mode"]
        last = _last_close(result)
        y0 = result.outputs["Y0"].prefix(last - 1) if last else None
        y1 = result.outputs["Y1"].prefix(last - 1) if last else None
        if last:
            op = string_join if mode == "join" else string_meet
            got = op(y0, y1)
            want = z.prefix(last - 1)
            if got.bits != want.bits:
                failures.append(f"{mode} of outputs differs from the input set")
        for rec in records:
            for e in rec.events:
                if e.startswith("close:"):
                    a = result.outputs["Y0"].zeros_by_index(rec.stage - 1)
                    b = result.outputs["Y1"].zeros_by_index(rec.stage - 1)
                    if a != b:
                        failures.append(f"counts differ at close stage {rec.stage}")
    elif name == "diamond":
        x, z = result.notes["x"], result.notes["z"]
        last = _last_close(result)
        if last:
            y0 = result.outputs["Y0"]
            y1 = result.outputs["Y1"]
            meet = set_meet(prefix_set("a", [y0.bit(i) for i in range(last + 1)]),
                            prefix_set("b", [y1.bit(i) for i in range(last + 1)]))
            join = set_join(prefix_set("a", [y0.bit(i) for i in range(last + 1)]),
                            prefix_set("b", [y1.bit(i) for i in range(last + 1)]))
            for i in range(last + 1):
                if meet.bit(i) != x.bit(i):
                    failures.append(f"meet side differs at {i}")
                    break
                if join.bit(i) != z.bit(i):
                    failures.append(f"join side differs at {i}")
                    break
        for stage, label, a, b, c, d in result.notes["boundaries"]:
            if label.startswith("Q") or label.startswith("F"):
                if not (a == b == c == d):
                    failures.append(f"four-way equality fails at close {stage}")
            elif not b == c:
                failures.append(f"output counts differ at close {stage}")
    elif name == "separator":
        x, y = result.notes["x"], result.notes["y"]
        zed = result.outputs["Z"]
        hor = len(records) - 1
        for s in range(hor + 1):
            if zed.zeros_by_index(s) > max(0, x.zeros_by_steps(s) - 1):
                failures.append(f"separator cap fails at stage {s}")
                break
        if len(result.notes["escapes"]) < result.notes["family_size"]:
            failures.append("separator missed a member escape")
        val = result.notes["val"]
        for e, window in result.notes["windows"].items():
            k0, k1 = window
            if k1 is None:
                continue
            for kk in range(k0 + 1, k1 + 1):
                stage_val = val(e, kk)
                # the escape margin needs the source to have shown a zero
                if stage_val <= hor and x.zeros_by_steps(kk) >= 1:
                    if zed.zeros_by_index(stage_val) >= x.zeros_by_steps(kk):
                        failures.append(
                            f"anti-diamond window fails for member {e} at k={kk}")
    return failures


def _finish(result: ConstructionResult, relations=None) -> None:
    if relations is not None:
        result.notes["relations"] = {r.name: r for r in relations}
        for i, r in enumerate(relations):
            result.notes.setdefault("relation_list", []).append(r)
    failures = validate_result(result)
    result.trace.footer = [("verdict", "ok" if not failures else "fail")]
    for f in failures:
        result.trace.footer.append(("failure", f))
    result.trace.footer.append(("closed-cycles", str(sum(
        1 for r in result.trace.records for e in r.events if e.startswith("close:")))))
    result.trace.footer.append(("counterexamples", str(len(result.counterexamples))))


# ---------------------------------------------------------------------------
# Files and replay


def save_trace(result: ConstructionResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(result.trace.serialize())


def load_trace_set(path: str, output: str | None = None) -> PrSet:
    """Rebuild a constructed set from a trace file (for the DSL)."""
    name = None
    if ":" in str(path) and not str(path).endswith(":"):
        base, _, maybe = str(path).rpartition(":")
        if maybe.isidentifier():
            path, name = base, maybe
    with open(path) as fh:
        trace = parse_trace(fh.read())
    outputs = trace.header_value("outputs").split(",")
    pick = output or name or outputs[0]
    bits = []
    for rec in trace.records:
        for n, b in rec.bits:
            if n == pick:
                bits.append(b)
    return prefix_set(f"trace:{path}:{pick}", bits, dsl=f"trace {path}:{pick}"
                      if (output or name) else f"trace {path}")


def replay_from_trace(trace: Trace) -> ConstructionResult:
    """Re-run a construction from its header alone."""
    kind = trace.header_value("construction")
    family = [resolve_program(v.split("\t")[1]) for v in trace.header_all("family")]
    policy = trace.header_value("policy")
    max_stages = int(trace.header_value("max-stages"))
    budget_text = trace.header_value("cycle-budget")
    cycle_budget = None if budget_text == "-" else int(budget_text)
    inputs = {}
    for v in trace.header_all("input"):
        role, _, dsl = v.partition("\t")
        if dsl.startswith("!opaque:"):
            raise PreconditionFailed(f"input {role} is not replayable: {dsl}")
        inputs[role] = parse_set(dsl)
    if kind == "immune":
        return construct_immune(family, max_stages, policy, cycle_budget)
    if kind == "incomparable":
        rels = []
        dsls = []
        for v in trace.header_all("relation"):
            _, _, dsl = v.partition("\t")
            if dsl.startswith("!opaque:"):
                raise PreconditionFailed(f"relation is not replayable: {dsl}")
            rels.append(SetRelation(parse_set(dsl)))
            dsls.append(dsl)
        return _incomparable_multi(rels, family, max_stages, policy,
                                   cycle_budget, dsls)
    if kind == "dense":
        return _dense_run(inputs["X"], inputs["Z"], family, max_stages, policy,
                          cycle_budget, None, "dense")
    if kind == "dense-incomparable":
        return _dense_run(inputs["X"], inputs["Z"], family, max_stages, policy,
                          cycle_budget, inputs["T"], "dense-incomparable")
    if kind == "join-split":
        return _split_run(inputs["Z"], family, max_stages, policy,
                          cycle_budget, "join")
    if kind == "meet-split":
        return _split_run(inputs["Z"], family, max_stages, policy,
                          cycle_budget, "meet")
    if kind == "diamond":
        return construct_diamond(inputs["X"], inputs["Z"], family, max_stages,
                                 policy, cycle_budget)
    if kind == "separator":
        return construct_separator(inputs["X"], inputs["Y"], family,
                                   max_stages, anti_certificate={}, policy=policy)
    raise ParseError(f"unknown construction {kind!r}")


def verify_trace_file(path) -> tuple[bool, str]:
    """Byte-identical replay check plus the recorded validation verdict."""
    with open(path, "rb") as fh:
        original = fh.read()
    trace = parse_trace(original.decode())
    result = replay_from_trace(trace)
    replayed = result.trace.serialize().encode()
    if original != replayed:
        n = min(len(original), len(replayed))
        at = next((i for i in range(n) if original[i] != replayed[i]), n)
        return False, f"divergence at byte {at} (original) / byte {at} (replay)"
    verdict = result.trace.footer[0][1] if result.trace.footer else "unknown"
    if verdict != "ok":
        return False, f"validation verdict: {verdict}"
    return True, "ok"
