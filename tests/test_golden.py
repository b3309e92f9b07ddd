"""Golden traces: every construction reproduces its checked-in bytes.

Each case builds one construction from descriptors and program texts and
compares the serialized trace with ``tests/golden/<case>.trace``.  A run
that ends in StageBudgetExhausted is stored as the partial trace the
exception carries, followed by the exception's message, cycle, phase and
stage.  An antichain stores one file per member.

The files pin the byte-level behaviour of the stage machine: labels,
shown phases, filler cycles, bit conventions and exhaustion reports.
Regenerate them only from a commit whose traces are known to be right:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys

import pytest

from punctual.constructions import (
    construct_antichain,
    construct_dense,
    construct_dense_incomparable,
    construct_diamond,
    construct_immune,
    construct_incomparable,
    construct_join_split,
    construct_meet_split,
    construct_separator,
    load_trace_set,
    parse_trace,
    verify_trace_file,
)
from punctual.errors import StageBudgetExhausted
from punctual.pr_lang import resolve_program
from punctual.reductions import domination_certificate
from punctual.sets import SetRelation, parse_set

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

FAMILY = ["P[1,1]", "C(S; P[1,1])", "R(Z; P[3,3])", "C(S; R(Z; P[3,3]))",
          "R(Z; C(S; C(S; P[3,3])))", "C(S; C(S; P[1,1]))"]
LOW, HIGH = "meet(evens, blocks 6)", "join(evens, blocks 6)"
LOW3, HIGH3 = "meet(evens, mod 3)", "join(evens, mod 3)"


def family():
    return [resolve_program(t) for t in FAMILY]


def natives():
    return [resolve_program(t) for t in ("@id", "@succ")]


def immune(fam, n, policy="once", budget=None):
    return construct_immune(fam, n, policy, budget)


def incomparable(fam, n, policy="once", budget=None):
    return construct_incomparable(SetRelation(parse_set("evens")), fam, n,
                                  policy, budget, relation_dsl="evens")


def dense(fam, n, policy="once", budget=None):
    return construct_dense(parse_set(LOW), parse_set(HIGH), None, fam, n,
                           policy, budget)


def dense_incomparable(fam, n, policy="once", budget=None):
    x, t, z = parse_set(LOW3), parse_set("evens"), parse_set(HIGH3)
    certs = {"x<=t": domination_certificate(x, t, n),
             "t<=z": domination_certificate(t, z, n)}
    return construct_dense_incomparable(x, t, z, certs, fam, n, policy, budget)


def join_split(fam, n, policy="once", budget=None):
    return construct_join_split(parse_set("mod 3"), fam, n, policy, budget)


def meet_split(fam, n, policy="once", budget=None):
    return construct_meet_split(parse_set("evens"), fam, n, policy, budget)


def diamond(fam, n, policy="once", budget=None):
    return construct_diamond(parse_set(LOW), parse_set(HIGH), fam, n, policy,
                             budget)


def separator(fam, n, policy="once"):
    return construct_separator(parse_set("id"), parse_set(LOW), fam, n, policy)


CYCLE_DRIVEN = {"immune": immune, "incomparable": incomparable, "dense": dense,
                "dense-incomparable": dense_incomparable,
                "join-split": join_split, "meet-split": meet_split,
                "diamond": diamond}
# stage counts at which the round-robin schedule wraps at least once
ROUND_ROBIN = {"immune": 60, "incomparable": 60, "dense": 60,
               "dense-incomparable": 600, "join-split": 250, "meet-split": 60,
               "diamond": 120}
# cycle budgets and stage caps that exhaust each construction
BUDGET = {"immune": 2, "incomparable": 2, "dense": 5, "dense-incomparable": 5,
          "join-split": 5, "meet-split": 2, "diamond": 5}
SHORT = {"immune": 8, "incomparable": 8, "dense": 15, "dense-incomparable": 15,
         "join-split": 15, "meet-split": 8, "diamond": 15}
ONCE = {"immune": 300, "incomparable": 400, "dense": 600,
        "dense-incomparable": 800, "join-split": 400, "meet-split": 400,
        "diamond": 500}
EMPTY = {"immune": 40, "incomparable": 30, "dense": 60, "join-split": 100,
         "diamond": 60}

CASES = {}
for _kind, _build in CYCLE_DRIVEN.items():
    CASES[f"{_kind}.once"] = (_build, (family, ONCE[_kind]))
    CASES[f"{_kind}.round-robin"] = (_build, (family, ROUND_ROBIN[_kind],
                                              "round-robin"))
    CASES[f"{_kind}.budget"] = (_build, (family, 600, "once", BUDGET[_kind]))
    CASES[f"{_kind}.end"] = (_build, (family, SHORT[_kind]))
    if _kind in EMPTY:
        CASES[f"{_kind}.empty"] = (_build, (list, EMPTY[_kind]))
CASES["antichain.once"] = (lambda fam, n: construct_antichain(3, fam, n),
                           (family, 400))
CASES["separator.once"] = (separator, (natives, 600))
# the separator exhausts at V0 under either policy: its member list is finite
CASES["separator.end"] = (separator, (natives, 40))
CASES["separator.round-robin"] = (separator, (natives, 40, "round-robin"))
CASES["separator.empty"] = (
    lambda fam, n: construct_separator(parse_set("evens"),
                                       parse_set("drop(evens)"), fam, n),
    (list, 200))


def render(case) -> dict:
    """Golden file name -> bytes for one case."""
    build, (make_family, *args) = CASES[case]
    try:
        built = build(make_family(), *args)
    except StageBudgetExhausted as exc:
        tail = (f"exhausted\t{exc}\ncycle\t{exc.cycle}\nphase\t{exc.phase}\n"
                f"stage\t{exc.stage}\n")
        return {f"{case}.trace": (exc.trace.serialize() + tail).encode()}
    if isinstance(built, list):
        return {f"{case}.{i}.trace": r.trace.serialize().encode()
                for i, r in enumerate(built)}
    return {f"{case}.trace": built.trace.serialize().encode()}


def _read(name) -> bytes:
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


def _golden_names():
    return sorted(n for n in os.listdir(GOLDEN) if n.endswith(".trace"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bytes(case):
    for name, data in render(case).items():
        assert data == _read(name), name


def test_every_golden_has_a_case():
    rendered = {name for case in CASES for name in _expected_names(case)}
    assert rendered == set(_golden_names())


def _expected_names(case):
    if case == "antichain.once":
        return [f"{case}.{i}.trace" for i in range(3)]
    return [f"{case}.trace"]


def _finished_and_replayable():
    out = []
    for name in _golden_names():
        text = _read(name).decode()
        # later antichain members are built against opaque relations
        if "\nexhausted\t" in text or "!opaque:" in text:
            continue
        out.append(name)
    return out


@pytest.mark.parametrize("name", _finished_and_replayable())
def test_golden_verifies(name):
    ok, msg = verify_trace_file(os.path.join(GOLDEN, name))
    assert ok, msg


@pytest.mark.parametrize("name", _golden_names())
def test_golden_round_trip(name):
    text = _read(name).decode()
    assert parse_trace(text).serialize() == text


def _bits_by_output(text) -> dict:
    """Each output's bits as the record lines list them, in record order."""
    records = text.split("\n---\n")[1].splitlines()
    bits = {}
    for line in records:
        field = line.split("\t")[3]
        for pair in field.split(",") if field != "-" else []:
            name, _, b = pair.partition("=")
            bits.setdefault(name, []).append(int(b))
    return bits


@pytest.mark.parametrize("name", _golden_names())
def test_golden_columns_match_record_bits(name):
    path = os.path.join(GOLDEN, name)
    text = _read(name).decode()
    listed = _bits_by_output(text)
    trace = parse_trace(text)
    outputs = trace.header_value("outputs").split(",")
    assert set(listed) <= set(outputs)
    for output in outputs:
        want = listed.get(output, [])
        assert trace.columns.get(output, []) == want, output
        s = load_trace_set(f"{path}:{output}")
        assert [s.bit(n) for n in range(len(want))] == want, output


@pytest.mark.parametrize("kind", sorted(ROUND_ROBIN))
def test_round_robin_golden_wraps(kind):
    trace = parse_trace(_read(f"{kind}.round-robin.trace").decode())
    opens = [e for rec in trace.records for e in rec.events
             if e.startswith("open:")]
    cycles = 2 * len(FAMILY) if kind != "immune" else len(FAMILY)
    assert len(opens) > cycles


def _reference_sandwich(x, y_bits, z, horizon):
    """The definitional sandwich tables: a fresh-zero mu-search from 0."""
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


@pytest.mark.parametrize("case", [c for c in sorted(CASES)
                                  if c.startswith("dense")
                                  and c.split(".")[1] in ("once", "round-robin",
                                                          "empty")])
def test_sandwich_witnesses_match_reference(case):
    build, (make_family, *args) = CASES[case]
    r = build(make_family(), *args)
    y = r.output()
    horizon = len(r.trace.records) - 1
    y_bits = [y.bit(i) for i in range(horizon + 1)]
    g, h = _reference_sandwich(r.notes["x"], y_bits, r.notes["z"], horizon)
    assert r.witnesses == {"lower_into_new": g, "new_into_upper": h}


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in sorted(CASES):
        for name, data in render(case).items():
            with open(os.path.join(GOLDEN, name), "wb") as fh:
                fh.write(data)
            sys.stdout.write(f"{name}\t{len(data)}\n")
