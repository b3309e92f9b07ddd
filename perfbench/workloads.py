"""Job pools, seeded job lists and job runners for the three workloads.

A job is a JSON-able key.  Every key names one unit of a finite pool, so
the expected output of every job the benchmark can draw is stored in
``expected/`` (see ``gen_expected.py``).  A job list is a pure function of
the workload, the seed and the job count: the seed picks units by
stratified sampling, so the total work of a list barely depends on the
seed, and then shuffles them.

Every job builds fresh descriptors and programs, so per-object memos start
cold, as in one CLI call.  Process-global caches (the evaluator's compile
table and the ``decode`` LRU) persist across jobs, as in a library session.
The library is reached only through public module attributes, which lets
the traced run rebind them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from punctual import cli, constructions, lattice, pr_lang, reductions, sets

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def key_str(key) -> str:
    return "|".join(str(k) for k in key)


# ---------------------------------------------------------------------------
# Set-up: family files and trace inputs, written with the library

TERM_FAMILY = [
    "P[1,1]",
    "C(S; P[1,1])",
    "R(Z; P[3,3])",
    "C(S; R(Z; P[3,3]))",
    "R(Z; C(S; C(S; P[3,3])))",
    "C(S; C(S; P[1,1]))",
]
NATIVE_FAMILY = ["@id", "@succ", "@plus2", "@double"]
SETUP_FILES = ("family.fam", "natives.fam", "imm.trace", "js.trace",
               "dense.trace")


def setup(workdir: str) -> dict:
    """Write the inputs every workload reads; returns their digests."""
    family = [pr_lang.resolve_program(t) for t in TERM_FAMILY]
    with open(os.path.join(workdir, "family.fam"), "w") as fh:
        fh.writelines(pr_lang.program_text(p) + "\n" for p in family)
    natives = [pr_lang.resolve_program(t) for t in NATIVE_FAMILY]
    with open(os.path.join(workdir, "natives.fam"), "w") as fh:
        fh.writelines(pr_lang.program_text(p) + "\n" for p in natives)
    for argv in (["construct", "immune", "--family", "family.fam",
                  "--max-stages", "400", "--out", "imm.trace"],
                 ["verify", "imm.trace"]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"set-up: punctual {argv[0]} exited {code}")
    split = constructions.construct_join_split(sets.mod_set(3), family, 400)
    constructions.save_trace(split, os.path.join(workdir, "js.trace"))
    x = sets.set_meet(sets.evens_set(), sets.blocks_set(6))
    z = sets.set_join(sets.evens_set(), sets.blocks_set(6))
    cert = reductions.domination_certificate(x, z, 300)
    dense = constructions.construct_dense(x, z, cert, family, 600)
    constructions.save_trace(dense, os.path.join(workdir, "dense.trace"))
    out = {}
    for name in SETUP_FILES:
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = digest([fh.read()])
    return out


# ---------------------------------------------------------------------------
# term_eval: term-backed descriptors and clocked Goedel programs

PRED = "R(Z; P[3,2])"
MSUB = f"R(P[1,1]; C({PRED}; P[4,4]))"        # MSUB(y, x) = x monus y
CONST1 = "C(S; R(Z; P[3,3]))"
NOT = f"C({MSUB}; P[1,1], {CONST1})"           # 1 iff n == 0
MOD2 = f"R(Z; C({NOT}; P[3,3]))"               # n mod 2
TERMS = {"evens": f"C({NOT}; {MOD2})", "odds": MOD2, "zero": NOT}


def linear_bound(a: int, b: int) -> str:
    """Unary term computing a*n + b in one recursion with a flat step."""
    step = "P[3,3]"
    for _ in range(a):
        step = f"C(S; {step})"
    t = f"R(Z; {step})"
    for _ in range(b):
        t = f"C(S; {t})"
    return t


BOUNDS = {"b17": linear_bound(17, 40), "b24": linear_bound(24, 60)}


def term_reference(term: str):
    """Independent membership reference: builtins, not the evaluator."""
    if term == "evens":
        return sets.evens_set().bit
    if term == "zero":
        return sets.singleton_zero_set().bit
    evens = sets.evens_set()
    return lambda n: 1 - evens.bit(n)


TSET_HORIZONS = list(range(24, 129, 8))
CONV_CAP = 1 << 13
CONV_BATCH = 8             # units per job, one from each cost stratum


def tset_pool():
    return [("tset", t, b, k, h) for t in TERMS for b in BOUNDS
            for k in (3, 5) for h in TSET_HORIZONS]


def run_tset(key):
    _, term, bound, k, h = key
    x = sets.term_set(TERMS[term], BOUNDS[bound], name=f"term-{term}")
    idx = [x.zeros_by_index(s) for s in range(h + 1)]
    top = x.cum_cost(h)
    stp = [x.zeros_by_steps(s) for s in range(0, top + 1, max(1, top // h))]
    j = sets.set_join(x, sets.mod_set(k))
    jidx = [j.zeros_by_index(s) for s in range(h + 1)]
    jtop = j.cum_cost(h)
    jstp = [j.zeros_by_steps(s) for s in range(0, jtop + 1, max(1, jtop // h))]
    ref = term_reference(term)
    refs = [x.prefix(h).bits == tuple(ref(n) for n in range(h + 1))]
    return [idx, stp, jidx, jstp], refs


def conv_units_pool(count: int = 1024, seed: int = 0):
    """(e, x) pairs of the public unary enumeration, before costing."""
    rng = random.Random(seed)
    return [(rng.randrange(1 << 18), rng.randrange(1, 40)) for _ in range(count)]


def conv_budgets(cost: int):
    return (cost, cost + 1)


def run_conv(key, units):
    """Clocked runs whose budgets straddle each program's exact cost."""
    out = []
    for u in key[1:]:
        e, x, cost, _ = units[u]
        out.append([pr_lang.converges_within(e, x, s) for s in conv_budgets(cost)])
    return out, []


def conv_expected(key, units):
    out = []
    for u in key[1:]:
        _, _, cost, value = units[u]
        out.append([value if cost < s else None for s in conv_budgets(cost)])
    return out


# ---------------------------------------------------------------------------
# witness_calculus: synthesis round trips and lattice evidence

PAIRS = [
    ("meet(evens, mod 3)", "mod 3"),
    ("evens", "join(evens, mod 3)"),
    ("meet(mod 3, mod 7)", "mod 7"),
    ("meet(blocks 3, evens)", "evens"),
    ("blocks 6", "join(blocks 6, mod 3)"),
    ("drop(evens)", "evens"),
    ("drop(blocks 6)", "blocks 6"),
    ("drop(mod 3)", "mod 3"),
    ("meet(trace imm.trace, evens)", "evens"),
    ("trace imm.trace", "join(trace imm.trace, mod 3)"),
    ("meet(trace js.trace:Y0, mod 3)", "mod 3"),
    ("trace dense.trace", "join(trace dense.trace, evens)"),
]
TRACE_PAIRS = [i for i, (a, b) in enumerate(PAIRS) if "trace" in a + b]
WIT_KINDS = ("round_h", "round_p", "rewrite", "lattice")
WIT_HORIZONS = range(200, 1001, 50)
IDENTITY = pr_lang.NATIVE_REGISTRY["id"]


def wit_pool():
    return [("wit", kind, p, h) for kind in WIT_KINDS
            for p in range(len(PAIRS)) for h in WIT_HORIZONS]


def _reduces(w, x, y, h) -> bool:
    return reductions.check_reduction_prefix(
        w, sets.SetRelation(x), sets.SetRelation(y), h) is None


def _round_trip(w) -> bool:
    text = reductions.serialize_witness(w)
    back = reductions.parse_witness(text)
    return back.program.values == w.program.values and back.claim == w.claim


def run_wit(key):
    _, kind, pair, h = key
    x, y = (sets.parse_set(d) for d in PAIRS[pair])
    g = reductions.synth_reduction_from_h(x, y, IDENTITY, h)
    texts = [reductions.serialize_witness(g)]
    refs = [_reduces(g, x, y, h), _round_trip(g)]
    if kind == "round_h":
        gh = reductions.synth_h_from_reduction(g, x, y, h)
        reductions.verify_claim(gh, x, y, h)
        g2 = reductions.synth_reduction_from_h(x, y, gh, h)
        texts += [reductions.serialize_witness(gh), reductions.serialize_witness(g2)]
        refs += [_reduces(g2, x, y, h), _round_trip(gh)]
    elif kind == "round_p":
        p = reductions.synth_p_from_reduction(g, x, y, x.cum_cost(h))
        reductions.verify_claim(p, x, y, h)
        g3 = reductions.synth_reduction_from_p(x, y, p, h)
        texts += [reductions.serialize_witness(p), reductions.serialize_witness(g3)]
        refs += [_reduces(g3, x, y, h)]
    elif kind == "rewrite":
        r = reductions.respect_normal_form(g, x, y, h)
        s = reductions.surjectivize(g, x, y, h)
        reductions.verify_claim(s, x, y, h)
        texts += [reductions.serialize_witness(r), reductions.serialize_witness(s)]
        refs += [_reduces(r, x, y, h), _reduces(s, x, y, h), _round_trip(s)]
    else:
        eq_i = lattice.equilibrium_points(x, y, h, "index")
        eq_s = lattice.equilibrium_points(x, y, h, "steps")
        cert = reductions.domination_certificate(x, y, h)
        ev_q = lattice.diamond_evidence_q(x, y, IDENTITY, h, 1, cert,
                                          convention="index")
        ev_r = lattice.diamond_evidence_r(x, y, IDENTITY, (0, h // 8), cert)
        texts += [eq_i.points, eq_s.points, reductions.serialize_witness(cert),
                  lattice.serialize_evidence(ev_q), lattice.serialize_evidence(ev_r)]
        refs += [_round_trip(cert)]
    return texts, refs


# ---------------------------------------------------------------------------
# stage_machine: constructions through the CLI, each verified by replay

FAM = ["--family", "family.fam"]
STAGE_KINDS = {
    "immune": ["immune"] + FAM,
    "incomparable": ["incomparable", "--r", "evens"] + FAM,
    "antichain": ["antichain", "--count", "3"] + FAM,
    "dense": ["dense", "--x", "meet(evens, blocks 6)",
              "--z", "join(evens, blocks 6)"] + FAM,
    "dense-incomparable": ["dense-incomparable", "--x", "meet(evens, mod 3)",
                           "--t", "evens", "--z", "join(evens, mod 3)"] + FAM,
    "join-split": ["join-split", "mod 3"] + FAM,
    "meet-split": ["meet-split", "evens"] + FAM,
    "diamond": ["diamond", "--x", "meet(evens, blocks 6)",
                "--z", "join(evens, blocks 6)"] + FAM,
    "separator": ["separator", "--x", "id", "--y", "trace dense.trace",
                  "--family", "natives.fam"],
}
# dense's witness synthesis is quadratic in the stage count: by 2000 stages
# it dominates the job
STAGE_COUNTS = range(300, 2001, 50)


def stage_pool():
    return [("stage", kind, n) for kind in STAGE_KINDS for n in STAGE_COUNTS]


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_stage(key):
    _, kind, n = key
    out = "job.trace"
    code, text = _cli(["construct"] + STAGE_KINDS[kind]
                      + ["--max-stages", str(n), "--out", out])
    parts = [code, text]
    refs = [code == 0]
    # later antichain members are built against opaque relations, which a
    # replay cannot rebuild, so only the first member's trace is verified
    path = f"{out}.0" if kind == "antichain" else out
    vcode, vtext = _cli(["verify", path])
    refs.append(vcode == 0 and vtext.splitlines()[-1].startswith("verify\tok"))
    with open(path, "rb") as fh:
        parts += [vcode, vtext, fh.read()]
    return parts, refs


def check(key, outputs, expected) -> bool:
    """True when a job's outputs match the stored expectation and every
    independent reference held."""
    parts, refs = outputs
    if key[0] == "conv":
        want = conv_expected(key, expected["units"])
        return parts == want and all(refs)
    return digest(parts) == expected["digests"].get(key_str(key)) and all(refs)


# ---------------------------------------------------------------------------
# Job lists


def load_expected(workload: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def _stratified(rng, pool, count):
    """count units, one from each of count equal slices of the ordered pool."""
    picks = []
    for i in range(count):
        lo = i * len(pool) // count
        hi = max(lo + 1, (i + 1) * len(pool) // count)
        picks.append(pool[rng.randrange(lo, hi)])
    return picks


# jobs per kind in a list of 100 jobs; each kind's pool is ordered by size.
# In term_eval the descriptor profiles are the majority, so the median job
# lies inside one population and not at the gap between two.
RECIPES = {
    "term_eval": {"tset": 60, "conv": 40},
    "witness_calculus": {"round_h": 25, "round_p": 25, "rewrite": 25, "lattice": 25},
    "stage_machine": {kind: 11 for kind in STAGE_KINDS},
}


# drawn into every list: the trace-backed synthesis at horizon 1000, whose
# step tables set the peak memory, so that peak does not depend on the seed
ANCHORS = {"witness_calculus": [("wit", "round_p", p, 1000) for p in TRACE_PAIRS]}


def job_list(workload: str, seed: int, count: int, expected: dict) -> list:
    rng = random.Random(f"{workload}:{seed}")
    recipe = RECIPES[workload]
    total = sum(recipe.values())
    jobs = []
    for kind, share in recipe.items():
        n = -(-count * share // total)
        if workload == "term_eval" and kind == "tset":
            pool = sorted(tset_pool(), key=lambda k: (k[2], k[4], k[1], k[3]))
            jobs += _stratified(rng, pool, n)
        elif workload == "term_eval":
            units = expected["units"]
            order = sorted(range(len(units)), key=lambda u: (units[u][2], u))
            for _ in range(n):
                jobs.append(("conv",) + tuple(_stratified(rng, order, CONV_BATCH)))
        elif workload == "witness_calculus":
            pool = sorted((k for k in wit_pool() if k[1] == kind),
                          key=lambda k: (k[2], k[3]))
            jobs += _stratified(rng, pool, n)
        else:
            pool = [k for k in stage_pool() if k[1] == kind]
            jobs += _stratified(rng, pool, n)
    jobs += ANCHORS.get(workload, [])
    rng.shuffle(jobs)
    return [tuple(j) for j in jobs]
