"""Command-line front door.

Every command is a pure function of its arguments and input files: no
clock, environment, or randomness reaches the output, so two runs with the
same invocation produce byte-identical results.  Output is decimal,
tab-separated, LF-terminated.

Exit codes: 0 success, 1 misuse (a malformed command line included) or
precondition failure, 2 stage-budget exhaustion, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from operator import eq

from . import constructions, lattice, reductions, sets
from ._text import pair_lines, read_text, write_text
from .errors import MisuseError, StageBudgetExhausted
from .pr_lang import TableProgram, resolve_program
from .reductions import (
    check_reduction_prefix,
    domination_certificate,
    load_witness,
    respect_normal_form,
    surjectivize,
    synth_h_from_reduction,
    synth_reduction_from_h,
)
from .sets import SetRelation, parse_set


def load_family(path) -> list:
    """One canonical program text per line; # comments; order fixes indices."""
    members = []
    for line in read_text(path).split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        members.append(resolve_program(line))
    return members


def cmd_profile(args, out) -> int:
    x = parse_set(args.descriptor)
    stages = range(args.horizon + 1)
    for s, zi, zs in zip(stages, x.profile(stages), x.profile(stages, "steps")):
        out.write(f"{s}\t{zi}\t{zs}\n")
    return 0


def cmd_lattice(args, out) -> int:
    if args.lattice_op in ("join", "meet"):
        x, y = parse_set(args.a), parse_set(args.b)
        stages = range(args.horizon + 1)
        combine = sets.set_join if args.lattice_op == "join" else sets.set_meet
        z = combine(x, y)
        xn = sets.override_zero_member(x)
        yn = sets.override_zero_member(y)
        pick = max if args.lattice_op == "join" else min
        ok = all(map(eq, z.profile(stages), map(pick, xn.profile(stages), yn.profile(stages))))
        out.write(f"bits\t{z.prefix(args.horizon).as_str()}\n")
        out.write(f"profile-identity\t{'ok' if ok else 'fail'}\n")
        return 0 if ok else 1
    if args.lattice_op == "distrib":
        x, y, z = parse_set(args.a), parse_set(args.b), parse_set(args.c)
        lhs = sets.set_join(x, sets.set_meet(y, z))
        rhs = sets.set_meet(sets.set_join(x, y), sets.set_join(x, z))
        ok = lhs.prefix(args.horizon) == rhs.prefix(args.horizon)
        out.write(f"distributivity\t{'ok' if ok else 'fail'}\n")
        return 0 if ok else 1
    x, y = parse_set(args.a), parse_set(args.b)
    rep = lattice.equilibrium_points(x, y, args.horizon, args.convention)
    out.write(pair_lines([("convention", rep.convention), ("count", rep.count),
                          *(("point", s) for s in rep.points)]))
    return 0


def cmd_reduce(args, out) -> int:
    if args.reduce_op != "synth-g" and args.witness is None:
        raise MisuseError(f"reduce {args.reduce_op} needs --witness")
    x, y = parse_set(args.a), parse_set(args.b)
    if args.reduce_op == "check":
        w = load_witness(args.witness)
        cex = check_reduction_prefix(w, SetRelation(x), SetRelation(y),
                                     args.horizon)
        if cex is None:
            out.write("check\tok\n")
            return 0
        out.write(f"check\tfail\t{cex.describe()}\n")
        return 1
    if args.reduce_op == "synth-h":
        w = synth_h_from_reduction(load_witness(args.witness), x, y, args.horizon)
    elif args.reduce_op == "synth-g":
        h = (load_witness(args.witness) if args.witness
             else domination_certificate(x, y, args.horizon))
        w = synth_reduction_from_h(x, y, h, args.horizon)
    else:
        op = surjectivize if args.reduce_op == "surjectivize" else respect_normal_form
        w = op(load_witness(args.witness), x, y, args.horizon)
    text = reductions.serialize_witness(w)
    out.write(text)
    if args.out:
        write_text(args.out, text)
    return 0


def cmd_diamond(args, out) -> int:
    x, y = parse_set(args.a), parse_set(args.b)
    cert = domination_certificate(x, y, args.horizon, args.convention)
    if args.diamond_op == "canonical":
        pw = TableProgram(range(args.horizon + 1), "p")
        w = lattice.canonical_diamond_witness(x, y, pw, pw, args.horizon, args.k)
        out.write(pair_lines([("case", w.case), ("good-stages", w.good_stage_count),
                              ("equilibria", w.equilibrium_count)]))
        return 0
    if args.diamond_op == "restrict":
        missing = [name for name in ("c", "d") if getattr(args, name) is None]
        if missing:
            raise MisuseError(f"diamond restrict needs the operands c and d, "
                              f"missing {' and '.join(missing)}")
        _, ev = lattice.restrict_diamond_witness(x, parse_set(args.c), parse_set(args.d), y,
                                                 args.horizon, cert)
    else:
        q = (load_witness(args.q).program if args.q
             else resolve_program(args.q_program or "P[1,1]"))
        if args.diamond_op == "evidence-q":
            ev = lattice.diamond_evidence_q(x, y, q, args.horizon, args.k, cert,
                                            convention=args.convention,
                                            relaxed=args.relaxed)
        else:
            ev = lattice.diamond_evidence_r(x, y, q, (0, args.horizon), cert, k=args.k)
    out.write(pair_lines([("kind", ev.kind), ("convention", ev.convention), ("count", ev.count),
                          ("verdict", ev.verdict), *(("hit", h) for h in ev.hits)]))
    return 0


def cmd_slow(args, out) -> int:
    family = load_family(args.family) if args.family else []
    if args.slow_op == "make":
        if args.descriptor is not None:
            raise MisuseError("slow make does not read a descriptor")
        s = lattice.make_slow_set(family, args.window)
        # every zero is read before the first line; the last is the longest
        zeros = [s.principal_zero(n) for n in range(args.window + 1)]
        digits = sys.get_int_max_str_digits()
        if digits and zeros[-1] >= 10 ** digits:
            raise MisuseError(f"slow make: zero number {args.window} has more than "
                              f"{digits} digits, the interpreter's limit for printing")
        out.writelines(f"zero\t{n}\t{z}\n" for n, z in enumerate(zeros))
        return 0
    if args.descriptor is None:
        raise MisuseError("slow check needs a descriptor")
    x = parse_set(args.descriptor)
    cert = lattice.check_slowness(x, family, (0, args.window))
    out.write(f"slow-on-window\t{'yes' if cert.slow_on_window else 'no'}\n")
    for member, n, holds in cert.verdicts:
        out.write(f"verdict\t{member}\t{n}\t{'ok' if holds else 'fail'}\n")
    return 0


# builder keywords a registry entry may take from the command line
_OPTIONS = {
    "count": lambda args: args.count,
    "f": lambda args: load_witness(args.witness) if args.witness else None,
    "min_equilibria": lambda args: args.k,
}


def cmd_construct(args, out) -> int:
    kind = args.construct_op
    entry = constructions.CONSTRUCTIONS[kind]
    dests = [role.lower() for role in entry.inputs]
    if len(dests) == 1 and args.target is not None and getattr(args, dests[0]) is None:
        dests = ["target"]      # the positional descriptor stands for the only input
    reads = {*dests, "witness"} if "f" in entry.options else set(dests)
    for name in ("target", "witness", "x", "y", "z", "t", "r"):
        if getattr(args, name) is not None and name not in reads:
            flag = name if name == "target" else f"--{name}"
            raise MisuseError(f"construct {kind} does not read {flag}")
    family = load_family(args.family) if args.family else []
    inputs = []
    for name in dests:
        if getattr(args, name) is None:
            raise MisuseError(f"construct {kind} needs --{name}")
        inputs.append(parse_set(getattr(args, name)))
    options = {kw: _OPTIONS[kw](args) for kw in entry.options}
    built = entry.build(*inputs, family=family, max_stages=args.max_stages,
                        policy=args.policy, **options)
    if isinstance(built, list):
        # an antichain writes one trace per member
        for i, r in enumerate(built):
            path = f"{args.out}.{i}" if args.out else None
            if path:
                constructions.save_trace(r, path)
                out.write(f"trace\t{path}\n")
            out.write(f"verdict\t{i}\t{r.trace.footer[0][1]}\n")
        return 0
    if args.out:
        constructions.save_trace(built, args.out)
        out.write(f"trace\t{args.out}\n")
    verdict = built.trace.footer[0][1]
    out.write(pair_lines([("verdict", verdict), *(("output", n) for n in built.outputs)]))
    return 0 if verdict == "ok" else 1


def cmd_verify(args, out) -> int:
    ok, msg = constructions.verify_trace_file(args.trace)
    out.write(f"verify\t{'ok' if ok else 'fail'}\t{msg}\n")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors are misuse (exit 1): argparse's own exit 2 would read
    as stage-budget exhaustion."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise MisuseError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="punctual",
                description="clocked sets, reducibility calculus, and "
                            "diagonalization runs")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, convention=True):
        sp.add_argument("--horizon", type=int, default=100)
        if convention:
            sp.add_argument("--convention", choices=["index", "steps"],
                            default="index")

    sp = sub.add_parser("profile", help="zero-count profile in both conventions")
    sp.add_argument("descriptor")
    common(sp, convention=False)
    sp.set_defaults(fn=cmd_profile)

    sp = sub.add_parser("lattice", help="join/meet/distributivity/equilibrium")
    sp.set_defaults(fn=cmd_lattice)
    ops = sp.add_subparsers(dest="lattice_op", required=True)
    # only equilibrium reads a convention, and only distrib a third set
    for op, operands in (("join", "ab"), ("meet", "ab"), ("distrib", "abc"),
                         ("equilibrium", "ab")):
        op_parser = ops.add_parser(op)
        for name in operands:
            op_parser.add_argument(name)
        common(op_parser, convention=op == "equilibrium")

    sp = sub.add_parser("reduce", help="verify and transform reduction witnesses")
    sp.add_argument("reduce_op",
                    choices=["check", "synth-h", "synth-g", "surjectivize",
                             "respect"])
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--witness")
    sp.add_argument("--out")
    common(sp, convention=False)
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("diamond", help="diamond-interval evidence")
    sp.add_argument("diamond_op",
                    choices=["evidence-q", "evidence-r", "canonical", "restrict"])
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("c", nargs="?")
    sp.add_argument("d", nargs="?")
    sp.add_argument("--q", help="witness table file for the stage map")
    sp.add_argument("--q-program", help="program text for the stage map")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--relaxed", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_diamond)

    sp = sub.add_parser("slow", help="slow sets and their certificates")
    sp.add_argument("slow_op", choices=["make", "check"])
    sp.add_argument("descriptor", nargs="?")
    sp.add_argument("--family")
    sp.add_argument("--window", type=int, default=10)
    sp.set_defaults(fn=cmd_slow)

    sp = sub.add_parser("construct", help="run a diagonalization construction")
    sp.add_argument("construct_op", choices=list(constructions.CONSTRUCTIONS))
    sp.add_argument("target", nargs="?",
                    help="input descriptor for the split constructions")
    sp.add_argument("--z")
    sp.add_argument("--family")
    sp.add_argument("--max-stages", type=int, default=500)
    sp.add_argument("--policy", choices=["once", "round-robin"], default="once")
    sp.add_argument("--x")
    sp.add_argument("--y")
    sp.add_argument("--t")
    sp.add_argument("--r", help="relation descriptor for incomparability")
    sp.add_argument("--count", type=int, default=2)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--witness")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("verify", help="replay a trace file and re-check it")
    sp.add_argument("trace")
    sp.set_defaults(fn=cmd_verify)
    return p


_NON_NEGATIVE = ("horizon", "max_stages", "window", "k", "count")
# the bounds that size a run: past the index ceiling they fill memos past it
_CEILED = ("horizon", "max_stages", "window")


def _check_bounds(args):
    for name in _NON_NEGATIVE:
        value = getattr(args, name, None)
        if value is None:
            continue
        flag = f"--{name.replace('_', '-')}"
        if value < 0:
            raise MisuseError(f"{flag} must be >= 0, got {value}")
        if name in _CEILED and value > sets.DEFAULT_CEILING:
            raise MisuseError(f"{flag} must be <= the index ceiling "
                              f"{sets.DEFAULT_CEILING}, got {value}")


def _echo_config(args, out):
    fields = {k: v for k, v in sorted(vars(args).items()) if k != "fn"}
    rendered = " ".join(f"{k}={v}" for k, v in fields.items())
    out.write(f"# config {rendered}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process; each parse fills a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _check_bounds(args)
        _echo_config(args, sys.stdout)
        code = args.fn(args, sys.stdout)
    except StageBudgetExhausted as exc:
        sys.stderr.write(f"stage budget exhausted: {exc}\n")
        return 2
    except MisuseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
