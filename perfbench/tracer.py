"""Spans around calls into each punctual layer, for the traced run only.

``install()`` replaces the public functions of every layer module, and a
few public methods of the descriptor and term-program classes, with
wrappers.  Each name is rebound in every module that holds it, so a call
that one module makes into another through an imported name (for example
``constructions.validate_result`` or ``pr_lang.eval_total`` from ``sets``)
is seen too.

A wrapper opens a span when the call crosses into another layer, or when
the function is one whose time is reported on its own (validation and
replay).  A call inside the same layer runs without a span, so a layer's
self time is the time its spans spend outside their child spans.  Spans
hold a name, start, end and parent; the first ``MAX_SPANS`` are kept in
memory and written out by ``dump``.  Self time and call counts are
accumulated for every span, also past that cap.

A span costs about 1.2 us, several times a memoised descriptor read, and
the memo reads (``PrSet.bit``, ``zeros_by_index``, ``bit_cost``,
``cum_cost`` and ``SetRelation`` lookups) run tens of millions of times
per run.  They are therefore not wrapped and their time counts toward the
caller.  What the descriptor layer is charged with instead is every new
bit: the bit and cost functions a ``PrSet`` is built with are wrapped, so
materialising a bit is a ``sets`` span wherever the read came from.  The
same holds for the pure helpers in ``HOT_HELPERS``.

Work counters are computed from return values after the span has closed,
so their cost lands in the caller and not in the callee's span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

from punctual.pr_lang import Converged

LAYERS = ("pr_lang", "sets", "reductions", "lattice", "constructions", "cli")
METHODS = {
    "sets": {"PrSet": ("prefix", "zeros_by_steps", "principal_zero")},
    "pr_lang": {"TermProgram": ("cost",)},
}
HOT_HELPERS = {"pr_lang.arity", "pr_lang.cantor_pair", "pr_lang.cantor_unpair",
               "reductions.images_split", "lattice.zeros"}
ALWAYS_SPAN = {"constructions.validate_result", "constructions.replay_from_trace"}
MAX_SPANS = 200_000
ROOT = "bench"


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.spans: list = []          # (span id, name id, start, end, parent id)
        self.next_id = 0
        self.dropped = 0
        self.stack = [[ROOT, 0.0, 0]]  # [layer, child time, span id]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)   # inclusive time per span name
        self.calls = Counter()
        self.counters = Counter()

    def _name_id(self, name):
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def wrap(self, layer, name, fn, count=None, always=None):
        """A wrapper that spans ``fn`` at layer crossings and counts its results."""
        if always is None:
            always = name in ALWAYS_SPAN
        name_id = self._name_id(name)
        stack, spans, counters = self.stack, self.spans, self.counters
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top[0] == layer and not always:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counters, args, result, False)
                return result
            self.next_id += 1
            frame = [layer, 0.0, self.next_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                top[1] += duration
                self_s[layer] += duration - frame[1]
                total_s[name] += duration
                calls[layer] += 1
                if len(spans) < MAX_SPANS:
                    spans.append((frame[2], name_id, start, end, top[2]))
                else:
                    self.dropped += 1
            if count is not None:
                count(counters, args, result, True)
            return result

        return wrapper

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names, "dropped": self.dropped,
                       "fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Counters from return values


def _count_eval_clocked(c, args, result, spanned):
    c["pr_lang.clocked"] += 1
    if isinstance(result, Converged):
        c["pr_lang.converged"] += 1
        c["pr_lang.visits"] += result.steps
    else:
        c["pr_lang.visits"] += max(1, args[2])


def _count_eval_cost(c, args, result, spanned):
    c["pr_lang.visits"] += result


def _count_bit(c, args, result, spanned):
    c["sets.bits"] += 1


def _count_steps_query(c, args, result, spanned):
    c["sets.steps_queries"] += 1


def _count_witness(c, args, result, spanned):
    values = getattr(getattr(result, "program", None), "values", None)
    if spanned and values is not None:
        c["reductions.table_entries"] += len(values)


def _count_stages(c, args, result, spanned):
    if not spanned:
        return
    for r in result if isinstance(result, list) else [result]:
        c["constructions.stages"] += len(r.trace.records)


COUNTERS = {
    "pr_lang.eval_clocked": _count_eval_clocked,
    "pr_lang.eval_cost": _count_eval_cost,
    "sets.PrSet.bit_fn": _count_bit,
    "sets.PrSet.zeros_by_steps": _count_steps_query,
    "constructions.replay_from_trace": _count_stages,
}


def _counter_for(layer, name):
    if name in COUNTERS:
        return COUNTERS[name]
    if layer == "reductions":
        return _count_witness
    if name.startswith("constructions.construct_"):
        return _count_stages
    return None


def _wrap_generators(tracer, cls):
    """Span the bit and cost functions every new descriptor is built with."""
    init = cls.__init__
    bit_name, cost_name = "sets.PrSet.bit_fn", "sets.PrSet.cost_fn"

    @functools.wraps(init)
    def __init__(self, name, bit_fn, cost_fn=None, **kwargs):
        bit_fn = tracer.wrap("sets", bit_name, bit_fn, COUNTERS[bit_name])
        if cost_fn is not None:
            cost_fn = tracer.wrap("sets", cost_name, cost_fn)
        init(self, name, bit_fn, cost_fn, **kwargs)

    cls.__init__ = __init__


def install(extra_modules=()) -> Tracer:
    """Wrap every layer and rebind the wrapped names everywhere they live."""
    tracer = Tracer()
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"punctual.{layer}")
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or name in HOT_HELPERS):
                continue
            replaced[id(obj)] = (obj, tracer.wrap(layer, name, obj,
                                                  _counter_for(layer, name)))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                setattr(cls, meth, tracer.wrap(layer, name, getattr(cls, meth),
                                               _counter_for(layer, name)))
    _wrap_generators(tracer, importlib.import_module("punctual.sets").PrSet)
    modules = [m for n, m in sys.modules.items()
               if n == "punctual" or n.startswith("punctual.")]
    for mod in modules + list(extra_modules):
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return tracer


def root_span(tracer: Tracer, name: str, fn):
    """Wrap benchmark code (set-up, a job) as a root span of the benchmark."""
    return tracer.wrap(ROOT, name, fn, always=True)


def layer_metrics(tracer: Tracer, trace_bytes: int, factor: float) -> dict:
    """Per-layer metrics of one traced run, by name, as (value, unit).

    Times are scaled by ``factor`` from wall seconds to the reference
    seconds the job times are reported in (see ``speed``).
    """
    c = tracer.counters
    self_s = defaultdict(float, {k: t * factor for k, t in tracer.self_s.items()})
    layer_total = sum(self_s[l] for l in LAYERS) or 1.0

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (tracer.calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")
        m[f"{layer}.self_share"] = (self_s[layer] / layer_total, "share")
    m["pr_lang.visits"] = (c["pr_lang.visits"], "count")
    m["pr_lang.visits_per_s"] = (rate(c["pr_lang.visits"], self_s["pr_lang"]), "1/s")
    m["pr_lang.converged_share"] = (
        c["pr_lang.converged"] / c["pr_lang.clocked"] if c["pr_lang.clocked"] else 0.0,
        "share")
    m["sets.bits"] = (c["sets.bits"], "count")
    m["sets.bits_per_s"] = (rate(c["sets.bits"], self_s["sets"]), "1/s")
    m["sets.steps_queries"] = (c["sets.steps_queries"], "count")
    m["reductions.table_entries"] = (c["reductions.table_entries"], "count")
    m["reductions.entries_per_s"] = (
        rate(c["reductions.table_entries"], self_s["reductions"]), "1/s")
    m["constructions.stages"] = (c["constructions.stages"], "count")
    m["constructions.stages_per_s"] = (
        rate(c["constructions.stages"], self_s["constructions"]), "1/s")
    m["constructions.validate_s"] = (
        tracer.total_s["constructions.validate_result"] * factor, "s")
    m["constructions.replay_s"] = (
        tracer.total_s["constructions.replay_from_trace"] * factor, "s")
    m["constructions.trace_bytes"] = (trace_bytes, "bytes")
    return m
