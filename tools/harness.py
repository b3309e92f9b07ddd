"""Counting and result storage shared by the ``bench_*.py`` harnesses.

``counting(counts, calls)`` is a block that counts the descriptor memo's
work into ``counts``:

  * ``ensure_entries``: calls of ``PrSet._ensure``, the memo's one way in,
    hits that return at once included;
  * ``memo_bits``: the bits those calls grew, split by the generator that
    grew them: ``pattern_fill_bits`` (``sets._Pattern``),
    ``operand_fill_bits`` (``sets._MemoFill``, a derived set's fill from
    its operands' memos) and, through ``with_per_bit``, ``per_bit_bits``,
    the rest, grown by the per-bit loop;
  * ``pattern_bit_reads``: ``PrSet.bit`` calls past the memo of a set
    with a pattern, which the pattern answers with no ``_ensure`` entry
    (in a source whose ``bit`` grows the memo there, each grows it);
  * ``term_visits``: the growth of the cost column of each term set, a
    set whose ``dsl`` starts with ``term "`` and that has no fill.  A term
    set's bit costs the evaluator visits of the term's run, so these are
    the visits of the runs behind the bits those ``_ensure`` calls grew.
    A set with a fill, such as the flip that forces 0 into a term set,
    may keep the term set's ``dsl`` but reads its costs off the term
    set's memo, so it runs no term and counts none;
  * one key of ``calls`` per named attribute ``(owner, name)``: the calls
    made to it.

``counting_parses(counts)`` is a block that counts the parses behind the
descriptor caches into ``counts``, each on a cache of its size that starts
empty, as in a fresh process:

  * ``trace_parses``: trace texts parsed for ``load_trace_set``;
  * ``pattern_builds``: join and meet patterns built (``sets._lattice_pattern``).

Against a source without a cache every call parses, and counts.  Every
attribute either block patches is the original object again when the
block ends, also when it raises; an attribute patched twice, such as
``PrSet.bit`` named in ``calls``, counts into both keys.
``store(name, label, result)`` merges a run under ``label`` into
``BENCH_<name>.json`` at the root of the checkout, keeping the other
labels there, and echoes it.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import sys
from functools import lru_cache, partial

from punctual import constructions, sets

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILLS = {"pattern_fill_bits": sets._Pattern, "operand_fill_bits": sets._MemoFill}
# each cache's function, or in a source without it the function that parses
KEPT = {"trace_parses": ((constructions, "_trace_outputs"), (constructions, "parse_trace")),
        "pattern_builds": ((sets, "_lattice_pattern_of"), (sets, "_lattice_pattern"))}


def _counted(counts: dict, key: str, method):
    def call(*args, **kwargs):
        counts[key] += 1
        return method(*args, **kwargs)
    return call


def _filled(counts: dict, key: str, fill):
    def call(self, m, n):
        out = fill(self, m, n)
        counts[key] += len(out[0])
        return out
    return call


def _pattern_reads(counts: dict, bit):
    def call(self, n):
        if n >= len(self._bits) and self._pattern is not None:
            counts["pattern_bit_reads"] += 1
        return bit(self, n)
    return call


def _total_cost(x) -> int:
    return x._cost_cum[-1] if x._cost_cum else 0


def _ensure(counts: dict, ensure):
    def call(self, *args, **kwargs):
        counts["ensure_entries"] += 1
        before = len(self._bits)
        term = self._fill is None and (self.dsl or "").startswith('term "')
        cost = _total_cost(self) if term else 0
        try:
            return ensure(self, *args, **kwargs)
        finally:
            counts["memo_bits"] += len(self._bits) - before
            if term:
                counts["term_visits"] += _total_cost(self) - cost
    return call


def _cold(counts: dict, key: str, cached):
    """An empty cache of cached's size over its function, whose calls, the
    misses, count into counts[key]."""
    return lru_cache(maxsize=cached.cache_info().maxsize)(
        _counted(counts, key, cached.__wrapped__))


@contextlib.contextmanager
def patched(patches: list):
    """Each attribute ``(owner, name)`` of the ``(spot, wrap)`` pairs in
    `patches` set inside the block to its wraps of the original, applied in
    order, so a later wrap of one attribute calls the earlier."""
    saved = {spot: getattr(*spot) for spot, _ in patches}
    try:
        for spot, wrap in patches:
            setattr(*spot, wrap(getattr(*spot)))
        yield
    finally:
        for spot, original in saved.items():
            setattr(*spot, original)


@contextlib.contextmanager
def counting(counts: dict, calls: dict):
    """Count memo work and the calls of each ``calls[key] = (owner, name)``
    into `counts`, whose missing keys start at 0."""
    patches = [((sets.PrSet, "_ensure"), partial(_ensure, counts)),
               ((sets.PrSet, "bit"), partial(_pattern_reads, counts))]
    patches += [((cls, "__call__"), partial(_filled, counts, key)) for key, cls in FILLS.items()]
    patches += [(spot, partial(_counted, counts, key)) for key, spot in calls.items()]
    for key in ("ensure_entries", "memo_bits", *FILLS, "pattern_bit_reads", "term_visits",
                *calls):
        counts.setdefault(key, 0)
    with patched(patches):
        yield counts


@contextlib.contextmanager
def counting_parses(counts: dict):
    """Count trace parses and pattern builds into `counts` on empty caches."""
    patches = []
    for key, (cached, plain) in KEPT.items():
        counts.setdefault(key, 0)
        if hasattr(*cached):
            patches.append((cached, partial(_cold, counts, key)))
        else:
            patches.append((plain, partial(_counted, counts, key)))
    with patched(patches):
        yield counts


def with_per_bit(counts: dict) -> dict:
    """`counts` and the memo bits that no fill made."""
    return {**counts, "per_bit_bits": counts["memo_bits"] - sum(counts[k] for k in FILLS)}


def store(name: str, label: str, result: dict) -> None:
    """Merge `result` and this machine's description under `label` into
    ``BENCH_<name>.json``, then print it."""
    result = {**result, "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                                   f"Python {platform.python_version()}"}
    path = os.path.join(ROOT, f"BENCH_{name}.json")
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {"harness": f"tools/bench_{name}.py", "runs": {}}
    stored["runs"][label] = result
    with open(path, "w") as fh:
        json.dump(stored, fh, indent=2)
        fh.write("\n")
    json.dump({label: result}, sys.stdout, indent=2)
    sys.stdout.write("\n")
