"""Which generator grew the descriptor memos, for the ``bench_*.py`` harnesses.

A memo grows through a pattern fill (``sets._Pattern``), through an operand
fill (``sets._MemoFill``, a derived set's fill from its operands' memos) or
through the per-bit loop.  ``count_fills(counts)`` adds the bits each fill
makes to ``counts["pattern_fill_bits"]`` and ``counts["operand_fill_bits"]``;
``with_per_bit(counts)`` adds ``per_bit_bits``, the rest of
``counts["memo_bits"]``.
"""

from __future__ import annotations

from punctual import sets

FILLS = {"pattern_fill_bits": sets._Pattern, "operand_fill_bits": sets._MemoFill}


def count_fills(counts: dict):
    """Count the bits of every fill call into `counts`; return a function
    that takes the counting out again."""
    saved = {key: cls.__call__ for key, cls in FILLS.items()}

    def counting(key, call):
        def fill(self, m, n):
            out = call(self, m, n)
            counts[key] += len(out[0])
            return out
        return fill

    for key, cls in FILLS.items():
        cls.__call__ = counting(key, saved[key])

    def restore():
        for key, cls in FILLS.items():
            cls.__call__ = saved[key]
    return restore


def with_per_bit(counts: dict) -> dict:
    """`counts` and the memo bits that no fill made."""
    return {**counts, "per_bit_bits": counts["memo_bits"] - sum(counts[k] for k in FILLS)}
