"""Shared exception taxonomy, and the text reader that maps bad bytes into it.

Errors fall into three CLI-visible families: misuse (exit 1), stage budget
exhaustion (exit 2), and I/O (exit 3, plain OSError).
"""

from __future__ import annotations


class PunctualError(Exception):
    """Base class for all library errors."""


class MisuseError(PunctualError):
    """Bad input, violated precondition, or malformed data (CLI exit 1)."""


class ParseError(MisuseError):
    """Malformed term or descriptor text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ArityError(MisuseError):
    """Arity mismatch in a term, detected at parse or build time."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PunctualityViolation(MisuseError):
    """A term-backed set descriptor exceeded its declared step bound."""


class CeilingExceeded(MisuseError):
    """A zero search ran past its caller-supplied ceiling."""


class NotEquivalence(MisuseError):
    """A sampled reflexivity/symmetry/transitivity check failed."""


class ShapeMismatch(MisuseError):
    """String lattice operands differ in length or zero count."""


class BudgetExceeded(MisuseError):
    """A clocked program ran out of its declared step budget."""


class NotAReduction(MisuseError):
    """A claimed reduction failed verification on its horizon."""


class WitnessBoundViolated(MisuseError):
    """A mu-search ceiling supplied by a growth witness was too small."""


class NotCertified(MisuseError):
    """An operation requiring a reducibility certificate was called without one."""


class CaseUndetermined(MisuseError):
    """No case of a construction trichotomy had enough witnesses at the horizon."""


class PreconditionFailed(MisuseError):
    """A construction precondition failed and could not be auto-normalized."""


class StageBudgetExhausted(PunctualError):
    """A construction cycle hit its stage budget (CLI exit 2).

    Legitimate outcome at desk scale: an opponent may genuinely be a
    reduction, or a transition phase may starve.  Carries enough context
    to name the open cycle and phase, plus the partial trace if available.
    """

    def __init__(self, message: str, *, cycle: str, phase: str, stage: int, trace=None):
        self.cycle = cycle
        self.phase = phase
        self.stage = stage
        self.trace = trace
        super().__init__(f"{message} [cycle={cycle} phase={phase} stage={stage}]")


def decode_text(data: bytes, path) -> str:
    """The bytes of the file at path as UTF-8 text; other bytes are
    malformed input (ParseError naming the file), not a crash."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_text(path) -> str:
    """A UTF-8 text file, with newlines read as in text mode."""
    with open(path, "rb") as fh:
        text = decode_text(fh.read(), path)
    return text.replace("\r\n", "\n").replace("\r", "\n")
