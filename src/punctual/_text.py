"""The text layout that witness files and traces share: UTF-8 files of
"key<TAB>value" header lines, ``---`` and rows of tab-separated cells.
The codecs (``reductions``, ``constructions``) keep their fields and their
per-line readers, which name the first bad line: trace records are read
one line at a time, a witness body only when ``columns`` declines it.
"""

from __future__ import annotations

import functools
import os

from .errors import ParseError

# The decimal strings of 0 .. _DECIMAL_CAP - 1 as a list, by integer and
# the reverse map, built on first use (about 0.6 MB).
_DECIMAL_CAP = 4096


@functools.cache
def _decimal_strs() -> list:
    return list(map(str, range(_DECIMAL_CAP)))


@functools.cache
def _decimal_table() -> tuple:
    return dict(enumerate(_decimal_strs())), dict(zip(_decimal_strs(), range(_DECIMAL_CAP)))


def decimals(ints) -> list:
    """str of each integer of ints (a sequence): a range from 0 up by 1 under
    the cap is one slice, other integers are looked up when all lie under it."""
    if isinstance(ints, range) and ints.step == 1 and 0 <= ints.start <= ints.stop <= _DECIMAL_CAP:
        return _decimal_strs()[ints.start:ints.stop]
    try:
        return list(map(_decimal_table()[0].__getitem__, ints))
    except KeyError:
        return list(map(str, ints))


def integers(strs) -> list | None:
    """The integers whose decimals are strs, when all lie under the cap; else None."""
    try:
        return list(map(_decimal_table()[1].__getitem__, strs))
    except KeyError:
        return None


def rows(columns) -> str:
    """One line per row of equally long columns of strings, its cells
    joined by tabs: one join over every cell and separator."""
    width = len(columns)
    cells = (["", "\t"] * (width - 1) + ["", "\n"]) * len(columns[0])
    for k, column in enumerate(columns):
        cells[2 * k::2 * width] = column
    return "".join(cells)


def columns(text: str, width: int) -> list | None:
    """The width columns of text, split once, when rows writes them back as
    text byte for byte; else None."""
    cells = text.replace("\n", "\t").split("\t")
    if cells.pop() or len(cells) % width:
        return None
    out = [cells[k::width] for k in range(width)]
    return out if rows(out) == text else None


def pairs(lines) -> list:
    """The (key, value) of each line "key<TAB>value"; the value runs to the
    line's end, and a line without a tab is a key with an empty value."""
    return [line.partition("\t")[::2] for line in lines]


def split_lines(text: str) -> list:
    """The lines of text, split only at the newlines read_text folds, not at
    str.splitlines's "\\v", "\\f", "\\u2028", ...: a line number names a file line."""
    *lines, last = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines + [last] if last else lines


def pair_lines(items) -> str:
    """The line "key<TAB>value" of each (key, value) of items."""
    return "".join(f"{k}\t{v}\n" for k, v in items)


def digest(lines) -> str:
    """The first 16 hex digits of the SHA-256 of lines joined by newlines.
    ``hashlib`` is imported here, so a command that hashes nothing does not
    pay for loading OpenSSL."""
    import hashlib
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


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


def write_text(path, text: str) -> None:
    """Replace the file at path by text, newlines written as given.  An
    existing regular file is rewritten in place and cut to the new length,
    which costs a fraction of truncating it on open; a new path, and one
    that cannot be cut (``/dev/stdout``, a FIFO), is opened for writing."""
    data = text.encode("utf-8")
    in_place = os.path.isfile(path)
    with open(path, "r+b" if in_place else "wb") as fh:
        fh.write(data)
        if in_place:
            fh.truncate()
