"""Line counts of the ``punctual`` package, per module and in total.

    python tools/src_lines.py [SRC_DIR]

Each line of every ``*.py`` file under ``SRC_DIR`` (default
``src/punctual`` of this checkout) falls in one of four kinds:

  * blank: only blanks;
  * docstring: inside a module, class or function docstring;
  * comment: a comment and nothing else;
  * code: every other line, a line with code and a trailing comment
    included.

Docstrings are found from the syntax tree (the string that opens a body),
comments from the tokenizer, so a ``#`` inside a string is not a comment.
The table is printed with one row per module and a total row; a
directory that holds no ``*.py`` file is an error (exit 1).
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers covered by docstrings in a module's tree."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """Lines of one module's source by kind."""
    docs = docstring_lines(ast.parse(source))
    code = set()        # lines holding a token other than a comment
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for lineno, line in enumerate(source.splitlines(), 1):
        if lineno in docs:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif lineno in code:
            kind = "code"
        else:
            kind = "comment"
        counts[kind] += 1
    return counts


def main(argv: list) -> int:
    src = argv[1] if len(argv) > 1 else os.path.join(ROOT, "src", "punctual")
    rows = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                rows[name] = count(fh.read())
    if not rows:
        print(f"error: no *.py file in {src}", file=sys.stderr)
        return 1
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in KINDS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}  {'lines':>6}" + "".join(f"  {k:>9}" for k in KINDS))
    for name, r in rows.items():
        print(f"{name:<{width}}  {sum(r.values()):>6}" + "".join(f"  {r[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
