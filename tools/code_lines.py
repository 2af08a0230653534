"""Count the lines of Python source files: all lines, as ``wc -l`` counts
them, and code lines.

A code line holds at least one token that is not a comment and not part of
a module, class or function docstring; blank lines and lines of comments
or docstrings alone are not code lines.  A directory stands for every
``*.py`` file below it.

Run from the repository root, for example::

    python tools/code_lines.py src/branekit
    python tools/code_lines.py src/branekit/period_domain.py src/branekit/cli.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that make no line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree):
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count(source: str):
    """(all lines, code lines) of Python ``source``."""
    spans = _docstring_spans(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def _files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: code_lines.py PATH...", file=sys.stderr)
        return 2
    print(f"{'wc -l':>7} {'code':>6}  path")
    total_all = total_code = 0
    for path in _files(paths):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_all, total_code = total_all + lines, total_code + code
        print(f"{lines:>7} {code:>6}  {path}")
    print(f"{total_all:>7} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
