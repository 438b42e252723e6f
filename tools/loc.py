"""Count code lines: non-blank, non-comment, non-docstring, by ``ast``.

A line counts when a token other than a comment starts or runs on it and
it lies outside every module, class and function docstring.  Prints each
``.py`` file's count under the paths given, then their total::

    python tools/loc.py src/crosssec perfbench
"""

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    # the line numbers that docstrings span
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths):
    total = 0
    for path in map(pathlib.Path, paths):
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            count = code_lines(file.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {file}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src/crosssec"])
