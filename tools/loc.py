"""Count the code lines of Python sources: no blank, comment or docstring lines.

Usage, from the root of a checkout:

    python3 tools/loc.py src/riscf

Each argument is a ``.py`` file or a directory searched for them. A line
counts when a token other than a comment or a line break starts on it or
spans it (``tokenize``), and no docstring covers it: the string that opens
a module, class or function body (``ast``). Printed, one ``path count``
pair per line: each file, then ``total`` over them all.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tokenize
from pathlib import Path

#: Tokens that are not code: layout, comments and the stream's ends.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of ``tree`` cover."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines of one module's ``source``."""
    lines = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for token in tokenize.generate_tokens(readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths: list[str]) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    total = 0
    for path in python_files(parser.parse_args(argv).paths):
        count = count_code_lines(path.read_text())
        total += count
        print(f"{path} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
