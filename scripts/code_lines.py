"""Count the lines of Python code under some paths.

A line counts when it holds a code token: blank lines, comment lines and the
lines of docstrings are left out. Comments are found through ``tokenize``,
docstrings (the string opening a module, class or function body) through
``ast``. Directories are searched for ``*.py`` files. Given a directory or
several paths, it prints each file's count and path, then the total; given
one file, only its count.

    python scripts/code_lines.py src/probust
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by the source's docstrings."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token outside a docstring."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for path in map(Path, paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    args = parser.parse_args(argv)
    files = python_files(args.paths)
    counts = [code_lines(path.read_text()) for path in files]
    if len(args.paths) > 1 or Path(args.paths[0]).is_dir():
        for path, count in zip(files, counts):
            print(f"{count:6d} {path}")
    print(sum(counts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
