"""Code lines per module: the count that CHANGES.md and ROADMAP.md quote.

Usage:

    python3 tools/code_lines.py [DIR]

For every ``*.py`` file directly in DIR (default ``src/clipverify`` of
this checkout) this prints the file's name and its code lines, then the
total, as in "total 1903".  A code line is a line that is not blank, is
not a comment and is not part of a docstring: the string that opens a
module, a class or a function.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that are not blank, a comment or a docstring."""
    docs = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src" / "clipverify")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.dir.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
