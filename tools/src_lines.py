"""Line counts of the package source: raw, code, docstring, comment and blank.

Usage: ``python tools/src_lines.py [DIR]`` (default: ``src/jndmap`` next to
this script's directory).  Each line of each ``.py`` file under DIR counts
once, in the first of these that holds it:

* docstring -- a line of a module, class or function docstring, blank lines
  inside it included (found by the AST);
* blank -- empty or whitespace only;
* comment -- a ``#`` comment on a line of its own;
* code -- any other line.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("raw", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The counts of :data:`KINDS` for one file's ``source``."""
    docstrings = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in docstrings else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts["raw"] += 1
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "jndmap"
    total = dict.fromkeys(KINDS, 0)
    for path in sorted(root.rglob("*.py")):
        for kind, n in count(path.read_text(encoding="utf-8")).items():
            total[kind] += n
    print("  ".join(f"{kind} {total[kind]}" for kind in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
