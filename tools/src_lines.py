"""Line counts of the package source: raw, code, docstring, comment and blank,
and the time to compile each module.

Usage: ``python tools/src_lines.py [DIR]`` (default: ``src/jndmap`` next to
this script's directory).  It prints one row per ``.py`` file under DIR, by
path, and then the total of all of them as the last line, in the same
``raw N  code N  docstring N  comment N  blank N  compile_ms X`` format.
``compile_ms`` is the median of :data:`COMPILE_REPEATS` timed ``compile()``
calls of the file's source, in milliseconds: a process that writes no
bytecode (``PYTHONDONTWRITEBYTECODE=1``) pays it at every import.  Each line
of a file counts once, in the first of these that holds it:

* docstring -- a line of a module, class or function docstring, blank lines
  inside it included (found by the AST);
* blank -- empty or whitespace only;
* comment -- a ``#`` comment on a line of its own;
* code -- any other line.
"""

from __future__ import annotations

import ast
import statistics
import sys
import time
from pathlib import Path

KINDS = ("raw", "code", "docstring", "comment", "blank")
#: Timed ``compile()`` calls per file; their median is reported.
COMPILE_REPEATS = 7


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


def compile_ms(source: str, name: str) -> float:
    """The median time of :data:`COMPILE_REPEATS` ``compile()`` calls of
    ``source``, in milliseconds."""
    times = []
    for _ in range(COMPILE_REPEATS):
        start = time.perf_counter()
        compile(source, name, "exec", dont_inherit=True)
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def row(counts: dict[str, int], ms: float) -> str:
    """``counts`` and ``ms`` as ``raw N  code N  docstring N  comment N  blank N  compile_ms X``."""
    return "  ".join(f"{kind} {counts[kind]}" for kind in KINDS) + f"  compile_ms {ms:.2f}"


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "jndmap"
    total = dict.fromkeys(KINDS, 0)
    total_ms = 0.0
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        counts, ms = count(source), compile_ms(source, str(path))
        print(f"{path.relative_to(root)}  {row(counts, ms)}")
        for kind, n in counts.items():
            total[kind] += n
        total_ms += ms
    print(row(total, total_ms))


if __name__ == "__main__":
    main(sys.argv[1:])
