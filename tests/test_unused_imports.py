"""Every name that a module of the package imports is used in that module, so
an import left behind by a deletion does not outlive it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import jndmap

PACKAGE = Path(jndmap.__file__).resolve().parent

#: (module, name) imports kept unused on purpose.  ``evaluate_grid`` does not
#: call ``predict_jnd``, and the inversion does not call ``evaluate_mf``, but
#: the benchmark's tracer (``perfbench/tracing.py``) wraps
#: ``evaluate.predict_jnd`` and ``predict.evaluate_mf`` by name, so the names
#: must stay importable.
KEPT = {("evaluate.py", "predict_jnd"), ("predict.py", "evaluate_mf")}


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import that no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_lint_sees_each_kind_of_unused_import():
    source = "\n".join([
        "from __future__ import annotations",
        "import os.path",
        "import numpy as np",
        "from math import inf, pi",
        "from . import tableio",
        "from .mapping import FAMILIES as NAMES",
        "import json",
        "from pathlib import Path",
        "def f(x: Path) -> float:",  # an annotation is a use
        "    return pi * json.loads(x)",
    ])
    assert _unused_imports(ast.parse(source)) == [
        (2, "os"), (3, "np"), (4, "inf"), (5, "tableio"), (6, "NAMES")
    ]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    unused = [(line, name) for line, name in _unused_imports(tree) if (module, name) not in KEPT]
    assert unused == []


def test_each_kept_import_is_still_unused():
    # an exception that the module has come to use is no longer needed
    for module, name in KEPT:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        assert name in [unused for _, unused in _unused_imports(tree)]
