"""The package imports no scipy at run time: its fits and its t-test
p-values are its own code, so scipy is a test dependency only."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import jndmap

PACKAGE = Path(jndmap.__file__).resolve().parent


def _scipy_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """Each ``import scipy...``, ``from scipy... import`` and
    ``import_module("scipy...")`` / ``__import__("scipy...")`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name.partition(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").partition(".")[0] == "scipy":
                found.append((node.lineno, f"from {node.module} import ..."))
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                node.func, "id", None)
            module = node.args[0].value
            if (name in ("import_module", "__import__") and isinstance(module, str)
                    and module.partition(".")[0] == "scipy"):
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_the_lint_sees_each_kind_of_scipy_import():
    source = "\n".join([
        "import scipy",
        "import numpy, scipy.special as sp",
        "from scipy import special",
        "from scipy.optimize import least_squares",
        "importlib.import_module('scipy.special')",
        "__import__('scipy')",
        "from . import scipyish",
        "import scipyish",
        "import_module('numpy')",
    ])
    assert sorted(line for line, _ in _scipy_imports(ast.parse(source))) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_scipy(module):
    path = PACKAGE / module
    assert _scipy_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
