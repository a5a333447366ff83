"""The demos and the README's library example import only names the package
defines, and run to the end."""

from __future__ import annotations

import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "jndmap" or node.module.startswith("jndmap.")
        ):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "jndmap" or alias.name.startswith("jndmap."):
                    importlib.import_module(alias.name)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_library_example_runs(capsys):
    """The one ``python`` block of README.md, under "Library use", run as written."""
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                            re.DOTALL)
    exec(compile(example, "README.md", "exec"), {"__name__": "__main__"})
    prediction, pairs, one_range = capsys.readouterr().out.splitlines()
    assert len(prediction.split()) == 3
    assert "RatedPair(content_id=" in pairs
    # fit_mapping on one range's points gives what fit_all gave for it
    assert one_range.split()[0] == "True"
