"""The package makes no BLAS call, so its artifacts do not depend on the
BLAS kernel that numpy's OpenBLAS picks for the CPU."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jndmap
from jndmap.tableio import write_json

PACKAGE = Path(jndmap.__file__).resolve().parent

#: numpy names whose work goes to BLAS (``linalg`` stands for the whole
#: submodule); as an attribute of anything, so ``a.dot(b)`` counts too.
BLAS_NAMES = {"linalg", "dot", "matmul", "einsum", "inner", "vdot", "tensordot"}

RUN_ARTIFACTS = (
    "screening.json", "pairs.csv", "ranges.json", "codist.csv", "mf_params.json",
    "curve_samples.csv", "predictions.csv", "metrics.json", "run_manifest.json",
)


def _blas_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [(node.lineno, f"from {node.module} import {alias.name}")
                      for alias in node.names
                      if alias.name in BLAS_NAMES or node.module.startswith("numpy.linalg")]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name.startswith("numpy.linalg")]
    return found


def test_the_lint_sees_each_kind_of_blas_use():
    source = "\n".join([
        "import numpy.linalg",
        "from numpy import dot",
        "from numpy.linalg import solve",
        "a = b @ c",
        "a @= c",
        "np.linalg.norm(a)",
        "np.einsum('i,i', a, b)",
        "a.dot(b)",
        "np.sum(a * b)",
    ])
    assert sorted(line for line, _ in _blas_uses(ast.parse(source))) == [1, 2, 3, 4, 5, 6, 7, 8]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_makes_a_blas_call(module):
    path = PACKAGE / module
    assert _blas_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_artifacts_do_not_depend_on_the_openblas_kernel(tmp_path):
    """``run`` in two child processes, one with OpenBLAS forced to its Haswell
    kernel, gives the same nine artifacts byte for byte.  On a CPU whose own
    kernel is Haswell-class (AVX2 without AVX-512) both children run the same
    kernel, so there the test cannot tell a BLAS-dependent package apart."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    cli = [sys.executable, "-m", "jndmap.cli"]
    write_json(tmp_path / "spec.json", {"n_contents": 3})
    subprocess.run(cli + ["simulate", "--spec", str(tmp_path / "spec.json"),
                          "--out-dir", str(tmp_path / "sim")],
                   env=env, check=True, capture_output=True, timeout=300)
    sim = tmp_path / "sim"
    outputs = {}
    for name, extra in (("default", {}), ("haswell", {"OPENBLAS_CORETYPE": "Haswell"})):
        out = tmp_path / name
        subprocess.run(cli + ["run", str(sim / "vmaf_scores.csv"), str(sim / "dcr_ratings.csv"),
                              "--truth", str(sim / "jnd_truth.csv"), "--out-dir", str(out)],
                       env={**env, **extra}, check=True, capture_output=True, timeout=300)
        outputs[name] = {a: (out / a).read_bytes() for a in RUN_ARTIFACTS}
    differing = [a for a in RUN_ARTIFACTS if outputs["default"][a] != outputs["haswell"][a]]
    assert differing == []


_MODULES_PROBE = """\
import atexit, json, sys
atexit.register(lambda: print(json.dumps(sorted(
    m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))), file=sys.stderr))
import runpy
sys.argv[0] = "jndmap"
runpy.run_module("jndmap.cli", run_name="__main__", alter_sys=True)
"""


def test_a_run_child_loads_no_numpy_ma(tmp_path):
    """``run --truth`` in a child process loads no ``numpy.ma``, whose import
    takes about 10 ms of a fresh process.  In numpy 2.4 two entry points
    import it on their first call: ``np.unique`` without options and
    ``np.median``.  The package takes sorted distinct values from
    ``tableio.distinct`` and forms the fits' start median itself."""
    cli = [sys.executable, "-m", "jndmap.cli"]
    subprocess.run(cli + ["simulate", "--out-dir", str(tmp_path / "sim")],
                   check=True, capture_output=True, timeout=300)
    sim = tmp_path / "sim"
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE, "run", str(sim / "vmaf_scores.csv"),
         str(sim / "dcr_ratings.csv"), "--truth", str(sim / "jnd_truth.csv"),
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.strip().splitlines()[-1]) == []
