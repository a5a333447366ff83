"""The benchmark's in-process traced run (``perfbench/tracing.py``) on a tiny study."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from jndmap import mapping
from jndmap.corpus import save_corpus
from jndmap.simulate import simulate_corpus

from conftest import SMALL_SPEC

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_every_least_squares_evaluation(tmp_path):
    study = save_corpus(simulate_corpus(SMALL_SPEC)[0], tmp_path / "study")
    out = tmp_path / "out"
    args = ["run", str(study["vmaf_scores"]), str(study["dcr_ratings"]),
            "--truth", str(study["jnd_truth"]), "--out-dir", str(out), "--k", "2"]
    code, _, metrics = _tracing().traced_run(args, out, tmp_path / "traced.log")
    assert code == 0
    models = json.loads((out / "mf_params.json").read_text(encoding="utf-8"))
    least_squares = {
        family for family, spec in mapping.FAMILY_TABLE.items()
        if isinstance(spec, mapping._LeastSquaresFamily)
    }
    iterations = [
        entry["fit_report"]["iterations"]
        for per_range in models.values()
        for family, entry in per_range.items()
        if family in least_squares
    ]
    assert len(iterations) == 2 * len(least_squares)
    # the wrapped solver sees every evaluation of every lane of every fit
    assert metrics["mapping.lsq_nfev"] == sum(iterations) > 0
    # one batched solve per least-squares family
    assert metrics["mapping.lsq_calls"] == len(least_squares)
