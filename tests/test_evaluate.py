"""Grid evaluation against ground-truth JND annotations."""

from __future__ import annotations

import json
import math

import pytest

from jndmap.corpus import Corpus, JndTruth, Recipe, Stimulus
from jndmap.evaluate import (
    CellMetrics,
    EvalGrid,
    EvalGridSpec,
    evaluate_grid,
    format_grid_table,
    ground_truth_delta,
    metrics_json_dict,
)
from jndmap.tableio import write_json

from conftest import DSTAR, LADDER_VMAFS, make_stimuli


def _eval_corpus(truths) -> Corpus:
    return Corpus(make_stimuli("c1", LADDER_VMAFS), (), tuple(truths))


def test_mae_rmse_hand_case(single_range_models):
    """Two truths engineered to miss by exactly 1 and 2 VMAF units."""
    decomp, models = single_range_models
    stimuli = make_stimuli("c1", LADDER_VMAFS)
    # One-step prediction from any anchor lands DSTAR below it; add renditions
    # whose true JND sits 1 above and 2 below those landing spots.
    extra = (
        Stimulus("c1", Recipe("t1", "1080p", 7), 90.0 - (DSTAR - 1.0)),
        Stimulus("c1", Recipe("t2", "1080p", 8), 85.0 - (DSTAR + 2.0)),
    )
    truths = (
        JndTruth("c1", "r1", "dec", "t1", 1),
        JndTruth("c1", "r2", "dec", "t2", 1),
    )
    corpus = Corpus(stimuli + extra, (), truths)
    spec = EvalGridSpec(thresholds=(0.75,), families=("logistic2",))
    grid = evaluate_grid(corpus, models, decomp, spec)
    cell = grid.cell("dec", "logistic2", 0.75)
    assert cell.n == 2
    assert cell.mae == pytest.approx(1.5, abs=1e-6)
    assert cell.rmse == pytest.approx(math.sqrt(2.5), abs=1e-6)
    assert cell.skipped == 0


def test_chained_second_order(single_range_models):
    """Order-2 truth: predict, snap to the nearest rendition, predict again.

    The landing spot after one step from 90 is 81.80, which snaps to the 82.0
    rendition, so the chained total is 8 + DSTAR and the truth delta is 8.
    """
    decomp, models = single_range_models
    corpus = _eval_corpus([JndTruth("c1", "r1", "dec", "r3", 2)])
    spec = EvalGridSpec(thresholds=(0.75,), families=("logistic2",))
    grid = evaluate_grid(corpus, models, decomp, spec)
    cell = grid.cell("dec", "logistic2", 0.75)
    assert cell.n == 1
    assert cell.mae == pytest.approx(DSTAR, abs=1e-6)
    assert cell.rmse == cell.mae


def test_chaining_disabled(single_range_models):
    decomp, models = single_range_models
    corpus = _eval_corpus([JndTruth("c1", "r1", "dec", "r3", 2)])
    spec = EvalGridSpec(
        thresholds=(0.75,), families=("logistic2",), chain_orders=False
    )
    cell = evaluate_grid(corpus, models, decomp, spec).cell("dec", "logistic2", 0.75)
    assert cell.mae == pytest.approx(DSTAR - 8.0, abs=1e-6)


def test_order_filter(single_range_models):
    decomp, models = single_range_models
    corpus = _eval_corpus(
        [
            JndTruth("c1", "r1", "dec", "r3", 2),
            JndTruth("c1", "r1", "dec", "r2", 1),
        ]
    )
    spec = EvalGridSpec(thresholds=(0.75,), families=("logistic2",), orders=(1,))
    grid = evaluate_grid(corpus, models, decomp, spec)
    assert grid.cell("dec", "logistic2", 0.75).n == 1


def test_missing_family_counts_as_skipped(single_range_models):
    decomp, models = single_range_models
    corpus = _eval_corpus([JndTruth("c1", "r1", "dec", "r2", 1)])
    spec = EvalGridSpec(thresholds=(0.75,), families=("logistic2", "glm"))
    grid = evaluate_grid(corpus, models, decomp, spec)
    missing = grid.cell("dec", "glm", 0.75)
    assert missing.skipped == 1
    assert missing.n == 0
    assert missing.mae is None and missing.rmse is None
    assert grid.cell("dec", "logistic2", 0.75).n == 1


def test_clamped_predictions_counted(single_range_models):
    decomp, models = single_range_models
    stimuli = make_stimuli("c1", LADDER_VMAFS) + (
        Stimulus("c1", Recipe("hi", "1080p", 9), 98.0),
    )
    # Anchor at 95 moving up: the raw target 95 + DSTAR clips to 100 and the
    # prediction flags itself as clamped.
    corpus = Corpus(stimuli, (), (JndTruth("c1", "r0", "inc", "hi", 1),))
    spec = EvalGridSpec(thresholds=(0.75,), families=("logistic2",))
    grid = evaluate_grid(corpus, models, decomp, spec)
    assert grid.cell("inc", "logistic2", 0.75).clamped == 1


def test_no_truths_raises(single_range_models):
    decomp, models = single_range_models
    corpus = _eval_corpus([])
    with pytest.raises(ValueError):
        evaluate_grid(corpus, models, decomp)


def test_ground_truth_delta_and_degenerate_warning(caplog):
    import logging

    corpus = _eval_corpus([JndTruth("c1", "r1", "dec", "r3", 1)])
    assert ground_truth_delta(corpus, corpus.truths[0]) == 8.0
    degenerate = JndTruth("c1", "r1", "dec", "r1", 1)
    with caplog.at_level(logging.WARNING):
        assert ground_truth_delta(corpus, degenerate) == 0.0
    assert any("degenerate" in r.message for r in caplog.records)


def test_best_cell(single_range_models):
    decomp, models = single_range_models
    corpus = _eval_corpus([JndTruth("c1", "r1", "dec", "r2", 1)])
    spec = EvalGridSpec(thresholds=(0.6, 0.75, 0.9), families=("logistic2",))
    grid = evaluate_grid(corpus, models, decomp, spec)
    key, cell = grid.best_cell()
    assert key in grid.cells
    assert all(
        cell.mae <= other.mae
        for other in grid.cells.values()
        if other.mae is not None
    )


def test_metrics_json_structure(tmp_path, single_range_models):
    decomp, models = single_range_models
    corpus = _eval_corpus([JndTruth("c1", "r1", "dec", "r2", 1)])
    spec = EvalGridSpec(thresholds=(0.75, 0.9), families=("logistic2",))
    grid = evaluate_grid(corpus, models, decomp, spec)
    data = metrics_json_dict(grid)
    cell = data["dec"]["logistic2"]["0.75"]
    assert set(cell) == {"mae", "rmse", "n", "clamped", "skipped"}
    path = tmp_path / "metrics.json"
    write_json(path, data)
    assert json.loads(path.read_text()) == data


def test_grid_table_layout(single_range_models):
    decomp, models = single_range_models
    corpus = _eval_corpus([JndTruth("c1", "r1", "dec", "r2", 1)])
    spec = EvalGridSpec(thresholds=(0.75, 0.9), families=("logistic2", "glm"))
    grid = evaluate_grid(corpus, models, decomp, spec)
    table = format_grid_table(grid, "dec")
    assert "direction: dec" in table
    assert "MAE" in table and "RMSE" in table
    header_line = next(l for l in table.splitlines() if "2-para" in l)
    assert "GLM" in header_line
    # Thresholds label the rows; the unfitted family shows a dash.
    assert any(line.strip().startswith("0.75") for line in table.splitlines())
    assert "-" in table


def test_default_grid_spec():
    spec = EvalGridSpec()
    assert spec.thresholds == (0.75, 0.8, 0.85, 0.9, 0.95)
    assert len(spec.families) == 4
    assert spec.chain_orders


def test_cell_metrics_fields():
    cell = CellMetrics(mae=1.0, rmse=2.0, n=3, clamped=1, skipped=0)
    assert (cell.mae, cell.rmse, cell.n) == (1.0, 2.0, 3)
