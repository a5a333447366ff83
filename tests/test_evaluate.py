"""Grid evaluation against ground-truth JND annotations."""

from __future__ import annotations

import dataclasses
import json
import logging
import math

import pytest

from jndmap import predict as predict_mod
from jndmap.corpus import Corpus, JndTruth, Stimulus
from jndmap.errors import FitError
from jndmap.evaluate import (
    CellMetrics,
    EvalGrid,
    EvalGridSpec,
    evaluate_grid,
    format_grid_table,
    ground_truth_delta,
    metrics_json_dict,
)
from jndmap.mapping import fit_all
from jndmap.ranges import assign_pairs, decompose_balanced, decompose_explicit
from jndmap.significance import classify_pairs
from jndmap.simulate import simulate_corpus
from jndmap.tableio import write_json

from conftest import (DSTAR, LADDER_VMAFS, SMALL_SPEC, make_stimuli, range_of,
                      scalar_prediction)


def _eval_corpus(truths) -> Corpus:
    return Corpus(make_stimuli("c1", LADDER_VMAFS), (), tuple(truths))


def test_mae_rmse_hand_case(single_range_models):
    """Two truths engineered to miss by exactly 1 and 2 VMAF units."""
    decomp, models = single_range_models
    stimuli = make_stimuli("c1", LADDER_VMAFS)
    # One-step prediction from any anchor lands DSTAR below it; add renditions
    # whose true JND sits 1 above and 2 below those landing spots.
    extra = (
        Stimulus("c1", "t1", "1080p", 7, 90.0 - (DSTAR - 1.0)),
        Stimulus("c1", "t2", "1080p", 8, 85.0 - (DSTAR + 2.0)),
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
        Stimulus("c1", "hi", "1080p", 9, 98.0),
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


def test_one_warning_per_degenerate_truth(single_range_models, caplog):
    decomp, models = single_range_models
    corpus = _eval_corpus(
        [
            JndTruth("c1", "r1", "dec", "r1", 1),
            JndTruth("c1", "r2", "inc", "r2", 1),
            JndTruth("c1", "r1", "dec", "r3", 1),
        ]
    )
    spec = EvalGridSpec(thresholds=(0.75, 0.9), families=("logistic2", "glm"))
    with caplog.at_level(logging.WARNING, logger="jndmap.evaluate"):
        evaluate_grid(corpus, models, decomp, spec)
    warned = [r.getMessage() for r in caplog.records if "degenerate" in r.getMessage()]
    assert sorted(warned) == [
        "degenerate truth for c1: anchor and JND rendition coincide (r1)",
        "degenerate truth for c1: anchor and JND rendition coincide (r2)",
    ]


@pytest.fixture(scope="module")
def small_study():
    """SMALL_SPEC through classify, a balanced k=2 decomposition and every fit.

    The simulated truths anchor ``dec`` at the top rung and ``inc`` at the
    bottom one.  Each content gains an order-2 truth, so chained steps are
    scored too, and a mid-ladder anchor per direction, so both ranges hold
    anchors of both directions.
    """
    corpus, _ = simulate_corpus(SMALL_SPEC)
    pairs = classify_pairs(corpus)
    decomp = assign_pairs(pairs, decompose_balanced(corpus, 2), corpus)
    _, models = fit_all(decomp, pairs)
    extra = []
    for content_id in corpus.contents():
        ids = [s.recipe_id for s in sorted(corpus.stimuli_for_content(content_id), key=lambda s: -s.vmaf)]
        extra += [
            JndTruth(content_id, ids[0], "dec", ids[2], 2),
            JndTruth(content_id, ids[3], "dec", ids[4], 1),
            JndTruth(content_id, ids[2], "inc", ids[1], 1),
        ]
    corpus = Corpus(corpus.stimuli, (), corpus.truths + tuple(extra))
    return corpus, models, decomp


def _scalar_grid(corpus, models, decomp, spec):
    """The grid as a loop of scalar predictions: the oracle of ``evaluate_grid``.

    Every truth walks its chained steps through ``conftest.scalar_prediction``,
    which bisects afresh each time, and after each step the working anchor snaps to
    the content's rendition nearest the target, a tie going to the smaller
    recipe id.  Returns the cells and the last step's prediction of every
    scored truth, cell by cell.
    """
    truths = sorted(
        (t for t in corpus.truths if spec.orders is None or t.order in spec.orders),
        key=lambda t: (t.content_id, t.direction, t.order, t.anchor_recipe_id),
    )
    cells, predictions = {}, []
    for direction in sorted({t.direction for t in truths}):
        for family in spec.families:
            for threshold in spec.thresholds:
                errors, clamped, skipped = [], 0, 0
                for truth in [t for t in truths if t.direction == direction]:
                    anchor = current = corpus.stimulus(truth.content_id, truth.anchor_recipe_id)
                    steps = []
                    try:
                        for _ in range(truth.order if spec.chain_orders else 1):
                            steps.append(scalar_prediction(
                                models, decomp, current, direction, threshold, family))
                            current = min(
                                corpus.stimuli_for_content(truth.content_id),
                                key=lambda s: (abs(s.vmaf - steps[-1].target_vmaf), s.recipe_id),
                            )
                    except (KeyError, FitError):
                        skipped += 1
                        continue
                    observed = ground_truth_delta(corpus, truth)
                    errors.append(abs(anchor.vmaf - steps[-1].target_vmaf) - observed)
                    clamped += any(step.clamped for step in steps)
                    predictions.append(steps[-1])
                mae = rmse = None
                if errors:
                    mae = sum(abs(e) for e in errors) / len(errors)
                    rmse = math.sqrt(sum(e * e for e in errors) / len(errors))
                cells[(direction, family, threshold)] = CellMetrics(
                    mae, rmse, len(errors), clamped, skipped
                )
    return cells, tuple(predictions)


def _assert_matches_scalar_grid(corpus, models, decomp, spec):
    grid = evaluate_grid(corpus, models, decomp, spec)
    cells, predictions = _scalar_grid(corpus, models, decomp, spec)
    assert grid.cells == cells
    assert list(zip(*grid.predictions.cells())) == list(map(dataclasses.astuple, predictions))
    return grid


def test_each_curve_is_inverted_once_per_threshold(small_study, monkeypatch):
    """Each family's curves are read in one array bisection per grid: two
    endpoint checks plus at most 100 halvings, each over one lane per
    (range, threshold)."""
    corpus, models, decomp = small_study
    spec = EvalGridSpec()
    assert sum(map(len, models.values())) == len(decomp.ranges) * len(spec.families)
    calls = []
    clipped_curve = predict_mod.clipped_curve
    monkeypatch.setattr(predict_mod, "clipped_curve", lambda family, params, domain, x: (
        calls.append((family, len(x))) or clipped_curve(family, params, domain, x)))
    grid = evaluate_grid(corpus, models, decomp, spec)
    assert len(grid.predictions) > len(decomp.ranges) * len(spec.families) * len(spec.thresholds)
    assert [family for family, _ in calls] == sorted(
        (family for family, _ in calls), key=spec.families.index)
    lanes = len(decomp.ranges) * len(spec.thresholds)
    for family in spec.families:
        sizes = [n for called, n in calls if called == family]
        assert 2 < len(sizes) <= 102 and set(sizes) == {lanes}


def test_inversion_table_matches_per_truth_inversion(small_study):
    """The grid equals the scalar oracle, chained and not, with every family
    fitted and with one family missing from one range."""
    corpus, models, decomp = small_study
    assert {t.order for t in corpus.truths} == {1, 2}
    missing = {rid: dict(per_range) for rid, per_range in models.items()}
    del missing[decomp.ranges[1].range_id]["glm"]
    for fitted in (models, missing):
        for chain in (True, False):
            grid = _assert_matches_scalar_grid(
                corpus, fitted, decomp, EvalGridSpec(chain_orders=chain)
            )
            assert all(cell.n for cell in grid.cells.values())
    skipped = [cell.skipped for key, cell in grid.cells.items() if key[1] == "glm"]
    assert all(skipped) and len(grid.predictions) > 0


def test_non_monotone_curve_skips_its_range_in_every_threshold_cell(small_study):
    corpus, models, decomp = small_study
    range_id = decomp.ranges[0].range_id
    mf = models[range_id]["logistic2"]
    forced = {rid: dict(per_range) for rid, per_range in models.items()}
    forced[range_id]["logistic2"] = dataclasses.replace(
        mf, fit_report=dataclasses.replace(mf.fit_report, monotone=False)
    )
    spec = EvalGridSpec(chain_orders=False)
    grid = evaluate_grid(corpus, forced, decomp, spec)
    for direction in ("dec", "inc"):
        anchors = [
            corpus.stimulus(t.content_id, t.anchor_recipe_id)
            for t in corpus.truths
            if t.direction == direction
        ]
        in_range = sum(decomp.ranges[range_of(decomp, a.vmaf)[0]].range_id == range_id
                       for a in anchors)
        assert 0 < in_range < len(anchors)
        for threshold in spec.thresholds:
            assert grid.cell(direction, "logistic2", threshold).skipped == in_range
            assert grid.cell(direction, "glm", threshold).skipped == 0
    for chain in (True, False):
        _assert_matches_scalar_grid(corpus, forced, decomp, EvalGridSpec(chain_orders=chain))


def test_chained_snap_breaks_ties_by_recipe_id(single_range_models):
    """A target equally far from two renditions snaps to the smaller recipe id.

    A flat curve never reaches the threshold, so each step is the domain end,
    20: from 95 the first step lands on 75, halfway between 80 and 70.  The
    recipe ids sort against the VMAF order in one content and with it in the
    other.
    """
    decomp, models = single_range_models
    flat = dataclasses.replace(models["(0,100]"]["logistic2"], params=(0.0, 6.0))
    stimuli = (
        make_stimuli("c1", (95.0, 80.0, 70.0, 60.0, 50.0))
        + make_stimuli("c2", (95.0, 70.0, 80.0, 60.0, 50.0))
    )
    truths = tuple(JndTruth(c, "r0", "dec", "r4", 2) for c in ("c1", "c2"))
    corpus = Corpus(stimuli, (), truths)
    spec = EvalGridSpec(thresholds=(0.75,), families=("logistic2",))
    grid = _assert_matches_scalar_grid(corpus, {"(0,100]": {"logistic2": flat}}, decomp, spec)
    # the second step starts from r1 in both contents: at 80 in c1, at 70 in c2
    assert grid.predictions.ids[1].tolist() == ["r1", "r1"]
    assert grid.predictions.numbers[2].tolist() == [60.0, 50.0]


def test_chained_truth_counts_a_clamped_first_step(exact_model, caplog):
    """A truth is clamped in its cell when any step is, not only the last.

    The anchor at 45 lies below the coverage (50, 100], so its first step
    uses the end range and is clamped; it lands near 53, and the second step
    from there is not clamped.
    """
    decomp = decompose_explicit([50.0, 100.0])
    models = {decomp.ranges[0].range_id: {"logistic2": exact_model}}
    corpus = Corpus(
        make_stimuli("c1", (45.0, 53.0, 61.0, 70.0)),
        (),
        (JndTruth("c1", "r0", "inc", "r3", 2),),
    )
    spec = EvalGridSpec(thresholds=(0.75,), families=("logistic2",))
    with caplog.at_level(logging.WARNING):
        grid = _assert_matches_scalar_grid(corpus, models, decomp, spec)
    assert grid.cell("inc", "logistic2", 0.75).clamped == 1
    assert grid.predictions.ids[1].tolist() == ["r1"]
    assert grid.predictions.clamped.tolist() == [False]
    assert [r.getMessage() for r in caplog.records if "outside coverage" in r.getMessage()] == [
        "anchor c1/r0 vmaf 45.000 outside coverage (50.0, 100.0); using end range (50,100]"]


def test_an_anchor_outside_the_coverage_is_logged_once_per_grid(exact_model, caplog):
    """Three truths start from one anchor below the coverage and are walked
    in six cells; one warning names it.  The chained step's anchor at 53 and
    the anchor at 61 lie inside the coverage and are not logged."""
    decomp = decompose_explicit([50.0, 100.0])
    models = {decomp.ranges[0].range_id: {"logistic2": exact_model}}
    truths = (JndTruth("c1", "r0", "inc", "r3", 2), JndTruth("c1", "r0", "inc", "r1", 1),
              JndTruth("c1", "r0", "dec", "r4", 1), JndTruth("c1", "r2", "inc", "r3", 1))
    corpus = Corpus(make_stimuli("c1", (45.0, 53.0, 61.0, 70.0, 30.0)), (), truths)
    spec = EvalGridSpec(thresholds=(0.6, 0.75, 0.9), families=("logistic2",))
    with caplog.at_level(logging.WARNING):
        grid = evaluate_grid(corpus, models, decomp, spec)
    assert len(grid.cells) == 6 and len(grid.predictions) == 12
    warnings = [r.getMessage() for r in caplog.records if "outside coverage" in r.getMessage()]
    assert warnings == [
        "anchor c1/r0 vmaf 45.000 outside coverage (50.0, 100.0); using end range (50,100]"]


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
