"""Threshold inversion and single-prediction assembly."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jndmap.corpus import Corpus, JndTruth, Stimulus
from jndmap.errors import FitError
from jndmap.mapping import FitReport, MappingFunction, evaluate_mf
from jndmap.predict import (
    INVERSION_TOL,
    PredictionTable,
    invert_at_threshold,
    predict_jnd,
    predictions_csv_text,
)
from jndmap.ranges import decompose_explicit
from jndmap.tableio import write_csv_text

from conftest import DSTAR, scalar_prediction


def _logistic(b1: float, b2: float, domain=(0.0, 20.0)) -> MappingFunction:
    return MappingFunction("logistic2", (b1, b2), domain, FitReport(0.0, True, 0))


def test_inversion_closed_form(exact_model):
    delta, clamped = invert_at_threshold(exact_model, 0.75)
    assert not clamped
    # sigmoid(0.5 (d - 6)) = 0.75  <=>  d = 6 + 2 ln 3
    assert delta == pytest.approx(DSTAR, abs=INVERSION_TOL)


def test_inversion_roundtrip(exact_model):
    for thr in (0.1, 0.25, 0.5, 0.75, 0.9, 0.95):
        delta, clamped = invert_at_threshold(exact_model, thr)
        if not clamped:
            assert evaluate_mf(exact_model, delta) == pytest.approx(
                thr, abs=INVERSION_TOL
            )


def test_inversion_returns_smallest_delta(exact_model):
    # Monotone curve: any smaller delta must sit strictly below the threshold.
    delta, _ = invert_at_threshold(exact_model, 0.75)
    assert evaluate_mf(exact_model, delta - 1e-4) < 0.75


def test_inversion_clamps_low():
    # Curve already above threshold at the domain floor.
    mf = _logistic(0.5, -10.0)
    delta, clamped = invert_at_threshold(mf, 0.4)
    assert clamped
    assert delta == mf.domain[0]


def test_inversion_clamps_high(exact_model):
    # sigmoid(0.5 (20 - 6)) ~ 0.999089: a higher threshold is unreachable.
    delta, clamped = invert_at_threshold(exact_model, 0.9999)
    assert clamped
    assert delta == exact_model.domain[1]


def test_inversion_threshold_guard(exact_model):
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            invert_at_threshold(exact_model, bad)


def test_inversion_rejects_non_monotone():
    mf = MappingFunction(
        "logistic2", (-0.5, 6.0), (0.0, 20.0), FitReport(0.0, False, 0)
    )
    with pytest.raises(FitError):
        invert_at_threshold(mf, 0.5)


@given(
    b1=st.floats(0.1, 2.0),
    b2=st.floats(1.0, 15.0),
    thr=st.floats(0.05, 0.95),
)
@settings(max_examples=80, deadline=None)
def test_inversion_roundtrip_property(b1, b2, thr):
    mf = _logistic(b1, b2, domain=(0.0, 40.0))
    delta, clamped = invert_at_threshold(mf, thr)
    assert mf.domain[0] <= delta <= mf.domain[1]
    if not clamped:
        assert abs(evaluate_mf(mf, delta) - thr) <= INVERSION_TOL


EDGES = (30.0, 79.0, 86.0, 90.0, 95.0, 100.0)


def _edge_models():
    """One logistic2 curve per range of ``EDGES``, each inverting differently
    (the last never reaches 0.95), except (86,90], which has none, and
    (90,95], whose fit is flagged non-monotone."""
    decomp = decompose_explicit(list(EDGES))
    curves = [_logistic(0.5, 6.0), _logistic(1.0, 3.0), None, _logistic(0.8, 8.0),
              _logistic(0.2, 15.0)]
    models = {r.range_id: {"logistic2": mf} for r, mf in zip(decomp.ranges, curves) if mf}
    flagged = models["(90,95]"]["logistic2"]
    models["(90,95]"]["logistic2"] = MappingFunction(
        "logistic2", flagged.params, flagged.domain, FitReport(0.0, False, 0))
    return decomp, models


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from(EDGES), st.floats(-20.0, 120.0)),
    st.sampled_from(("dec", "inc")),
    st.sampled_from((0.5, 0.75, 0.95)),
)
def test_predict_jnd_matches_the_scalar_reference(vmaf, direction, threshold):
    """Inside and outside the coverage, on the bounds, with a range without
    a model and one with a non-monotone fit."""
    decomp, models = _edge_models()
    anchor = Stimulus("c1", "r1", "1080p", 1, vmaf)
    try:
        expected = scalar_prediction(models, decomp, anchor, direction, threshold, "logistic2")
    except (KeyError, FitError) as exc:
        with pytest.raises(type(exc)) as raised:
            predict_jnd(models, decomp, anchor, direction, threshold, "logistic2")
        assert str(raised.value) == str(exc)
        return
    assert predict_jnd(models, decomp, anchor, direction, threshold, "logistic2") == expected


def test_a_nan_anchor_lies_in_no_range():
    decomp, models = _edge_models()
    anchor = Stimulus("c1", "r1", "1080p", 1, math.nan)
    message = r"^'vmaf nan outside coverage \(30.0, 100.0\]'$"
    with pytest.raises(KeyError, match=message):
        predict_jnd(models, decomp, anchor, "dec", 0.75, "logistic2")


def test_predict_jnd_decrease(ladder_stimuli, single_range_models):
    decomp, models = single_range_models
    corpus = Corpus(ladder_stimuli, (), ())
    anchor = corpus.stimulus("c1", "r1")  # VMAF 90
    pred = predict_jnd(models, decomp, anchor, "dec", 0.75, "logistic2")
    assert pred.delta_obj_jnd == pytest.approx(DSTAR, abs=INVERSION_TOL)
    assert pred.target_vmaf == pytest.approx(90.0 - DSTAR, abs=INVERSION_TOL)
    assert not pred.clamped
    assert pred.range_id == decomp.range_ids()[0]
    assert pred.threshold == 0.75


def test_predict_jnd_increase_clips_to_scale(ladder_stimuli, single_range_models):
    decomp, models = single_range_models
    corpus = Corpus(ladder_stimuli, (), ())
    anchor = corpus.stimulus("c1", "r0")  # VMAF 95: raw target exceeds 100
    pred = predict_jnd(models, decomp, anchor, "inc", 0.75, "logistic2")
    assert pred.target_vmaf == 100.0
    assert pred.clamped


def test_predict_jnd_unknown_family(ladder_stimuli, single_range_models):
    decomp, models = single_range_models
    corpus = Corpus(ladder_stimuli, (), ())
    anchor = corpus.stimulus("c1", "r1")
    with pytest.raises(KeyError, match="glm"):
        predict_jnd(models, decomp, anchor, "dec", 0.75, "glm")


def test_predict_jnd_direction_guard(ladder_stimuli, single_range_models):
    decomp, models = single_range_models
    corpus = Corpus(ladder_stimuli, (), ())
    anchor = corpus.stimulus("c1", "r1")
    with pytest.raises(ValueError):
        predict_jnd(models, decomp, anchor, "sideways", 0.75, "logistic2")


def test_predictions_csv(tmp_path, ladder_stimuli, single_range_models):
    decomp, models = single_range_models
    corpus = Corpus(ladder_stimuli, (), (JndTruth("c1", "r1", "dec", "r3", 1),))
    anchor = corpus.stimulus("c1", "r1")
    pred = predict_jnd(models, decomp, anchor, "dec", 0.75, "logistic2")
    text = predictions_csv_text(PredictionTable(*zip(dataclasses.astuple(pred))))
    header, row = text.splitlines()
    assert header.startswith("content_id,anchor_recipe_id,direction,range_id")
    assert row.startswith("c1,r1,dec,")
    assert row.endswith(",0")  # clamped flag serializes as 0/1
    path = tmp_path / "predictions.csv"
    write_csv_text(path, text)
    assert path.read_text() == text


def test_prediction_is_pure(ladder_stimuli, single_range_models):
    decomp, models = single_range_models
    corpus = Corpus(ladder_stimuli, (), ())
    anchor = corpus.stimulus("c1", "r1")
    first = predict_jnd(models, decomp, anchor, "dec", 0.9, "logistic2")
    second = predict_jnd(models, decomp, anchor, "dec", 0.9, "logistic2")
    assert first == second


def test_higher_threshold_needs_larger_delta(exact_model):
    deltas = [
        invert_at_threshold(exact_model, thr)[0]
        for thr in (0.55, 0.65, 0.75, 0.85, 0.95)
    ]
    assert deltas == sorted(deltas)
    assert math.isfinite(deltas[-1])
