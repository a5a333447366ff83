"""Threshold inversion and single-prediction assembly."""

from __future__ import annotations

import dataclasses
import logging
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
    invert_family,
    predict_jnd,
    predictions_csv_text,
)
from jndmap.ranges import decompose_explicit
from jndmap.tableio import write_csv_text

from conftest import DSTAR, scalar_inversion, scalar_prediction


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


def test_predict_jnd_logs_an_anchor_outside_the_coverage_once(caplog):
    decomp, models = _edge_models()
    with caplog.at_level(logging.WARNING):
        predict_jnd(models, decomp, Stimulus("c1", "r1", "1080p", 1, 20.0), "inc", 0.75,
                    "logistic2")
    assert [r.getMessage() for r in caplog.records] == [
        "anchor vmaf 20.000 outside coverage (30.0, 100.0); using end range (30,79]"]


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


@pytest.mark.parametrize(("vmaf", "direction", "threshold", "message"), [
    (90.0, "sideways", 1.5, r"^direction must be 'inc' or 'dec', got 'sideways'$"),
    (math.nan, "sideways", 0.75, r"^direction must be 'inc' or 'dec', got 'sideways'$"),
    (90.0, "dec", 1.5, r"^threshold must be in \(0, 1\), got 1.5$"),
    (math.nan, "dec", 0.0, r"^threshold must be in \(0, 1\), got 0.0$"),
])
def test_predict_jnd_checks_direction_then_threshold(single_range_models, vmaf, direction,
                                                     threshold, message):
    """An invalid direction is reported before an invalid threshold, and an
    invalid threshold before a NaN anchor's KeyError."""
    decomp, models = single_range_models
    anchor = Stimulus("c1", "r1", "1080p", 1, vmaf)
    with pytest.raises(ValueError, match=message):
        predict_jnd(models, decomp, anchor, direction, threshold, "logistic2")


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


# -- the array bisection against the scalar one ------------------------------

#: Per family, the interval of each drawn parameter: curves that cross the
#: thresholds inside a domain of up to 60 |dVMAF|, and ones that do not.
PARAM_RANGES = {
    "logistic5": ((0.0, 3.0), (0.0, 5.0), (-5.0, 40.0), (0.0, 0.05), (-1.0, 1.0)),
    "cubic4": ((-0.5, 1.0), (-0.1, 0.3), (-0.01, 0.01), (-1e-3, 1e-3)),
    "logistic2": ((0.0, 5.0), (-5.0, 40.0)),
    "glm": ((-20.0, 5.0), (-1.0, 5.0)),
}


def _curve(family: str, params, domain, monotone: bool = True) -> MappingFunction:
    return MappingFunction(family, tuple(params), tuple(domain), FitReport(0.0, monotone, 0))


def _assert_inverts_as_the_scalar_loop(models, range_ids, family, thresholds):
    """``invert_family``'s table and, per curve, ``invert_at_threshold``
    equal :func:`scalar_inversion` bit for bit: each cell's delta bits and
    clamped flag, or the type and text of the error that stops the range
    (its row then zero)."""
    delta, clamped, stops = invert_family(models, range_ids, family, thresholds)
    shape = (len(range_ids), len(thresholds))
    assert delta.shape == clamped.shape == shape and clamped.dtype == bool
    assert len(stops) == len(range_ids)
    for row, (range_id, stop) in enumerate(zip(range_ids, stops)):
        mf = models.get(range_id, {}).get(family)
        if mf is None:
            assert isinstance(stop, KeyError)
            assert stop.args == (f"no fitted {family} model for range {range_id}",)
        elif not mf.fit_report.monotone:
            assert isinstance(stop, FitError)
        else:
            assert stop is None
        if stop is not None:
            assert not delta[row].any() and not clamped[row].any()
        if mf is None:
            continue
        for column, threshold in enumerate(thresholds):
            try:
                expected = scalar_inversion(mf, threshold)
            except FitError as exc:
                assert str(stop) == str(exc)
                with pytest.raises(FitError, match=str(exc)):
                    invert_at_threshold(mf, threshold)
                continue
            single = invert_at_threshold(mf, threshold)
            cell = (float(delta[row, column]), bool(clamped[row, column]))
            for got in (cell, single):
                assert type(got[1]) is bool and got[1] == expected[1]
                assert float.hex(got[0]) == float.hex(expected[0])


@st.composite
def _family_curves(draw):
    """One family's curves over 1-4 ranges, each fitted and monotone, flagged
    non-monotone or missing, and 1-5 thresholds."""
    family = draw(st.sampled_from(sorted(PARAM_RANGES)))
    models, range_ids = {}, []
    for i in range(draw(st.integers(1, 4))):
        range_id = f"r{i}"
        range_ids.append(range_id)
        state = draw(st.sampled_from(("fitted", "fitted", "fitted", "non-monotone", "missing")))
        if state == "missing":
            continue
        params = [draw(st.floats(lo, hi)) for lo, hi in PARAM_RANGES[family]]
        lo = draw(st.floats(0.0, 5.0))
        domain = (lo, lo + draw(st.floats(1e-3, 60.0)))
        models[range_id] = {family: _curve(family, params, domain, state == "fitted")}
    thresholds = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                               min_size=1, max_size=5, unique=True))
    return models, range_ids, family, thresholds


@settings(max_examples=300, deadline=None)
@given(_family_curves())
def test_array_bisection_equals_the_scalar_loop(curves):
    _assert_inverts_as_the_scalar_loop(*curves)


@pytest.mark.parametrize(("family", "params", "domain", "kind"), [
    ("logistic2", (2.0, -10.0), (0.0, 20.0), "met at the domain start"),
    ("logistic2", (0.5, 6.0), (0.0, 20.0), "never reached"),
    ("glm", (0.0, 0.0), (0.0, 20.0), "flat"),
    ("cubic4", (0.05, 0.08, 0.001, -2e-5), (0.0, 20.0), "bracketed"),
    ("logistic5", (1.0, 0.8, 9.0, 0.01, 0.1), (0.0, 20.0), "bracketed"),
    # 1e25 / 2**100 is far above the stop width, so all 100 halvings run
    ("logistic2", (0.5, 6.0), (0.0, 1e25), "bracketed"),
])
def test_array_bisection_equals_the_scalar_loop_at_each_outcome(family, params, domain, kind):
    """Beside each named curve, a range whose fit is flagged non-monotone
    (FitError) and one without a model (KeyError)."""
    models = {"a": {family: _curve(family, params, domain)},
              "b": {family: _curve(family, params, domain, monotone=False)}}
    thresholds = [0.55, 0.75, 0.9999]
    _assert_inverts_as_the_scalar_loop(models, ["a", "b", "missing"], family, thresholds)
    outcomes = [invert_at_threshold(models["a"][family], t) for t in thresholds]
    start, end = domain
    if kind == "met at the domain start":
        assert outcomes == [(start, True)] * 3
    elif kind == "never reached":
        assert outcomes[-1] == (end, True)
    elif kind == "flat":  # sigmoid(0) = 0.5 everywhere reaches no threshold above it
        assert outcomes == [(end, True)] * 3
    else:
        assert [clamped for _, clamped in outcomes[:2]] == [False, False]


def test_invert_family_rejects_a_threshold_outside_the_unit_interval():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="threshold must be in"):
            invert_family({}, ["missing"], "glm", [0.5, bad])
