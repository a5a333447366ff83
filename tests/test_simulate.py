"""Synthetic DCR study generator and its search procedure."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from jndmap.simulate import (
    SimSpec,
    bisection_search,
    read_sim_spec_json,
    simulate_corpus,
    truth_info_json_dict,
)
from jndmap.tableio import from_json, json_text, to_json, write_json


LADDER12 = list(range(12))


def test_bisection_finds_first_detected_rung():
    queried = []

    def detector(i):
        queried.append(i)
        return i >= 7

    assert bisection_search(LADDER12, 0, "dec", detector) == 7
    assert len(queried) <= math.ceil(math.log2(len(LADDER12))) + 1


def test_bisection_increasing_direction():
    assert bisection_search(LADDER12, 11, "inc", lambda i: i <= 3) == 3


def test_bisection_beyond_ladder():
    assert bisection_search(LADDER12, 0, "dec", lambda i: False) is None


def test_bisection_adjacent_detection():
    assert bisection_search(LADDER12, 0, "dec", lambda i: i >= 1) == 1


def test_bisection_guards():
    with pytest.raises(ValueError):
        bisection_search([1, 2], 0, "dec", lambda i: True)
    with pytest.raises(ValueError):
        bisection_search(LADDER12, 3, "dec", lambda i: True)
    with pytest.raises(ValueError):
        bisection_search(LADDER12, 0, "inc", lambda i: True)
    with pytest.raises(ValueError):
        bisection_search(LADDER12, 0, "up", lambda i: True)


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(ladder=(("a", 90.0), ("b", 91.0), ("c", 92.0))).validate()
    with pytest.raises(ValueError):
        SimSpec(ladder=(("a", 90.0), ("a", 85.0), ("c", 80.0))).validate()
    with pytest.raises(ValueError):
        SimSpec(observer_count=1).validate()
    with pytest.raises(ValueError):
        SimSpec(ladder_jitter=0.5).validate()
    with pytest.raises(ValueError):
        SimSpec(content_spread=20.0).validate()  # 95 + 20 leaves the scale
    SimSpec().validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["jnd_scale", "detection_slope", "rating_noise_sd",
                                  "jnd_jitter_sd", "content_spread", "ladder_jitter"])
def test_spec_float_settings_must_be_finite(name, value):
    with pytest.raises(ValueError) as raised:
        dataclasses.replace(SimSpec(), **{name: value}).validate()
    assert str(raised.value) == f"{name} must be finite, got {value}"


def test_spec_json_round_trip(tmp_path):
    spec = SimSpec(n_contents=5, seed=99)
    path = tmp_path / "spec.json"
    write_json(path, to_json(spec))
    assert read_sim_spec_json(path) == spec


def test_simulation_shape(small_spec):
    corpus, info = simulate_corpus(small_spec)
    n_rungs = len(small_spec.ladder)
    assert len(corpus.stimuli) == small_spec.n_contents * n_rungs
    assert len(corpus.ratings) == (
        small_spec.n_contents * n_rungs * small_spec.observer_count
    )
    assert all(1 <= r.score <= 5 for r in corpus.ratings)
    assert all(0.0 <= s.vmaf <= 100.0 for s in corpus.stimuli)
    # Every truth is an order-1 step; beyond-ladder searches are listed apart.
    assert all(t.order == 1 for t in corpus.truths)
    assert len(corpus.truths) + len(info["beyond_ladder"]) == (
        2 * small_spec.n_contents
    )
    assert from_json(SimSpec, json.loads(json_text(info["spec"]))) == small_spec


def test_simulation_levels_follow_ladder(small_spec):
    corpus, _ = simulate_corpus(small_spec)
    for content in corpus.contents():
        stims = corpus.stimuli_for_content(content)
        levels = [s.level for s in stims]
        assert levels == sorted(levels)
        vmafs = [s.vmaf for s in stims]
        assert vmafs == sorted(vmafs, reverse=True)


def test_simulation_deterministic(small_spec):
    first, info_a = simulate_corpus(small_spec)
    second, info_b = simulate_corpus(small_spec)
    assert first.stimuli == second.stimuli
    assert first.ratings == second.ratings
    assert first.truths == second.truths
    assert info_a["true_deltas"] == info_b["true_deltas"]


def test_seed_changes_output(small_spec):
    base, _ = simulate_corpus(small_spec)
    other, _ = simulate_corpus(dataclasses.replace(small_spec, seed=8))
    assert base.ratings != other.ratings


def test_content_streams_are_independent(small_spec):
    """Adding contents must not disturb the ones already generated."""
    corpus3, _ = simulate_corpus(small_spec)
    corpus4, _ = simulate_corpus(dataclasses.replace(small_spec, n_contents=4))
    for stim in corpus3.stimuli:
        assert corpus4.stimulus(stim.content_id, stim.recipe_id) == stim


def test_noise_free_reference_scores(small_spec):
    spec = dataclasses.replace(small_spec, rating_noise_sd=0.0)
    corpus, _ = simulate_corpus(spec)
    # Without rating noise the reference rung compares as imperceptible.
    for content in corpus.contents():
        ref = corpus.stimuli_for_content(content)[0]
        assert all(r.score == 5 for r in corpus.ratings_for(content, ref.recipe_id))


def test_truth_concentration(default_sim):
    """Panel JNDs should cluster near jnd_scale (6) under default settings."""
    corpus, info = default_sim
    deltas = list(info["true_deltas"].values())
    assert len(deltas) == len(corpus.truths)
    med = float(np.median(deltas))
    assert 4.0 <= med <= 10.0
    assert not info["beyond_ladder"]


def test_jnd_scale_shifts_truths(small_spec):
    small = dataclasses.replace(small_spec, jnd_scale=4.0)
    large = dataclasses.replace(small_spec, jnd_scale=10.0)
    _, info_small = simulate_corpus(small)
    _, info_large = simulate_corpus(large)
    mean_small = np.mean(list(info_small["true_deltas"].values()))
    mean_large = np.mean(list(info_large["true_deltas"].values()))
    assert mean_large > mean_small


def test_truth_info_json(tmp_path, small_spec):
    _, info = simulate_corpus(small_spec)
    data = truth_info_json_dict(info)
    assert set(data) == {"spec", "true_deltas", "beyond_ladder"}
    for key in data["true_deltas"]:
        content_id, direction = key.split(":")
        assert direction in ("inc", "dec")
    path = tmp_path / "truth.json"
    write_json(path, data)
    assert path.exists()


def test_integer_for_a_float_setting_becomes_a_float():
    spec = from_json(SimSpec, {"jnd_scale": 3, "n_contents": 2})
    assert type(spec.jnd_scale) is float and spec.jnd_scale == 3.0
    assert type(spec.n_contents) is int
    assert to_json(spec)["jnd_scale"] == 3.0
