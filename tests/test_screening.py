"""Observer screening: rejection rule, edge cases, report round-trip."""

from __future__ import annotations

import pytest

from jndmap.corpus import Corpus, DcrRating
from jndmap.screening import (
    METHODS,
    apply_screening,
    read_report,
    screen,
    screen_bt500,
)
from jndmap.tableio import write_json

from conftest import make_stimuli


def _consensus_corpus(outlier: str | None = None, outlier_score: int = 5) -> Corpus:
    """12 stimuli with unanimous consensus (six 5s, six 1s), plus one outlier.

    The outlier observer gives ``outlier_score`` on every stimulus regardless
    of consensus.
    """
    stimuli = make_stimuli("c1", [95.0 - 2.0 * i for i in range(12)])
    observers = [f"o{j:02d}" for j in range(1, 24)]
    if outlier:
        observers.append(outlier)
    ratings = []
    for i, stim in enumerate(stimuli):
        consensus = 5 if i < 6 else 1
        for obs in observers:
            score = outlier_score if obs == outlier else consensus
            ratings.append(DcrRating("c1", stim.recipe_id, obs, score))
    return Corpus(stimuli, tuple(ratings), ())


def test_inverted_observer_removed(inverted_observer_corpus):
    report = screen_bt500(inverted_observer_corpus)
    assert report.removed_observers == frozenset({"bad"})
    stats = report.per_observer_stats["bad"]
    # Deviations land in both tails equally: erratic, hence removable.
    assert (stats.p_count, stats.q_count) == (6, 6)
    assert stats.ratio1 == 1.0
    assert stats.ratio2 == 0.0
    assert report.per_observer_stats["o01"].p_count == 0


def test_consistent_bias_is_kept():
    # An observer who always scores 5 deviates on every consensus-1 stimulus,
    # but always in the same direction -- the balance test keeps them.
    corpus = _consensus_corpus(outlier="opt", outlier_score=5)
    report = screen_bt500(corpus)
    assert report.removed_observers == frozenset()
    stats = report.per_observer_stats["opt"]
    assert stats.p_count == 6 and stats.q_count == 0
    assert stats.ratio2 == 1.0


def test_unanimous_panel_keeps_everyone():
    report = screen_bt500(_consensus_corpus())
    assert report.removed_observers == frozenset()


def test_zero_variance_stimulus_is_harmless():
    # All scores equal: the bounds collapse onto the mean and nothing can
    # deviate strictly, so screening must neither crash nor reject.
    stimuli = make_stimuli("c1", (90.0,))
    ratings = tuple(DcrRating("c1", "r0", f"o{j}", 3) for j in range(5))
    report = screen_bt500(Corpus(stimuli, ratings, ()))
    assert report.removed_observers == frozenset()


def test_single_rating_stimulus_rejected():
    stimuli = make_stimuli("c1", (90.0,))
    corpus = Corpus(stimuli, (DcrRating("c1", "r0", "oA", 4),), ())
    with pytest.raises(ValueError):
        screen_bt500(corpus)


def test_apply_screening_strips_ratings(inverted_observer_corpus):
    report = screen_bt500(inverted_observer_corpus)
    cleaned = apply_screening(inverted_observer_corpus, report)
    assert "bad" not in cleaned.observers()
    assert len(cleaned.observers()) == 23
    assert len(cleaned.ratings) == 23 * 12
    assert cleaned.stimuli == inverted_observer_corpus.stimuli


def test_noop_methods(inverted_observer_corpus):
    report = screen(inverted_observer_corpus, "none")
    assert report.method == "none"
    assert report.removed_observers == frozenset()
    for retired in ("vqeg_hdtv_annex_i", "bt1788"):
        with pytest.raises(ValueError, match="unknown screening method"):
            screen(inverted_observer_corpus, retired)


def test_unknown_method():
    with pytest.raises(ValueError, match="unknown screening method"):
        screen(_consensus_corpus(), "bt500_annex_z")
    assert "bt500" in METHODS


def test_report_round_trip(tmp_path, inverted_observer_corpus):
    report = screen_bt500(inverted_observer_corpus)
    path = tmp_path / "screening.json"
    write_json(path, report.to_json_dict())
    loaded = read_report(path)
    assert loaded.method == report.method
    assert loaded.removed_observers == report.removed_observers
    assert loaded.per_observer_stats == report.per_observer_stats
