"""The columnar rating table against per-stimulus oracles.

Random small corpora, built from ``DcrRating`` tuples in random order, with
ties, zero-variance stimuli, unequal panels, unrated stimuli and 2-rating
stimuli.  Screening and classification over the table must equal, bit for
bit, per-stimulus loops: classification the reference tests of
``conftest.vector_test`` on each pair's two rating vectors.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jndmap.corpus import Corpus, DcrRating, Recipe, Stimulus
from jndmap.screening import REJECT_BALANCE, REJECT_FREQUENCY, apply_screening, screen
from jndmap.significance import classify_pairs
from jndmap.simulate import SimSpec, simulate_corpus

from conftest import vector_test

OBSERVERS = ("o1", "o2", "o3", "o4", "o5", "o6")


@st.composite
def corpora(draw) -> tuple[Corpus, tuple[DcrRating, ...]]:
    """A corpus and the ratings it was built from, in the order given."""
    stimuli, ratings = [], []
    # a small score alphabet per study makes ties and zero variances common
    alphabet = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True))
    for c in range(draw(st.integers(1, 3))):
        for r in range(draw(st.integers(1, 4))):
            vmaf = draw(st.floats(0.0, 100.0, allow_nan=False))
            stimuli.append(Stimulus(f"c{c}", Recipe(f"r{r}", "1080p", r), vmaf))
            panel = draw(st.one_of(st.just(()), st.lists(
                st.sampled_from(OBSERVERS), min_size=2, max_size=6, unique=True)))
            ratings += [DcrRating(f"c{c}", f"r{r}", obs, draw(st.sampled_from(alphabet)))
                        for obs in panel]
    stimuli = draw(st.permutations(stimuli))
    ratings = tuple(draw(st.permutations(ratings)))
    return Corpus(tuple(stimuli), ratings, ()), ratings


def _panels(ratings) -> dict[tuple[str, str], list[DcrRating]]:
    """Each rated stimulus's ratings in observer order."""
    groups: dict[tuple[str, str], list[DcrRating]] = {}
    for rating in sorted(ratings, key=lambda r: (r.content_id, r.recipe_id, r.observer_id)):
        groups.setdefault((rating.content_id, rating.recipe_id), []).append(rating)
    return groups


def _screen_oracle(ratings) -> dict[str, tuple[int, int, float, float]]:
    """BT.500 tallies by a loop over the stimuli, one numpy vector each."""
    p = dict.fromkeys(sorted({r.observer_id for r in ratings}), 0)
    q, n = dict(p), dict(p)
    for group in _panels(ratings).values():
        scores = np.array([r.score for r in group], dtype=float)
        mean = float(scores.mean())
        centered = scores - mean
        m2 = float(np.mean(centered**2))
        if m2 == 0.0:
            upper = lower = mean
        else:
            beta2 = float(np.mean(centered**4)) / m2**2
            sigma = float(scores.std(ddof=1))
            width = 2.0 * sigma if 2.0 <= beta2 <= 4.0 else math.sqrt(20.0) * sigma
            upper, lower = mean + width, mean - width
        for rating in group:
            n[rating.observer_id] += 1
            if rating.score > upper:
                p[rating.observer_id] += 1
            elif rating.score < lower:
                q[rating.observer_id] += 1
    return {
        obs: (p[obs], q[obs], (p[obs] + q[obs]) / n[obs],
              abs(p[obs] - q[obs]) / (p[obs] + q[obs]) if p[obs] + q[obs] else 0.0)
        for obs in p
    }


def _classify_oracle(corpus: Corpus, ratings, test: str) -> list[tuple] | str:
    """Each pair's (content, x, y, delta, p, sig), or the first pair's error."""
    panels = _panels(ratings)
    out = []
    for content_id in sorted({s.content_id for s in corpus.stimuli}):
        rated = sorted(r for c, r in panels if c == content_id)
        for rx, ry in itertools.combinations(rated, 2):
            a, b = panels[(content_id, rx)], panels[(content_id, ry)]
            va, vb = [r.score for r in a], [r.score for r in b]
            try:
                if test == "paired":
                    if [r.observer_id for r in a] != [r.observer_id for r in b]:
                        raise ValueError(
                            "paired test needs identical observer panels on both stimuli"
                        )
                result = vector_test(va, vb, test)
            except ValueError as exc:
                return f"pair {content_id}:{rx}:{ry}: {exc}"
            delta = abs(corpus.stimulus(content_id, rx).vmaf - corpus.stimulus(content_id, ry).vmaf)
            out.append((content_id, rx, ry, delta.hex(), result.p.hex(), result.sig))
    return out


@given(corpora())
@settings(max_examples=80, deadline=None)
def test_lookups_match_the_ratings_given(built):
    corpus, ratings = built
    panels = _panels(ratings)
    assert corpus.ratings == ratings
    assert corpus.observers() == sorted({r.observer_id for r in ratings})
    for stim in corpus.stimuli:
        key = (stim.content_id, stim.recipe_id)
        assert corpus.ratings_for(*key) == panels.get(key, [])
    for content_id in corpus.contents():
        assert corpus.rated_recipes(content_id) == sorted(r for c, r in panels if c == content_id)


@given(corpora())
@settings(max_examples=80, deadline=None)
def test_screening_is_bit_equal_to_the_per_stimulus_loop(built):
    corpus, ratings = built
    report = screen(corpus, "bt500")
    expected = _screen_oracle(ratings)
    stats = {obs: (s.p_count, s.q_count, s.ratio1.hex(), s.ratio2.hex())
             for obs, s in report.per_observer_stats.items()}
    assert stats == {obs: (p, q, r1.hex(), r2.hex()) for obs, (p, q, r1, r2) in expected.items()}
    assert report.removed_observers == {
        obs for obs, (_, _, r1, r2) in expected.items()
        if r1 > REJECT_FREQUENCY and r2 < REJECT_BALANCE
    }
    kept = apply_screening(corpus, report)
    removed = report.removed_observers
    assert kept.ratings == tuple(r for r in ratings if r.observer_id not in removed)


@given(corpora(), st.sampled_from(["welch", "student", "paired"]))
@settings(max_examples=80, deadline=None)
def test_classification_is_bit_equal_to_the_scalar_tests(built, test):
    corpus, ratings = built
    expected = _classify_oracle(corpus, ratings, test)
    if isinstance(expected, str) or not expected:
        with pytest.raises(ValueError) as error:
            classify_pairs(corpus, test=test)
        assert str(error.value) == (expected or "no content has two or more rated stimuli")
        return
    pairs = classify_pairs(corpus, test=test)
    assert [(p.content_id, p.recipe_x, p.recipe_y, p.delta_obj.hex(), p.p_value.hex(), p.sig)
            for p in pairs] == expected


def test_welch_squares_round_as_the_scalar_test_does():
    """Python's ``x**2`` on a float is C pow(), which differs from numpy's
    ``x * x`` in the last bit for some values; on this noisy panel two
    Welch p-values depend on it.  The reference squares with ``**`` on
    Python floats."""
    spec = SimSpec(n_contents=6, observer_count=9, rating_noise_sd=2.0, seed=4)
    corpus, _ = simulate_corpus(spec)
    pairs = classify_pairs(corpus, test="welch")
    assert [(p.content_id, p.recipe_x, p.recipe_y, p.delta_obj.hex(), p.p_value.hex(), p.sig)
            for p in pairs] == _classify_oracle(corpus, corpus.ratings, "welch")
