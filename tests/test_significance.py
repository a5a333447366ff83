"""Pair classification and the two-sample tests behind it."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from jndmap import significance
from jndmap.corpus import Corpus, DcrRating
from jndmap.significance import (
    TESTS,
    RatedPair,
    classify_pairs,
    paired_t_test,
    pairs_csv_text,
    read_pairs_csv,
    student_t_test,
    welch_t_test,
)
from jndmap.simulate import SimSpec, simulate_corpus
from jndmap.tableio import write_csv_text

from conftest import make_stimuli, vector_test

score_vectors = st.lists(st.integers(1, 5), min_size=2, max_size=12).filter(
    lambda v: len(set(v)) > 1
)


def test_hand_worked_example():
    # Shifting [1..5] by one unit: the statistic and df have closed forms.
    result = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert result.t == -1.0
    assert result.df == 8.0
    assert result.p == pytest.approx(0.34659350708733416, abs=1e-15)
    assert result.sig == 0


@pytest.mark.parametrize(
    "a,b",
    [
        ([1, 2, 3, 4, 5], [2, 3, 4, 5, 6]),
        ([5, 5, 4, 3, 5, 4], [2, 1, 2, 3, 1]),
        ([1.5, 2.25, 3.0, 2.0], [2.5, 3.5, 2.75, 3.25, 4.0]),
        ([4, 4, 5, 5, 4, 4, 5], [4, 5, 4, 4, 5, 5, 4]),
    ],
)
def test_welch_matches_reference_implementation(a, b):
    ours = welch_t_test(a, b)
    ref = stats.ttest_ind(a, b, equal_var=False)
    assert ours.t == pytest.approx(ref.statistic, abs=1e-12)
    assert ours.p == pytest.approx(ref.pvalue, abs=1e-12)


def test_student_matches_reference_implementation():
    a, b = [1, 2, 3, 4, 5], [2, 2, 4, 5, 5, 4]
    ours = student_t_test(a, b)
    ref = stats.ttest_ind(a, b, equal_var=True)
    assert ours.t == pytest.approx(ref.statistic, abs=1e-12)
    assert ours.p == pytest.approx(ref.pvalue, abs=1e-12)
    assert ours.df == len(a) + len(b) - 2


def test_paired_matches_reference_implementation():
    a, b = [5, 4, 5, 3, 4, 5], [4, 4, 3, 3, 2, 5]
    ours = paired_t_test(a, b)
    ref = stats.ttest_rel(a, b)
    assert ours.t == pytest.approx(ref.statistic, abs=1e-12)
    assert ours.p == pytest.approx(ref.pvalue, abs=1e-12)


def test_paired_requires_equal_lengths():
    with pytest.raises(ValueError):
        paired_t_test([1, 2, 3], [1, 2])


def test_degenerate_zero_variance():
    same = welch_t_test([3, 3, 3], [3, 3, 3])
    assert (same.t, same.p, same.sig) == (0.0, 1.0, 0)
    apart = welch_t_test([3, 3, 3], [4, 4, 4])
    assert apart.t == -math.inf
    assert (apart.p, apart.sig) == (0.0, 1)
    assert apart.df == 4.0  # pooled fallback df: na + nb - 2


def test_paired_zero_variance_keeps_the_paired_df():
    # every difference is 1: the paired test has n - 1 = 2 degrees of freedom
    result = paired_t_test([3, 4, 5], [2, 3, 4])
    assert (result.t, result.df, result.p, result.sig) == (math.inf, 2.0, 0.0, 1)


def test_input_guards():
    with pytest.raises(ValueError):
        welch_t_test([1], [2, 3])
    with pytest.raises(ValueError):
        welch_t_test([1, 2], [2, 3], alpha=0.0)
    with pytest.raises(ValueError):
        welch_t_test([1, 2], [2, 3], alpha=1.0)


def test_welch_df_underflow_is_a_value_error():
    # both variances are positive, but the squares in the df formula underflow
    with pytest.raises(ValueError, match="their squares underflow"):
        welch_t_test([1, 1], [0.0, 2.08e-129])


@given(score_vectors, score_vectors)
@settings(max_examples=60, deadline=None)
def test_welch_antisymmetric(a, b):
    ab, ba = welch_t_test(a, b), welch_t_test(b, a)
    assert ab.t == pytest.approx(-ba.t, abs=1e-12)
    assert ab.p == pytest.approx(ba.p, abs=1e-12)
    assert ab.df == pytest.approx(ba.df, abs=1e-12)


@given(score_vectors, score_vectors, st.floats(0.5, 4.0), st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_welch_affine_invariant(a, b, scale, shift):
    """A common positive rescaling of both samples leaves t and p unchanged."""
    base = welch_t_test(a, b)
    moved = welch_t_test(
        [scale * v + shift for v in a], [scale * v + shift for v in b]
    )
    assert moved.t == pytest.approx(base.t, rel=1e-9, abs=1e-9)
    assert moved.p == pytest.approx(base.p, rel=1e-9, abs=1e-9)


def _rated_corpus() -> Corpus:
    rng = np.random.default_rng(42)
    stimuli = make_stimuli("c1", (90.0, 85.0, 80.0)) + make_stimuli("c2", (88.0, 78.0))
    ratings = []
    for stim in stimuli:
        base = 1.0 + stim.vmaf / 25.0
        for j in range(8):
            score = int(np.clip(round(base + rng.normal(0, 0.7)), 1, 5))
            ratings.append(DcrRating(stim.content_id, stim.recipe_id, f"o{j}", score))
    return Corpus(stimuli, tuple(ratings), ())


def test_classify_pairs_fields():
    corpus = _rated_corpus()
    pairs = classify_pairs(corpus, alpha=0.05, test="welch")
    assert len(pairs) == 4  # C(3,2) + C(2,2)
    for pair in pairs:
        x = corpus.stimulus(pair.content_id, pair.recipe_x).vmaf
        y = corpus.stimulus(pair.content_id, pair.recipe_y).vmaf
        assert pair.delta_obj == pytest.approx(abs(x - y))
        assert pair.sig in (0, 1)
        assert 0.0 <= pair.p_value <= 1.0
        assert pair.pair_id == f"{pair.content_id}:{pair.recipe_x}:{pair.recipe_y}"


def test_classify_pairs_come_out_sorted_whatever_the_row_order():
    # recipe "r10" sorts before "r2", and content "c10" before "c2"
    stimuli = (
        make_stimuli("c2", (90.0, 80.0, 70.0))
        + make_stimuli("c10", np.linspace(95.0, 45.0, 11))
        + make_stimuli("c1", (88.0, 78.0))
    )
    rng = np.random.default_rng(9)
    ratings = [
        DcrRating(stim.content_id, stim.recipe_id, f"o{j}", int(rng.integers(1, 6)))
        for stim in stimuli
        for j in range(4)
    ]
    shuffled = Corpus(
        tuple(stimuli[i] for i in rng.permutation(len(stimuli))),
        tuple(ratings[i] for i in rng.permutation(len(ratings))),
        (),
    )
    pairs = classify_pairs(shuffled)
    keys = [(p.content_id, p.recipe_x, p.recipe_y) for p in pairs]
    assert len(keys) == 3 + 55 + 1
    assert keys == sorted(keys)
    assert pairs == classify_pairs(Corpus(stimuli, tuple(ratings), ()))


def test_classify_pairs_paired_panel_mismatch():
    stimuli = make_stimuli("c1", (90.0, 80.0))
    ratings = tuple(
        [DcrRating("c1", "r0", f"o{j}", 5) for j in range(4)]
        + [DcrRating("c1", "r1", f"p{j}", 3) for j in range(4)]
    )
    corpus = Corpus(stimuli, ratings, ())
    with pytest.raises(ValueError, match="pair c1:r0:r1"):
        classify_pairs(corpus, test="paired")


def test_pairs_csv_round_trip(tmp_path):
    corpus = _rated_corpus()
    pairs = classify_pairs(corpus)
    path = tmp_path / "pairs.csv"
    write_csv_text(path, pairs_csv_text(pairs))
    assert read_pairs_csv(path) == pairs
    header = pairs_csv_text(pairs).splitlines()[0]
    assert header == "content_id,recipe_x,recipe_y,delta_obj,p_value,sig"


def test_pairs_csv_validation(tmp_path):
    bad = tmp_path / "pairs.csv"
    bad.write_text(
        "content_id,recipe_x,recipe_y,delta_obj,p_value,sig\nc1,a,b,5.0,0.2,2\n"
    )
    with pytest.raises(Exception):
        read_pairs_csv(bad)


def test_rated_pair_is_hashable():
    p = RatedPair("c1", "a", "b", 5.0, 0.01, 1)
    assert p in {p}


# DCR scores, and quarter steps in [-100, 100] for non-integer means
any_vectors = st.one_of(
    st.lists(st.integers(1, 5), min_size=2, max_size=12),
    st.lists(st.integers(-400, 400).map(lambda v: v / 4), min_size=2, max_size=12),
)


def _outcome(run_test, *args):
    """The test's result, or the text of the ValueError it raises."""
    try:
        return run_test(*args)
    except ValueError as exc:
        return str(exc)


def _assert_bit_equal(a, b) -> None:
    """Each public test equals the reference on ``a`` and ``b``; the paired
    test runs on their common length, and on the full vectors."""
    n = min(len(a), len(b))
    for test, run_test, args in (
        ("welch", welch_t_test, (a, b)),
        ("student", student_t_test, (a, b)),
        ("paired", paired_t_test, (a[:n], b[:n])),
        ("paired", paired_t_test, (a, b)),
    ):
        assert _outcome(run_test, *args) == _outcome(vector_test, *args, test)


@given(any_vectors, any_vectors)
@settings(max_examples=80, deadline=None)
def test_tests_from_statistics_bit_equal_vector_formulas(a, b):
    _assert_bit_equal(a, b)


@pytest.mark.parametrize(
    "a,b",
    [
        ([3, 3, 3], [3, 3, 3]),  # both constant, equal means
        ([3, 3, 3], [4, 4, 4, 4]),  # both constant, means apart
        ([2, 3, 4], [3, 3, 3]),  # one side constant, equal means
        ([1, 2, 3, 4], [5, 5, 5]),  # one side constant
        ([1, 5], [5, 1]),  # equal means, t = 0
        ([0.1, 0.2, 0.3], [0.3, 0.2, 0.1, 0.2]),
        ([3, 4, 5], [2, 3, 4]),  # constant paired differences
        ([1, 1], [0.0, 2.08e-129]),  # the Welch df's squares underflow
    ],
)
def test_tests_from_statistics_edge_cases(a, b):
    _assert_bit_equal(a, b)


def test_one_observation_is_rejected_by_the_tests():
    # checked before the paired test's equal-length rule
    for run_test in (welch_t_test, student_t_test, paired_t_test):
        with pytest.raises(ValueError, match="need >= 2 observations per side, got 1 and 3"):
            run_test([4], [1, 2, 3])


@pytest.mark.parametrize("test", ["welch", "student", "paired"])
def test_classify_matches_per_pair_vector_tests(test):
    corpus = _rated_corpus()
    run_test = {"welch": welch_t_test, "student": student_t_test, "paired": paired_t_test}[test]
    for pair in classify_pairs(corpus, test=test):
        result = run_test(
            [r.score for r in corpus.ratings_for(pair.content_id, pair.recipe_x)],
            [r.score for r in corpus.ratings_for(pair.content_id, pair.recipe_y)],
        )
        assert (pair.p_value, pair.sig) == (result.p, result.sig)


# -- the p-value's incomplete beta ------------------------------------------


def _mp_two_sided_p(t: float, df: float):
    """I_x(df/2, 1/2), x = df / (df + t**2), at 40 digits from the exact t and df."""
    with mpmath.workdps(40):
        t, df = mpmath.mpf(t), mpmath.mpf(df)
        return mpmath.betainc(df / 2, 0.5, 0, df / (df + t * t), regularized=True)


def _t_grid(df: float) -> np.ndarray:
    """t from 1e-6 to where p is near 1e-270, and both sides of the point
    x = (a + 1) / (a + 2.5), a = df/2, where the fraction swaps to 1 - x."""
    a = df / 2
    far = min(math.sqrt(df * math.expm1(min(620.0 / a, 700.0))), 1e150)
    swap = math.sqrt(df * 1.5 / (a + 1.0))
    return np.concatenate([np.geomspace(1e-6, far, 24),
                           swap * np.array([0.5, 0.9, 0.999, 0.99999, 1.00001, 1.001, 1.1, 2.0])])


@pytest.mark.parametrize("df", [1.0, 1.5, 2.7, 10.0, 46.3, 200.0, 1000.0, 1e4])
def test_two_sided_p_matches_mpmath(df):
    """Relative error at most 1e-12 up to df = 1000, and 2e-16 * df above: the
    continued fraction loses about df * eps near the swap point (1.3e-12 at
    df = 1e4, 6.4e-11 at df = 1e6), and in the far tail the error follows
    |ln p| * eps."""
    t = _t_grid(df)
    p = significance._two_sided_p(t, np.full(len(t), df))
    bound = 1e-12 if df <= 1000 else 2e-16 * df
    checked = 0
    for ti, pi in zip(t.tolist(), p.tolist()):
        ref = _mp_two_sided_p(ti, df)
        if ref > 1e-300:  # below it, a double holds few digits of p
            assert abs(pi - ref) <= bound * ref, (ti, pi, ref)
            checked += 1
    assert checked >= 30


def test_two_sided_p_degenerate_inputs_do_not_raise():
    t = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, 1.0, 1.0, np.nan, 0.0])
    df = np.array([5.0, 5.0, 5.0, 5.0, 0.0, -1.0, np.nan, 5.0, 0.0])
    with np.errstate(all="raise"):
        p = significance._two_sided_p(t, df)
    np.testing.assert_array_equal(p, [1.0, 1.0, 0.0, 0.0] + [np.nan] * 5)


def test_two_sided_p_converges_well_inside_its_pass_limit(monkeypatch):
    """At df = 1e6 every lane of the continued fraction has converged by pass
    70 of CF_PASSES: with the limit lowered to 70 not one bit moves."""
    t = np.concatenate([np.geomspace(1e-6, 40.0, 400), np.linspace(1.5, 2.0, 401)])
    df = np.full(len(t), 1e6)
    full = significance._two_sided_p(t, df)
    monkeypatch.setattr(significance, "CF_PASSES", 70)
    assert significance._two_sided_p(t, df).tobytes() == full.tobytes()


def _scipy_two_sided_p(t, df):
    with np.errstate(all="ignore"):
        return np.where(t == 0.0, 1.0, special.betainc(0.5 * df, 0.5, df / (df + t * t)))


@pytest.mark.parametrize("test", TESTS)
@pytest.mark.parametrize("spec", [
    SimSpec(),
    SimSpec(n_contents=6, observer_count=9, rating_noise_sd=2.0, seed=4),
], ids=["default-study", "noisy-panel"])
def test_classify_sig_bits_equal_scipy_betainc(spec, test, monkeypatch):
    """The package's p-values flip no sig bit of scipy's.  scipy, fed x
    rounded, is off by up to 1.1e-9 relative at df near 46, so the p-values
    may differ by that much."""
    corpus, _ = simulate_corpus(spec)
    ours = classify_pairs(corpus, test=test)
    monkeypatch.setattr(significance, "_two_sided_p", _scipy_two_sided_p)
    ref = classify_pairs(corpus, test=test)
    np.testing.assert_array_equal(ours.sig, ref.sig)
    np.testing.assert_allclose(ours.p_value, ref.p_value, rtol=2e-9, atol=0.0)
