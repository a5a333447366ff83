"""Sub-quality range decomposition and pair assignment."""

from __future__ import annotations

import logging

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jndmap.corpus import Corpus, Stimulus
from jndmap.ranges import (
    LOW_EDGE_EPSILON,
    MAX_FIXED_RANGES,
    assign_pairs,
    decompose_balanced,
    decompose_explicit,
    decompose_fixed,
    decomposition_from_json_dict,
    decomposition_to_json_dict,
    read_ranges_json,
)
from jndmap.significance import PairTable, RatedPair
from jndmap.tableio import write_json

from conftest import make_stimuli, range_of


def _corpus(vmafs, content="c1") -> Corpus:
    return Corpus(make_stimuli(content, vmafs), (), ())


def test_balanced_even_split():
    """Ten stimuli at VMAF 1..10 with k=2 cut exactly at the median value."""
    corpus = _corpus([float(v) for v in range(1, 11)])
    decomp = decompose_balanced(corpus, 2)
    assert decomp.bounds == [1.0 - LOW_EDGE_EPSILON, 5.0, 100.0]
    assert decomp.range_ids() == ["(1,5]", "(5,100]"]
    counts = [
        sum(1 for s in corpus.stimuli if r.lo < s.vmaf <= r.hi) for r in decomp.ranges
    ]
    assert counts == [5, 5]


def test_balanced_counts_never_too_uneven():
    rng = np.random.default_rng(3)
    for trial in range(20):
        vmafs = np.round(rng.uniform(10, 99, size=40), 2)
        vmafs = np.unique(vmafs)
        corpus = _corpus(vmafs.tolist(), content=f"c{trial}")
        k = int(rng.integers(2, 6))
        decomp = decompose_balanced(corpus, k)
        counts = [
            sum(1 for v in vmafs if r.lo < v <= r.hi) for r in decomp.ranges
        ]
        assert sum(counts) == len(vmafs)
        assert min(counts) >= 1
        # Quantile cuts keep the largest bucket within one tie-group of even.
        assert max(counts) <= int(np.ceil(len(vmafs) / k)) + 1


def test_balanced_needs_enough_distinct_values():
    corpus = _corpus([50.0, 50.0 + 1e-12, 60.0][:2])
    with pytest.raises(ValueError):
        decompose_balanced(corpus, 3)


@pytest.mark.parametrize(
    ("vmafs", "message"),
    [
        # the two upper quantiles both land on the tied 20s
        ([10.0, 20.0, 20.0, 20.0, 20.0, 30.0],
         r"^tied VMAF values prevent 3 non-empty balanced ranges \(boundary collision at 20.0\)$"),
        # the top quantile lands on the largest value, leaving (30, 100] empty
        ([10.0, 20.0, 30.0, 30.0, 30.0, 30.0],
         r"^tied VMAF values leave balanced range \(30.0,100.0\] without stimuli$"),
        # ... or on 100 itself, which collides with the top bound
        ([10.0, 20.0, 30.0, 100.0, 100.0, 100.0],
         r"^tied VMAF values prevent 3 non-empty balanced ranges \(boundary collision at 100.0\)$"),
    ],
    ids=["collision", "empty-top", "collision-at-100"],
)
def test_balanced_ties_that_leave_a_range_empty_are_rejected(vmafs, message):
    with pytest.raises(ValueError, match=message):
        decompose_balanced(_corpus(vmafs), 3)


def _balanced_loop(corpus, k, balance):
    """The balanced bounds as a loop over the stimuli sorted by VMAF, in
    corpus order within a tie: the oracle of ``decompose_balanced``."""
    stimuli = sorted(corpus.stimuli, key=lambda s: s.vmaf)
    if not stimuli:
        raise ValueError("corpus has no stimuli")
    values = [s.vmaf for s in stimuli]
    if len(set(values)) < k:
        raise ValueError(f"need at least {k} distinct VMAF values, got {len(set(values))}")
    if balance == "stimuli":
        weights = [1.0] * len(values)
    else:
        counts = {c: len(corpus.stimuli_for_content(c)) for c in corpus.contents()}
        weights = [float(counts[s.content_id] - 1) for s in stimuli]
    total = sum(weights)
    cuts = []
    acc = 0.0
    target_idx = 1
    for value, weight in zip(values, weights):
        acc += weight
        while target_idx < k and acc >= target_idx * total / k - 1e-12:
            cuts.append(value)
            target_idx += 1
    bounds = [values[0] - LOW_EDGE_EPSILON, *cuts[: k - 1], 100.0]
    for lo, hi in zip(bounds, bounds[1:]):
        if not lo < hi:
            raise ValueError(f"tied VMAF values prevent {k} non-empty balanced ranges "
                             f"(boundary collision at {lo})")
        if not any(lo < v <= hi for v in values):
            raise ValueError(f"tied VMAF values leave balanced range ({lo},{hi}] without stimuli")
    return bounds


@st.composite
def tied_corpora(draw):
    """Up to six contents of one to eight stimuli, their VMAFs drawn from
    six values, listed in a drawn order."""
    pool = st.sampled_from((0.0, 12.5, 40.0, 40.0 + 1e-9, 77.7, 100.0))
    stimuli = [
        Stimulus(f"c{c}", f"r{r}", "1080p", r, draw(pool))
        for c, size in enumerate(draw(st.lists(st.integers(1, 8), max_size=6)))
        for r in range(size)
    ]
    return Corpus(tuple(draw(st.permutations(stimuli))), (), ())


@settings(max_examples=300, deadline=None)
@given(tied_corpora(), st.integers(2, 8), st.sampled_from(("stimuli", "pairs")))
def test_balanced_bounds_match_the_per_stimulus_loop(corpus, k, balance):
    """Sorted VMAFs, a cumulative sum and one search give the loop's bounds,
    or its error, on heavily tied values with either balance."""
    try:
        expected = _balanced_loop(corpus, k, balance)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            decompose_balanced(corpus, k, balance)
        assert str(raised.value) == str(exc)
    else:
        assert decompose_balanced(corpus, k, balance).bounds == expected


def test_balanced_top_range_reaches_100():
    corpus = _corpus([20.0, 40.0, 60.0, 80.0])
    decomp = decompose_balanced(corpus, 2)
    assert decomp.coverage[1] == 100.0


def test_explicit_ids_match_bounds():
    decomp = decompose_explicit([30.0, 79.0, 86.0, 90.0, 95.0, 100.0])
    assert decomp.range_ids() == [
        "(30,79]",
        "(79,86]",
        "(86,90]",
        "(90,95]",
        "(95,100]",
    ]
    assert decomp.strategy == "explicit"


def test_explicit_rejects_bad_bounds():
    with pytest.raises(ValueError):
        decompose_explicit([50.0])
    with pytest.raises(ValueError):
        decompose_explicit([50.0, 50.0])
    with pytest.raises(ValueError):
        decompose_explicit([60.0, 50.0, 70.0])


def test_fixed_width_covers_scale():
    decomp = decompose_fixed(5.0)
    assert len(decomp.ranges) == 20
    assert decomp.bounds[0] == 0.0
    assert decomp.bounds[-1] == 100.0
    # Non-divisor width: the last edge is still forced onto 100.
    ragged = decompose_fixed(30.0)
    assert len(ragged.ranges) == 4
    assert ragged.bounds[-1] == 100.0


def test_fixed_width_makes_at_most_max_fixed_ranges():
    assert len(decompose_fixed(0.1).ranges) == MAX_FIXED_RANGES == 1000
    with pytest.raises(ValueError, match=r"^width: 0.0999 makes 1002 ranges, more than 1000$"):
        decompose_fixed(0.0999)


def test_fixed_width_warns_on_empty_ranges(caplog):
    # 0 lies below (0, 10] (lower edge exclusive); 90 lies in (80, 90] (upper
    # edge inclusive)
    corpus = _corpus([0.0, 90.0, 95.0, 100.0])
    with caplog.at_level(logging.WARNING, logger="jndmap.ranges"):
        decompose_fixed(10.0, corpus)
    # the first and last three of the 8 empty ranges
    shown = "(0,10], (10,20], (20,30], ..., (50,60], (60,70], (70,80]"
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.WARNING, f"8 fixed-width range(s) hold no stimuli: {shown}")
    ]


def test_fixed_width_warning_is_one_short_line_at_any_width(caplog):
    # at width 0.1 all but 3 of the 1000 ranges are empty; listing them all
    # made one line of thousands of characters
    corpus = _corpus([0.0, 90.0, 95.0, 100.0])
    with caplog.at_level(logging.WARNING, logger="jndmap.ranges"):
        decompose_fixed(0.1, corpus)
    (record,) = caplog.records
    assert record.getMessage() == (
        "997 fixed-width range(s) hold no stimuli: (0,0.1], (0.1,0.2], (0.2,0.3], ..., "
        "(99.6,99.7], (99.7,99.8], (99.8,99.9]"
    )


@st.composite
def bounds_and_values(draw) -> tuple[list[float], list[float]]:
    """Increasing bounds, and values on the bounds, one ulp either side of
    them, anywhere on [-10, 110], infinite or NaN."""
    bounds = sorted(b / 10.0 for b in draw(st.sets(st.integers(0, 1000), min_size=2, max_size=6)))
    near = st.sampled_from(bounds).flatmap(
        lambda b: st.sampled_from((b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))))
    values = draw(st.lists(
        st.one_of(near, st.floats(-10.0, 110.0), st.sampled_from((math.nan, math.inf, -math.inf))),
        max_size=12))
    return bounds, values


@settings(max_examples=300, deadline=None)
@given(bounds_and_values())
def test_locate_matches_a_loop_over_the_ranges(study):
    bounds, values = study
    decomp = decompose_explicit(bounds)
    index, outside = decomp.locate(values)
    assert (index.tolist(), outside.tolist()) == (
        [range_of(decomp, v)[0] for v in values], [range_of(decomp, v)[1] for v in values]
    )
    for v in values:
        assert tuple(map(int, decomp.locate(v))) == range_of(decomp, v)


def test_duplicate_formatted_ids_get_disambiguated():
    # Both inner bounds round to "50" at six significant digits.
    decomp = decompose_explicit([40.0, 50.0000001, 50.0000002, 60.0])
    ids = decomp.range_ids()
    assert len(set(ids)) == 3


def _pairs_and_corpus():
    from jndmap.corpus import Stimulus

    vm = {"a": 92.0, "b": 88.0, "c": 78.0, "d": 60.0}
    corpus = Corpus(
        tuple(
            Stimulus("c1", name, "1080p", i + 1, vmaf)
            for i, (name, vmaf) in enumerate(vm.items())
        ),
        (),
        (),
    )
    pairs = PairTable.of(RatedPair(*row) for row in (
        ("c1", "a", "b", 4.0, 0.2, 0),   # both endpoints in (85,95]
        ("c1", "a", "c", 14.0, 0.01, 1),  # straddles two ranges
        ("c1", "c", "d", 18.0, 0.001, 1),  # straddles two ranges
    ))
    return corpus, pairs


def test_assign_pairs_membership():
    corpus, pairs = _pairs_and_corpus()
    decomp = assign_pairs(pairs, decompose_explicit([55.0, 85.0, 95.0]), corpus)
    low, high = decomp.ranges
    assert set(high.pair_refs) == {"c1:a:b", "c1:a:c"}
    assert set(low.pair_refs) == {"c1:a:c", "c1:c:d"}
    # A straddling pair is counted once per touched range.
    total_refs = sum(len(r.pair_refs) for r in decomp.ranges)
    assert len(pairs) <= total_refs <= 2 * len(pairs)


def test_assign_pairs_outside_coverage():
    corpus, pairs = _pairs_and_corpus()
    with pytest.raises(ValueError):
        assign_pairs(pairs, decompose_explicit([85.0, 95.0]), corpus)


def test_json_round_trip(tmp_path):
    corpus, pairs = _pairs_and_corpus()
    decomp = assign_pairs(pairs, decompose_explicit([55.0, 85.0, 95.0]), corpus)
    data = decomposition_to_json_dict(decomp)
    assert decomposition_from_json_dict(data) == decomp
    path = tmp_path / "ranges.json"
    write_json(path, data)
    assert read_ranges_json(path) == decomp


def test_contiguity_enforced():
    from jndmap.ranges import Decomposition, SubQualityRange

    a = SubQualityRange(0.0, 50.0, "(0,50]", ())
    gap = SubQualityRange(55.0, 100.0, "(55,100]", ())
    with pytest.raises(ValueError, match="contiguous"):
        Decomposition("explicit", (a, gap))
