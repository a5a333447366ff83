"""Sub-quality range decomposition and pair assignment."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from jndmap.corpus import Corpus
from jndmap.ranges import (
    LOW_EDGE_EPSILON,
    assign_pairs,
    decompose_balanced,
    decompose_explicit,
    decompose_fixed,
    decomposition_from_json_dict,
    decomposition_to_json_dict,
    read_ranges_json,
)
from jndmap.significance import RatedPair
from jndmap.tableio import write_json

from conftest import make_stimuli


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


def test_fixed_width_warns_on_empty_ranges(caplog):
    corpus = _corpus([91.0, 95.0, 99.0])
    with caplog.at_level(logging.WARNING, logger="jndmap.ranges"):
        decompose_fixed(10.0, corpus)
    assert any(
        r.levelno == logging.WARNING and "hold no stimuli" in r.getMessage()
        for r in caplog.records
    )


def test_find_range_boundaries():
    decomp = decompose_explicit([30.0, 79.0, 86.0])
    assert decomp.find_range(79.0).range_id == "(30,79]"  # upper edge inclusive
    assert decomp.find_range(79.0001).range_id == "(79,86]"
    with pytest.raises(KeyError):
        decomp.find_range(30.0)  # lower edge exclusive
    with pytest.raises(KeyError):
        decomp.find_range(86.5)


def test_duplicate_formatted_ids_get_disambiguated():
    # Both inner bounds round to "50" at six significant digits.
    decomp = decompose_explicit([40.0, 50.0000001, 50.0000002, 60.0])
    ids = decomp.range_ids()
    assert len(set(ids)) == 3


def _pairs_and_corpus():
    from jndmap.corpus import Recipe, Stimulus

    vm = {"a": 92.0, "b": 88.0, "c": 78.0, "d": 60.0}
    corpus = Corpus(
        tuple(
            Stimulus("c1", Recipe(name, "1080p", i + 1), vmaf)
            for i, (name, vmaf) in enumerate(vm.items())
        ),
        (),
        (),
    )
    pairs = [
        RatedPair("c1", "a", "b", 4.0, 0.2, 0),   # both endpoints in (85,95]
        RatedPair("c1", "a", "c", 14.0, 0.01, 1),  # straddles two ranges
        RatedPair("c1", "c", "d", 18.0, 0.001, 1),  # straddles two ranges
    ]
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
