"""The columnar pair table's array programs against per-pair oracles.

Random small corpora and pair tables with rows in random order, with pairs
of unknown stimuli and random explicit bounds that need not cover every
stimulus; a table that lists a pair twice is refused when it is built.
``assign_pairs`` must give each range the refs a per-endpoint loop over the
ranges gives it, or fail at the same endpoint; each range's co-distribution
and the pairwise GLM's inputs must equal a loop over the pairs the range
references.
"""

from __future__ import annotations

import bisect
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jndmap import mapping
from jndmap.corpus import Corpus, Recipe, Stimulus
from jndmap.errors import CorpusError, FitError
from jndmap.mapping import build_codistribution, fit_all
from jndmap.ranges import assign_pairs, decompose_explicit
from jndmap.significance import PairTable

from conftest import range_of

# ids whose pair ids sort apart from their (content, recipe) tuples
CONTENTS = ("c1", "c1.5", "c10", "c2")
RECIPES = ("r1", "r10", "r2", "r-3", "x")
VMAFS = st.one_of(st.sampled_from((0.0, 20.0, 35.5, 50.0, 80.0, 100.0)), st.floats(0.0, 100.0))


@st.composite
def studies(draw) -> tuple[Corpus, PairTable, list[float]]:
    """A corpus, pairs of its stimuli (and maybe of an unknown one) in random
    order, and increasing explicit bounds, which cover every stimulus three
    times in four.  Now and then a pair is listed again, its recipes maybe
    swapped, and the table must refuse it at its second copy."""
    stimuli = []
    for content_id in draw(st.lists(st.sampled_from(CONTENTS), min_size=1, unique=True)):
        recipes = draw(st.lists(st.sampled_from(RECIPES), min_size=2, unique=True))
        stimuli += [Stimulus(content_id, Recipe(r, "1080p", 1), draw(VMAFS)) for r in recipes]
    corpus = Corpus(tuple(stimuli), (), ())
    candidates = [
        (x.content_id, *sorted((x.recipe_id, y.recipe_id)))
        for x, y in itertools.combinations(stimuli, 2)
        if x.content_id == y.content_id
    ]
    keys = draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    if draw(st.integers(0, 7)) == 0:
        keys.append((stimuli[0].content_id, stimuli[0].recipe_id, "zz"))  # an unknown stimulus
    rows = [(*key, draw(st.floats(0.0, 60.0)), 0.5, draw(st.integers(0, 1))) for key in keys]
    rows = draw(st.permutations(rows))
    if draw(st.integers(0, 7)) == 0:
        first = draw(st.integers(0, len(rows) - 1))
        content_id, x, y, *values = rows[first]
        at = draw(st.integers(0, len(rows)))
        again = (content_id, *draw(st.permutations((x, y))), *values)
        with pytest.raises(CorpusError, match="duplicate pair ") as caught:
            PairTable(*zip(*rows[:at], again, *rows[at:]))
        assert caught.value.row == ("pairs", first + 1 if at <= first else at)
    pairs = PairTable(*zip(*rows))
    # tenths of a VMAF unit or a stimulus's VMAF, so bounds often fall on one
    edges = st.one_of(st.integers(0, 1000).map(lambda b: b / 10.0),
                      st.sampled_from([s.vmaf for s in stimuli]))
    bounds = sorted(draw(st.sets(edges, min_size=2, max_size=5)))
    if draw(st.integers(0, 3)):
        bounds = sorted({-1.0, *bounds[1:-1], 100.0})
    return corpus, pairs, bounds


def _oracle_refs(pairs, decomp, corpus) -> dict[str, tuple[str, ...]]:
    """Each range's pair ids by a loop over the endpoints: ``range_of`` each
    one's VMAF.  Raises as ``assign_pairs`` must, at the first endpoint that
    is unknown (KeyError) or outside the coverage (ValueError)."""
    refs: dict[str, set[str]] = {r.range_id: set() for r in decomp.ranges}
    for pair in pairs:
        for recipe in (pair.recipe_x, pair.recipe_y):
            vmaf = corpus.stimulus(pair.content_id, recipe).vmaf
            index, outside = range_of(decomp, vmaf)
            if outside:
                raise ValueError(f"stimulus {pair.content_id}/{recipe} (vmaf {vmaf}) ")
            refs[decomp.ranges[index].range_id].add(pair.pair_id)
    return {range_id: tuple(sorted(ids)) for range_id, ids in refs.items()}


def _oracle_codistribution(srange, pairs, bin_width):
    """Bin edges, f_dif and f_sim by a loop over the referenced pairs."""
    listed = [p for p in pairs if p.pair_id in set(srange.pair_refs)]
    top = math.ceil(max(p.delta_obj for p in listed))
    n_bins = max(1, math.ceil(top / bin_width)) if top > 0 else 1
    edges = [float(i) * bin_width for i in range(n_bins + 1)]
    counts = {0: [0] * n_bins, 1: [0] * n_bins}
    for pair in listed:
        counts[pair.sig][min(bisect.bisect_right(edges, pair.delta_obj) - 1, n_bins - 1)] += 1
    return tuple(edges), tuple(counts[1]), tuple(counts[0])


@settings(max_examples=200, deadline=None)
@given(studies(), st.sampled_from((0.5, 2.0, 3.0)))
def test_assign_codistribution_and_glm_inputs_match_per_pair_loops(study, bin_width):
    corpus, pairs, bounds = study
    decomp = decompose_explicit(bounds)
    try:
        expected = _oracle_refs(pairs, decomp, corpus)
    except (KeyError, ValueError) as exc:
        with pytest.raises(type(exc), match=str(exc).split(" (")[0]):
            assign_pairs(pairs, decomp, corpus)
        return
    assigned = assign_pairs(pairs, decomp, corpus)
    assert {r.range_id: r.pair_refs for r in assigned.ranges} == expected

    glm_inputs = []

    def record(spec, problems):
        glm_inputs.extend(
            list(zip(delta.tolist(), sig.tolist())) for _, (delta, sig) in problems
        )
        return [FitError("recorded")] * len(problems)

    expected_glm = []
    for srange in assigned.ranges:
        if not srange.pair_refs:
            continue
        oracle = _oracle_codistribution(srange, pairs, bin_width)
        cd = build_codistribution(srange, pairs, bin_width)
        assert (cd.bin_edges, cd.f_dif, cd.f_sim) == oracle
        refs = set(srange.pair_refs)
        expected_glm.append([(p.delta_obj, p.sig) for p in pairs if p.pair_id in refs])
    mp = pytest.MonkeyPatch()
    with mp.context() as patch:
        patch.setattr(mapping, "_fit_family", record)
        fit_all(assigned, pairs, families=("glm",), bin_width=bin_width)
    assert glm_inputs == expected_glm


def test_endpoint_codes_are_looked_up_by_id_in_another_corpus():
    """A table finds its endpoints' codes by id, in any corpus."""
    stimuli = tuple(
        Stimulus(c, Recipe(r, "1080p", 1), v)
        for c, recipes in (("c2", ("r2", "r10")), ("c1", ("r1", "r10", "r2")))
        for r, v in zip(recipes, (90.0, 70.0, 50.0))
    )
    corpus = Corpus(stimuli, (), ())
    table = PairTable(["c1", "c1", "c2"], ["r1", "r10", "r10"], ["r10", "r2", "r2"],
                      [20.0, 20.0, 20.0], [0.5] * 3, [0, 1, 0])
    codes = table.endpoint_codes(corpus.ratings)
    assert codes.tolist() == [
        [corpus.code(c, x), corpus.code(c, y)]
        for c, x, y in zip(table.content_id, table.recipe_x, table.recipe_y)
    ]
    # one more stimulus sorts first and moves every code by one
    shifted = Corpus((Stimulus("c0", Recipe("r1", "1080p", 1), 60.0), *stimuli), (), ())
    assert table.endpoint_codes(shifted.ratings).tolist() == (codes + 1).tolist()


@pytest.mark.parametrize("swap", [False, True], ids=["same-order", "recipes-swapped"])
def test_a_pair_listed_twice_is_refused_at_its_second_copy(swap):
    again = ("r10", "r1") if swap else ("r1", "r10")
    columns = (["c1", "c2", "c1", "c1"], ["r1", "r1", "r2", again[0]],
               ["r10", "r10", "r10", again[1]], [5.0] * 4, [0.5] * 4, [0, 1, 0, 1])
    with pytest.raises(CorpusError, match=f"^duplicate pair c1:{again[0]}:{again[1]}$") as caught:
        PairTable(*columns)
    assert caught.value.row == ("pairs", 3)
    # the same recipes in another content, or another recipe pair, are other pairs
    assert len(PairTable(*(column[:3] for column in columns))) == 3
