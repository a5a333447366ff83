"""Corpus construction, validation, and CSV round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from jndmap import tableio
from jndmap.corpus import (
    VMAF_TABLE,
    Corpus,
    DcrRating,
    JndTruth,
    Recipe,
    Stimulus,
    load_corpus,
    ratings_csv_text,
    save_corpus,
    truth_csv_text,
    vmaf_csv_text,
)
from jndmap.errors import CorpusError

from conftest import make_stimuli


def _corpus_with_ratings() -> Corpus:
    stimuli = make_stimuli("c1", (90.0, 80.0)) + make_stimuli("c2", (85.0, 75.0))
    ratings = tuple(
        DcrRating(s.content_id, s.recipe_id, obs, score)
        for s in stimuli
        for obs, score in (("oA", 5), ("oB", 4), ("oC", 3))
    )
    truths = (JndTruth("c1", "r0", "dec", "r1", 1),)
    return Corpus(stimuli, ratings, truths)


def test_lookups():
    corpus = _corpus_with_ratings()
    assert corpus.contents() == ["c1", "c2"]
    assert corpus.stimulus("c1", "r0").vmaf == 90.0
    assert corpus.has_stimulus("c2", "r1")
    assert not corpus.has_stimulus("c2", "r9")
    assert [s.recipe_id for s in corpus.stimuli_for_content("c1")] == ["r0", "r1"]
    assert corpus.observers() == ["oA", "oB", "oC"]
    assert len(corpus.ratings_for("c1", "r0")) == 3


def _unordered_corpus() -> Corpus:
    """Three contents in shuffled stimulus order; c2/r1 and all of c3 unrated."""
    stimuli = (
        make_stimuli("c2", (80.0, 70.0, 60.0))
        + make_stimuli("c1", (90.0, 85.0))
        + make_stimuli("c3", (50.0,))
    )
    stimuli = tuple(stimuli[i] for i in (4, 0, 5, 2, 1, 3))
    ratings = tuple(
        DcrRating(s.content_id, s.recipe_id, obs, 3)
        for s in reversed(stimuli)
        if s.content_id != "c3" and (s.content_id, s.recipe_id) != ("c2", "r1")
        for obs in ("oB", "oA")
    )
    return Corpus(stimuli, ratings, ())


def test_content_indexes_match_scans():
    corpus = _unordered_corpus()
    stimuli = corpus.stimuli
    assert corpus.contents() == sorted({s.content_id for s in stimuli}) == ["c1", "c2", "c3"]
    for content_id in corpus.contents():
        scanned = [s for s in stimuli if s.content_id == content_id]
        assert corpus.stimuli_for_content(content_id) == sorted(scanned, key=lambda s: s.recipe_id)
        rated = [s.recipe_id for s in scanned if corpus.ratings_for(content_id, s.recipe_id)]
        assert corpus.rated_recipes(content_id) == sorted(rated)
    assert corpus.rated_recipes("c2") == ["r0", "r2"]
    assert corpus.rated_recipes("c3") == []


def test_index_accessors_return_copies():
    corpus = _unordered_corpus()
    for accessor in (
        corpus.contents,
        lambda: corpus.stimuli_for_content("c2"),
        lambda: corpus.rated_recipes("c2"),
    ):
        first = accessor()
        expected = list(first)
        first.reverse()
        first.append(first[0])
        assert accessor() == expected


@pytest.mark.parametrize("accessor", ["stimuli_for_content", "rated_recipes"])
def test_unknown_content_raises_key_error(accessor):
    with pytest.raises(KeyError, match="unknown content 'c9'"):
        getattr(_unordered_corpus(), accessor)("c9")


def test_ratings_for_sorted_by_observer():
    stimuli = make_stimuli("c1", (90.0,))
    ratings = (
        DcrRating("c1", "r0", "zz", 2),
        DcrRating("c1", "r0", "aa", 5),
        DcrRating("c1", "r0", "mm", 3),
    )
    corpus = Corpus(stimuli, ratings, ())
    ratings = corpus.ratings_for("c1", "r0")
    assert [(r.observer_id, r.score) for r in ratings] == [("aa", 5), ("mm", 3), ("zz", 2)]


def test_duplicate_stimulus_rejected():
    stim = make_stimuli("c1", (90.0,))
    with pytest.raises(CorpusError, match="duplicate"):
        Corpus(stim + stim, (), ())


def test_duplicate_rating_rejected():
    stimuli = make_stimuli("c1", (90.0,))
    dup = DcrRating("c1", "r0", "oA", 4)
    with pytest.raises(CorpusError, match="duplicate"):
        Corpus(stimuli, (dup, dup), ())


def test_dangling_rating_rejected():
    stimuli = make_stimuli("c1", (90.0,))
    with pytest.raises(CorpusError):
        Corpus(stimuli, (DcrRating("c1", "r9", "oA", 4),), ())


def test_truth_direction_consistency():
    # r0 has the higher VMAF, so a "dec" truth must point at a lower rendition.
    stimuli = make_stimuli("c1", (90.0, 80.0))
    Corpus(stimuli, (), (JndTruth("c1", "r0", "dec", "r1", 1),))
    Corpus(stimuli, (), (JndTruth("c1", "r1", "inc", "r0", 1),))
    with pytest.raises(CorpusError):
        Corpus(stimuli, (), (JndTruth("c1", "r1", "dec", "r0", 1),))
    with pytest.raises(CorpusError):
        Corpus(stimuli, (), (JndTruth("c1", "r0", "inc", "r1", 1),))


def test_truth_validation():
    stimuli = make_stimuli("c1", (90.0, 80.0))
    with pytest.raises(CorpusError):
        Corpus(stimuli, (), (JndTruth("c1", "r0", "down", "r1", 1),))
    with pytest.raises(CorpusError):
        Corpus(stimuli, (), (JndTruth("c1", "r0", "dec", "r1", 0),))
    with pytest.raises(CorpusError):
        Corpus(stimuli, (), (JndTruth("c1", "r0", "dec", "r9", 1),))


def test_csv_round_trip(tmp_path):
    corpus = _corpus_with_ratings()
    paths = save_corpus(corpus, tmp_path)
    loaded = load_corpus(paths["vmaf_scores"], paths["dcr_ratings"], paths["jnd_truth"])
    assert loaded.stimuli == corpus.stimuli
    assert loaded.ratings == corpus.ratings
    assert loaded.truths == corpus.truths


def test_ratings_table_optional(tmp_path):
    corpus = Corpus(make_stimuli("c1", (90.0, 80.0)), (), ())
    (tmp_path / "vmaf.csv").write_text(vmaf_csv_text(corpus))
    loaded = load_corpus(tmp_path / "vmaf.csv", None)
    assert loaded.ratings == ()
    assert len(loaded.stimuli) == 2


def test_load_rejects_out_of_scale_score(tmp_path):
    corpus = _corpus_with_ratings()
    paths = save_corpus(corpus, tmp_path)
    text = ratings_csv_text(corpus).replace("oA,5", "oA,6", 1)
    paths["dcr_ratings"].write_text(text)
    with pytest.raises(CorpusError, match="line"):
        load_corpus(paths["vmaf_scores"], paths["dcr_ratings"])


def test_load_rejects_out_of_range_vmaf(tmp_path):
    (tmp_path / "vmaf.csv").write_text(
        "content_id,recipe_id,resolution,level,vmaf\nc1,r0,1080p,1,100.5\n"
    )
    with pytest.raises(CorpusError, match="vmaf"):
        load_corpus(tmp_path / "vmaf.csv", None)


def test_load_rejects_wrong_header(tmp_path):
    (tmp_path / "vmaf.csv").write_text("content,recipe,res,lvl,score\n")
    with pytest.raises(CorpusError, match="header"):
        load_corpus(tmp_path / "vmaf.csv", None)


def test_load_reports_line_of_bad_cell(tmp_path):
    (tmp_path / "vmaf.csv").write_text(
        "content_id,recipe_id,resolution,level,vmaf\n"
        "c1,r0,1080p,1,90.0\n"
        "c1,r1,1080p,2,not-a-number\n"
    )
    with pytest.raises(CorpusError) as err:
        load_corpus(tmp_path / "vmaf.csv", None)
    assert "line 3" in str(err.value)


def test_line_numbers_count_the_line_breaks_in_quoted_cells(tmp_path):
    (tmp_path / "vmaf.csv").write_text(
        "content_id,recipe_id,resolution,level,vmaf\n"
        'c1,"r\n0",1080p,1,90.0\n'
        "c1,r1,1080p,2,not-a-number\n"
    )
    with pytest.raises(CorpusError, match="^vmaf.csv:line 4:vmaf: "):
        load_corpus(tmp_path / "vmaf.csv", None)


def test_read_table_names_the_first_bad_row_in_row_order(tmp_path):
    table = tmp_path / "vmaf.csv"
    header = "content_id,recipe_id,resolution,level,vmaf\n"
    table.write_text(header + '\nc1,"r\n0",1080p,1,90.0\nc1,r1,1080p,2,90.0\n\n')
    read = tableio.read_table(table, VMAF_TABLE)
    assert read.lines == [3, 5]
    assert list(read.rows()) == [("c1", "r\n0", "1080p", 1, 90.0), ("c1", "r1", "1080p", 2, 90.0)]
    assert read.error("x", 1, "level").args[0] == "vmaf.csv:line 5:level: x"
    # columns are parsed one at a time, but the fault named is the first in row order
    table.write_text(header + "c1,r0,1080p,1,101.0\n,r1,1080p,2,95.0\n")
    with pytest.raises(CorpusError, match="^vmaf.csv:line 2:vmaf: 101.0 outside"):
        tableio.read_table(table, VMAF_TABLE)
    table.write_text(header + "c1,r0,1080p,x,101.0\nc1,r1,1080p\n")
    with pytest.raises(CorpusError, match="^vmaf.csv:line 2:level: "):
        tableio.read_table(table, VMAF_TABLE)
    table.write_text(header + "c1,r0,1080p\nc1,r0,1080p,x,101.0\n")
    with pytest.raises(CorpusError, match="^vmaf.csv:line 2: expected 5 fields, got 3"):
        tableio.read_table(table, VMAF_TABLE)


def test_blank_lines_tolerated(tmp_path):
    (tmp_path / "vmaf.csv").write_text(
        "content_id,recipe_id,resolution,level,vmaf\n\nc1,r0,1080p,1,90.0\n\n"
    )
    loaded = load_corpus(tmp_path / "vmaf.csv", None)
    assert len(loaded.stimuli) == 1


def test_truth_csv_includes_order():
    corpus = _corpus_with_ratings()
    assert truth_csv_text(corpus).splitlines()[1] == "c1,r0,dec,r1,1"


def test_numpy_scalars_are_written_as_numbers():
    text = tableio.rows_to_csv_text(["x", "n"], [(np.float64(0.1), np.int64(3))])
    assert text == "x,n\n0.1,3\n"
