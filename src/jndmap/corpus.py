"""Data model and CSV ingestion for stimuli, DCR ratings, and JND ground truth.

A *stimulus* is one encoded rendition of a content, identified by
``(content_id, recipe_id)`` and carrying a VMAF score in [0, 100].  DCR
ratings are 5-level degradation-category scores (5 = imperceptible) given by
named observers.  Optional ground-truth rows record, per content and
direction, which rendition sits one (or more) just-noticeable difference away
from an anchor rendition.  Each input table is declared once, as the record
type of its row: :class:`Stimulus` of ``vmaf_scores.csv``,
:class:`DcrRating` of ``dcr_ratings.csv`` and :class:`JndTruth` of
``jnd_truth.csv``.  A record's fields, in order, are the table's columns, and
each carries its column's cell rule (:func:`jndmap.tableio.cell`).

The ratings are held as one columnar table, :class:`RatingTable`: a stimulus
code, an observer code and a score per rating, in numpy arrays sorted once by
(stimulus, observer).  The table also codes the stimuli: a stimulus's code is
its index among the corpus's stimuli sorted by ``(content_id, recipe_id)``, so
each content's stimuli have consecutive codes; an observer's code is its index
among the sorted observer ids.  CSR-style offsets mark each stimulus's block of ratings.  Screening,
classification and pair assignment run as array programs over this table.
``corpus.ratings`` is the table.  It is built from the four rating columns
as :class:`jndmap.tableio.Column` objects: each column's distinct values and
one code per rating.  A rating's stimulus and observer codes are looked up
from the distinct values with numpy, so the table takes no Python step per
rating.  :func:`load_corpus` gives it the columns as
:func:`jndmap.tableio.read_table` codes them while parsing
``dcr_ratings.csv``, the simulator the columns it draws, and
:meth:`RatingTable.in_input_order` gives them back in input order, as
:class:`DcrRating` columns, for the writer, so none of these builds a
:class:`DcrRating` per rating.  Two object forms stay, because the benchmark
under ``perfbench/`` reads them: iterating or indexing the table builds the
:class:`DcrRating` objects from its columns, once, and a :class:`Corpus` may
be given its ratings as such objects, whose fields are coded as any columns
are.

Ingestion is a pure function of the file bytes: loading the same files twice
and re-serializing yields identical text.
"""

from __future__ import annotations

import copy
import logging
import math
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress, count
from pathlib import Path

import numpy as np

from . import tableio
from .errors import CorpusError

log = logging.getLogger(__name__)

DIRECTIONS = ("inc", "dec")


@dataclass(frozen=True)
class Stimulus:
    """One encoded rendition of a content, a row of ``vmaf_scores.csv``;
    ``resolution`` and ``level`` are carried through for reporting but never
    interpreted."""

    content_id: str = tableio.cell(tableio.ident)
    recipe_id: str = tableio.cell(tableio.ident)
    resolution: str = tableio.cell(tableio.text)
    level: int = tableio.cell(int)
    vmaf: float = tableio.cell(tableio.within(tableio.number, 0.0, 100.0))


@dataclass(frozen=True)
class DcrRating:
    """One row of ``dcr_ratings.csv``."""

    content_id: str = tableio.cell(tableio.ident)
    recipe_id: str = tableio.cell(tableio.ident)
    observer_id: str = tableio.cell(tableio.text)
    score: int = tableio.cell(tableio.within(int, 1, 5))


@dataclass(frozen=True)
class JndTruth:
    """One row of ``jnd_truth.csv``."""

    content_id: str = tableio.cell(tableio.ident)
    anchor_recipe_id: str = tableio.cell(tableio.ident)
    direction: str = tableio.cell(tableio.one_of(*DIRECTIONS))  # "inc" | "dec"
    jnd_recipe_id: str = tableio.cell(tableio.ident)
    order: int = tableio.cell(tableio.within(int, 1, math.inf))


class RatingTable(tableio.RowSequence[DcrRating]):
    """The stimulus codes of a corpus, and its DCR ratings as columns sorted
    by (stimulus, observer).

    ``stimuli`` is the corpus's stimuli as given.  A stimulus's code is its
    index in ``by_code``, the same stimuli sorted by ``(content_id,
    recipe_id)``, so each content's stimuli have the consecutive codes
    ``content_codes[content_id]``.  ``keys`` lists the keys by code, ``codes``
    maps each key to its code and ``vmaf`` holds the VMAF of each code.

    ``stimulus``, ``observer`` and ``score`` hold one entry per rating, and
    ``row`` the rating's index in its input (file or tuple order).  An
    observer code indexes ``observer_ids``, the sorted ids of the observers
    with at least one rating.  The ratings of stimulus ``s`` are
    ``offsets[s]:offsets[s + 1]``, ordered by observer id, and ``counts[s]``
    is their number.

    As a sequence, the table is the ratings in input order as
    :class:`DcrRating` objects, a view built from :meth:`in_input_order` on
    first use; the benchmark's study writer reads it.
    """

    def __init__(self, stimuli: Sequence[Stimulus], content_id: tableio.Column,
                 recipe_id: tableio.Column, observer_id: tableio.Column,
                 score: tableio.Column) -> None:
        """The table of the rating columns given in input order, one per
        :class:`DcrRating` field, each as :class:`~jndmap.tableio.Column`: a
        rating's codes are looked up from the distinct values of its column,
        not from the rating's own cells.

        Raises :class:`CorpusError` with ``row=("stimuli", index)`` at the
        first repeated stimulus key, and with ``row=("ratings", index)`` at
        the first rating of an unknown stimulus or of a (stimulus, observer)
        rated before.
        """
        seen: set[tuple[str, str]] = set()
        for i, stim in enumerate(stimuli):
            key = (stim.content_id, stim.recipe_id)
            if key in seen:
                raise CorpusError(f"duplicate stimulus {key[0]}/{key[1]}", row=("stimuli", i))
            seen.add(key)
        self.stimuli, self.keys = stimuli, sorted(seen)
        self.codes = dict(zip(self.keys, count()))
        self.by_code = sorted(stimuli, key=lambda s: (s.content_id, s.recipe_id))
        self.vmaf = np.array([s.vmaf for s in self.by_code], float)
        first: dict[str, int] = {}
        for code, (content, _) in enumerate(self.keys):
            first.setdefault(content, code)
        ends = [*first.values(), len(self.keys)]
        self.content_codes = {c: range(a, b) for c, a, b in zip(first, ends, ends[1:])}

        # A key sorts as the number content rank * len(recipes) + recipe rank
        # does, so a stimulus's code is that number's place among the keys'.
        # The ratings are sorted by it (and observer) first, so that the
        # search reads its needles in order.  An id that no stimulus has
        # ranks -1, and its rating gets code -1.
        recipes = sorted({recipe_id for _, recipe_id in self.keys})
        ranks = dict(zip(self.content_codes, count())), dict(zip(recipes, count()))
        keyed = np.array([ranks[0][c] * len(recipes) + ranks[1][r] for c, r in self.keys], np.intp)
        content, recipe = (np.array([rank.get(v, -1) for v in column.values], np.intp)[column.codes]
                           for rank, column in zip(ranks, (content_id, recipe_id)))
        wanted = np.where((content >= 0) & (recipe >= 0), content * len(recipes) + recipe, -1)
        del content, recipe  # a large table's memory peaks in the sort below
        ids = sorted(set(observer_id.values))
        rank = dict(zip(ids, count()))
        observer = np.array([rank[v] for v in observer_id.values], np.intp)[observer_id.codes]
        row = np.lexsort((observer, wanted))  # stable: repeats keep their input order
        wanted, observer = wanted[row], observer[row]
        place = np.searchsorted(keyed, wanted)
        stimulus = np.where((wanted >= 0) & (np.append(keyed, -1)[place] == wanted), place, -1)
        del wanted, place
        # a repeat sorts right after the rating it repeats
        repeats = (np.diff(stimulus) == 0) & (np.diff(observer) == 0)
        faults = np.concatenate((row[stimulus < 0], row[1:][repeats]))
        if faults.size:
            i = int(faults.min())
            content, recipe, by = (column.values[column.codes[i]]
                                   for column in (content_id, recipe_id, observer_id))
            message = (
                f"duplicate rating for {content}/{recipe} by {by}"
                if (content, recipe) in self.codes
                else f"rating references unknown stimulus {content}/{recipe}"
            )
            raise CorpusError(message, row=("ratings", i))
        scores = np.array(score.values, np.int64)[score.codes]
        self._set(ids, stimulus, observer, scores[row], row)

    def _set(self, observer_ids: list[str], stimulus: np.ndarray, observer: np.ndarray,
             score: np.ndarray, row: np.ndarray) -> None:
        self.observer_ids = observer_ids
        self.stimulus, self.observer, self.score, self.row = stimulus, observer, score, row
        self.offsets = np.searchsorted(stimulus, np.arange(len(self.keys) + 1))
        self.counts = np.diff(self.offsets)
        for column in (self.vmaf, stimulus, observer, score, row, self.offsets, self.counts):
            column.flags.writeable = False  # a corpus is immutable
        self._rows = None  # a copy's view is built again from its own columns

    def without(self, observers: Collection[str]) -> RatingTable:
        """The table without the ratings of ``observers``."""
        kept = np.array([o not in observers for o in self.observer_ids], bool)
        keep = kept[self.observer]
        table = copy.copy(self)  # the same stimuli and codes
        table._set(list(compress(self.observer_ids, kept)), self.stimulus[keep],
                   (np.cumsum(kept) - 1)[self.observer[keep]], self.score[keep], self.row[keep])
        return table

    def block(self, codes: np.ndarray, n: int) -> np.ndarray:
        """Table positions of the ratings of ``codes``, one row each; each of
        those stimuli must have ``n`` ratings."""
        return self.offsets[codes][:, None] + np.arange(n)

    def panels(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(codes, scores)`` for each panel size n of the rated stimuli:
        their codes and a ``(len(codes), n)`` float array of their scores in
        observer order.

        A reduction along axis 1 treats each row as numpy treats the row's own
        vector, so per-stimulus statistics come out bit-equal to a loop.
        """
        for n in tableio.distinct(self.counts[self.counts > 0]).tolist():
            codes = np.flatnonzero(self.counts == n)
            yield codes, self.score[self.block(codes, n)].astype(float)

    def in_input_order(self) -> tableio.Columns[DcrRating]:
        """The ratings as :class:`DcrRating` columns, in input order."""
        order = np.argsort(self.row)
        keys = np.array(self.keys, dtype=object).reshape(-1, 2)[self.stimulus[order]]
        return tableio.Columns[DcrRating](
            content_id=keys[:, 0], recipe_id=keys[:, 1],
            observer_id=np.array(self.observer_ids, dtype=object)[self.observer[order]],
            score=self.score[order])

    def _build(self) -> tuple[DcrRating, ...]:
        return tuple(self.in_input_order().rows())

    def __len__(self) -> int:
        return len(self.score)


@dataclass(frozen=True)
class Corpus:
    """Immutable bundle of stimuli, ratings, and optional ground truth.

    ``ratings`` may be given as any sequence of :class:`DcrRating`, as the
    benchmark's study writer gives them; it is held as a :class:`RatingTable`
    of ``stimuli``, built once at construction from the objects' fields,
    which also codes the stimuli.
    Accessors return copies.  Mutate by building a new corpus (see
    :func:`jndmap.screening.apply_screening`).
    """

    stimuli: tuple[Stimulus, ...]
    ratings: RatingTable
    truths: tuple[JndTruth, ...] = ()

    def __post_init__(self) -> None:
        ratings = self.ratings
        if not (isinstance(ratings, RatingTable) and ratings.stimuli == self.stimuli):
            # a table of other stimuli is coded again, like any sequence
            ratings = RatingTable(self.stimuli, **{
                name: tableio.Column.of([getattr(r, name) for r in ratings])
                for name in tableio.Columns[DcrRating].names})
        object.__setattr__(self, "ratings", ratings)
        seen: set[JndTruth] = set()
        for i, truth in enumerate(self.truths):
            row = ("truths", i)
            if truth in seen:
                raise CorpusError(f"duplicate truth {truth.content_id}/{truth.anchor_recipe_id} "
                                  f"{truth.direction} {truth.jnd_recipe_id} order {truth.order}",
                                  row=row)
            seen.add(truth)
            if truth.direction not in DIRECTIONS:
                raise CorpusError(f"bad direction {truth.direction!r}", column="direction", row=row)
            if truth.order < 1:
                raise CorpusError(
                    f"truth order must be >= 1, got {truth.order}", column="order", row=row
                )
            for label, column in (("anchor", "anchor_recipe_id"), ("jnd", "jnd_recipe_id")):
                recipe_id = getattr(truth, column)
                if not self.has_stimulus(truth.content_id, recipe_id):
                    raise CorpusError(
                        f"truth {label} references unknown stimulus "
                        f"{truth.content_id}/{recipe_id}",
                        column=column,
                        row=row,
                    )
            anchor = self.stimulus(truth.content_id, truth.anchor_recipe_id)
            jnd = self.stimulus(truth.content_id, truth.jnd_recipe_id)
            rise = jnd.vmaf - anchor.vmaf
            if (truth.direction == "dec" and rise > 0) or (truth.direction == "inc" and rise < 0):
                raise CorpusError(
                    f"{truth.direction} truth for {truth.content_id} moves "
                    f"{'up' if rise > 0 else 'down'} in quality ({anchor.vmaf} -> {jnd.vmaf})",
                    row=row,
                )

    # -- lookups ---------------------------------------------------------

    def code(self, content_id: str, recipe_id: str) -> int:
        """The stimulus's code: its index in ``ratings.by_code``."""
        try:
            return self.ratings.codes[(content_id, recipe_id)]
        except KeyError:
            raise KeyError(f"unknown stimulus {content_id}/{recipe_id}") from None

    def stimulus(self, content_id: str, recipe_id: str) -> Stimulus:
        return self.ratings.by_code[self.code(content_id, recipe_id)]

    def has_stimulus(self, content_id: str, recipe_id: str) -> bool:
        return (content_id, recipe_id) in self.ratings.codes

    def contents(self) -> list[str]:
        return list(self.ratings.content_codes)

    def stimuli_for_content(self, content_id: str) -> list[Stimulus]:
        """The content's stimuli, ordered by recipe id."""
        codes = self._content_codes(content_id)
        return self.ratings.by_code[codes.start:codes.stop]

    def rated_codes(self, content_id: str) -> list[int]:
        """The codes of the content's stimuli that carry ratings, in recipe id order."""
        counts = self.ratings.counts
        return [code for code in self._content_codes(content_id) if counts[code]]

    def rated_recipes(self, content_id: str) -> list[str]:
        """Sorted recipe ids of the content's stimuli that carry ratings."""
        return [self.ratings.keys[code][1] for code in self.rated_codes(content_id)]

    def _content_codes(self, content_id: str) -> range:
        try:
            return self.ratings.content_codes[content_id]
        except KeyError:
            raise KeyError(f"unknown content {content_id!r}") from None

    def observers(self) -> list[str]:
        return list(self.ratings.observer_ids)

    def ratings_for(self, content_id: str, recipe_id: str) -> list[DcrRating]:
        """The stimulus's ratings, ordered by observer id, as objects for
        reading one stimulus at a time (``demos/01``)."""
        table = self.ratings
        code = self.code(content_id, recipe_id)
        span = slice(table.offsets[code], table.offsets[code + 1])
        ids = table.observer_ids
        return [
            DcrRating(content_id, recipe_id, ids[o], score)
            for o, score in zip(table.observer[span].tolist(), table.score[span].tolist())
        ]


# -- ingestion -------------------------------------------------------------


def load_corpus(
    vmaf_table: str | Path,
    ratings_table: str | Path | None,
    truth_table: str | Path | None = None,
) -> Corpus:
    """Load and cross-validate the interchange tables into a :class:`Corpus`.

    ``ratings_table`` may be None for evaluation-only corpora.  Each table
    goes from its columns into the corpus, the ratings into a
    :class:`RatingTable` without a :class:`DcrRating` per row.  Raises
    :class:`CorpusError` naming file, line, and column on the first malformed
    cell, duplicate key, dangling reference, or out-of-range value.
    """
    tables = {
        "stimuli": (vmaf_table, Stimulus),
        "ratings": (ratings_table, DcrRating),
        "truths": (truth_table, JndTruth),
    }
    read = {
        name: tableio.read_table(path, record) if path is not None else tableio.Table(
            record, "", [], {f: tableio.Column.of(()) for f in tableio.Columns[record].names})
        for name, (path, record) in tables.items()
    }
    try:
        stimuli = tuple(read["stimuli"].records())
        ratings = RatingTable(stimuli, **read["ratings"].coded)
        corpus = Corpus(stimuli, ratings, tuple(read["truths"].records()))
    except CorpusError as exc:
        raise read[exc.row[0]].error(exc.message, exc.row[1], exc.column) from None
    log.info(
        "loaded corpus: %d stimuli, %d ratings, %d truth rows",
        len(corpus.stimuli),
        len(corpus.ratings),
        len(corpus.truths),
    )
    return corpus


# -- serialization ----------------------------------------------------------


def corpus_tables(corpus: Corpus) -> dict[str, tableio.Columns]:
    """The three interchange tables of ``corpus``, by file name."""
    return {
        "vmaf_scores.csv": tableio.Columns[Stimulus].of(corpus.stimuli),
        "dcr_ratings.csv": corpus.ratings.in_input_order(),
        "jnd_truth.csv": tableio.Columns[JndTruth].of(corpus.truths),
    }


def save_corpus(corpus: Corpus, out_dir: str | Path) -> dict[str, Path]:
    """Write the three interchange tables under ``out_dir``; returns the
    paths by file stem (``vmaf_scores``, ``dcr_ratings``, ``jnd_truth``)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, table in corpus_tables(corpus).items():
        paths[name.removesuffix(".csv")] = out / name
        tableio.write_csv_text(out / name, table.csv_text())
    return paths
