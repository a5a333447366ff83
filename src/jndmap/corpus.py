"""Data model and CSV ingestion for stimuli, DCR ratings, and JND ground truth.

A *stimulus* is one encoded rendition of a content, identified by
``(content_id, recipe_id)`` and carrying a VMAF score in [0, 100].  DCR
ratings are 5-level degradation-category scores (5 = imperceptible) given by
named observers.  Optional ground-truth rows record, per content and
direction, which rendition sits one (or more) just-noticeable difference away
from an anchor rendition.

The ratings are held as one columnar table, :class:`RatingTable`: a stimulus
code, an observer code and a score per rating, in numpy arrays sorted once by
(stimulus, observer).  The table also codes the stimuli: a stimulus's code is
its index among the corpus's stimuli sorted by ``(content_id, recipe_id)``, so
each content's stimuli have consecutive codes; an observer's code is its index
among the sorted observer ids.  CSR-style offsets mark each stimulus's block of ratings.  Screening,
classification and pair assignment run as array programs over this table.
``corpus.ratings`` is the table; iterating or indexing it builds the
:class:`DcrRating` objects from its columns, in input order, once.
:func:`load_corpus` fills the table from the columns
:func:`jndmap.tableio.read_table` parses from ``dcr_ratings.csv``, without
them.

Ingestion is a pure function of the file bytes: loading the same files twice
and re-serializing yields identical text.
"""

from __future__ import annotations

import copy
import logging
import math
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import tableio
from .errors import CorpusError

log = logging.getLogger(__name__)

DIRECTIONS = ("inc", "dec")


@dataclass(frozen=True)
class Recipe:
    """An encoding recipe: identifier plus descriptive resolution/level tags.

    ``level`` is carried through for reporting but never interpreted.
    """

    recipe_id: str
    resolution: str
    level: int


@dataclass(frozen=True)
class Stimulus:
    content_id: str
    recipe: Recipe
    vmaf: float

    @property
    def recipe_id(self) -> str:
        return self.recipe.recipe_id


def _stimulus(content_id: str, recipe_id: str, resolution: str, level: int, vmaf: float) -> Stimulus:
    return Stimulus(content_id, Recipe(recipe_id, resolution, level), vmaf)


#: vmaf_scores.csv: one row per encoded stimulus, read by :func:`_stimulus`.
VMAF_TABLE: tableio.Schema = {
    "content_id": tableio.ident,
    "recipe_id": tableio.ident,
    "resolution": tableio.text,
    "level": int,
    "vmaf": tableio.within(tableio.number, 0.0, 100.0),
}


@dataclass(frozen=True)
class DcrRating:
    content_id: str
    recipe_id: str
    observer_id: str
    score: int


#: dcr_ratings.csv: the fields of :class:`DcrRating`, in order.
RATING_TABLE: tableio.Schema = {
    "content_id": tableio.ident,
    "recipe_id": tableio.ident,
    "observer_id": tableio.text,
    "score": tableio.within(int, 1, 5),
}


@dataclass(frozen=True)
class JndTruth:
    content_id: str
    anchor_recipe_id: str
    direction: str  # "inc" | "dec"
    jnd_recipe_id: str
    order: int


#: jnd_truth.csv: the fields of :class:`JndTruth`, in order.
TRUTH_TABLE: tableio.Schema = {
    "content_id": tableio.ident,
    "anchor_recipe_id": tableio.ident,
    "direction": tableio.one_of(*DIRECTIONS),
    "jnd_recipe_id": tableio.ident,
    "order": tableio.within(int, 1, math.inf),
}


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
    :class:`DcrRating` objects, a view built from the columns on first use.
    """

    def __init__(self, stimuli: Sequence[Stimulus], content_ids: Sequence[str],
                 recipe_ids: Sequence[str], observer_ids: Sequence[str],
                 scores: Sequence[int]) -> None:
        """The table of the rating columns given in input order.

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
        for code, (content_id, _) in enumerate(self.keys):
            first.setdefault(content_id, code)
        ends = [*first.values(), len(self.keys)]
        self.content_codes = {c: range(a, b) for c, a, b in zip(first, ends, ends[1:])}

        n = len(scores)
        codes = self.codes
        stimulus = np.fromiter(map(codes.get, zip(content_ids, recipe_ids), repeat(-1)), np.intp, n)
        ids = sorted(set(observer_ids))
        observer = np.fromiter(map(dict(zip(ids, count())).__getitem__, observer_ids), np.intp, n)
        row = np.lexsort((observer, stimulus))  # stable: repeats keep their input order
        stimulus, observer = stimulus[row], observer[row]
        # an unknown stimulus sorts first, and a repeat right after the rating it repeats
        repeats = (np.diff(stimulus) == 0) & (np.diff(observer) == 0)
        faults = np.concatenate((row[stimulus < 0], row[1:][repeats]))
        if faults.size:
            i = int(faults.min())
            key = (content_ids[i], recipe_ids[i])
            message = (
                f"duplicate rating for {key[0]}/{key[1]} by {observer_ids[i]}" if key in codes
                else f"rating references unknown stimulus {key[0]}/{key[1]}"
            )
            raise CorpusError(message, row=("ratings", i))
        self._set(ids, stimulus, observer, np.asarray(scores, np.int64)[row], row)

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
        for n in np.unique(self.counts[self.counts > 0]).tolist():
            codes = np.flatnonzero(self.counts == n)
            yield codes, self.score[self.block(codes, n)].astype(float)

    def _build(self) -> tuple[DcrRating, ...]:
        order = np.argsort(self.row)
        keys, ids = self.keys, self.observer_ids
        return tuple(
            DcrRating(*keys[s], ids[o], score)
            for s, o, score in zip(self.stimulus[order].tolist(),
                                   self.observer[order].tolist(), self.score[order].tolist())
        )

    def __len__(self) -> int:
        return len(self.score)


@dataclass(frozen=True)
class Corpus:
    """Immutable bundle of stimuli, ratings, and optional ground truth.

    ``ratings`` may be given as any sequence of :class:`DcrRating`; it is
    held as a :class:`RatingTable` of ``stimuli``, built once at
    construction from the objects' fields, which also codes the stimuli.
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
            columns = list(zip(*map(attrgetter(*RATING_TABLE), ratings))) or [()] * 4
            ratings = RatingTable(self.stimuli, *columns)
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
        """The stimulus's ratings, ordered by observer id."""
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

    ``ratings_table`` may be None for evaluation-only corpora.  The ratings
    go from their columns into a :class:`RatingTable` without a
    :class:`DcrRating` per row.  Raises :class:`CorpusError` naming file,
    line, and column on the first malformed cell, duplicate key, dangling
    reference, or out-of-range value.
    """
    tables = {
        "stimuli": (vmaf_table, VMAF_TABLE),
        "ratings": (ratings_table, RATING_TABLE),
        "truths": (truth_table, TRUTH_TABLE),
    }
    read = {
        name: tableio.Table("", [], [[]] * len(schema)) if path is None
        else tableio.read_table(path, schema)
        for name, (path, schema) in tables.items()
    }
    try:
        stimuli = tuple(map(_stimulus, *read["stimuli"].columns))
        ratings = RatingTable(stimuli, *read["ratings"].columns)
        corpus = Corpus(stimuli, ratings, tuple(map(JndTruth, *read["truths"].columns)))
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


def vmaf_csv_text(corpus: Corpus) -> str:
    rows = [
        (s.content_id, s.recipe_id, s.recipe.resolution, s.recipe.level, s.vmaf)
        for s in corpus.stimuli
    ]
    return tableio.rows_to_csv_text(VMAF_TABLE, rows)


def ratings_csv_text(corpus: Corpus) -> str:
    return tableio.rows_to_csv_text(RATING_TABLE, map(attrgetter(*RATING_TABLE), corpus.ratings))


def truth_csv_text(corpus: Corpus) -> str:
    return tableio.rows_to_csv_text(TRUTH_TABLE, map(attrgetter(*TRUTH_TABLE), corpus.truths))


def save_corpus(corpus: Corpus, out_dir: str | Path) -> dict[str, Path]:
    """Write the three interchange tables under ``out_dir``; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "vmaf_scores": out / "vmaf_scores.csv",
        "dcr_ratings": out / "dcr_ratings.csv",
        "jnd_truth": out / "jnd_truth.csv",
    }
    tableio.write_csv_text(paths["vmaf_scores"], vmaf_csv_text(corpus))
    tableio.write_csv_text(paths["dcr_ratings"], ratings_csv_text(corpus))
    tableio.write_csv_text(paths["jnd_truth"], truth_csv_text(corpus))
    return paths
