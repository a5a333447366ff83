"""Data model and CSV ingestion for stimuli, DCR ratings, and JND ground truth.

A *stimulus* is one encoded rendition of a content, identified by
``(content_id, recipe_id)`` and carrying a VMAF score in [0, 100].  DCR
ratings are 5-level degradation-category scores (5 = imperceptible) given by
named observers.  Optional ground-truth rows record, per content and
direction, which rendition sits one (or more) just-noticeable difference away
from an anchor rendition.

Ingestion is a pure function of the file bytes: loading the same files twice
and re-serializing yields identical text.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

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
    "content_id": tableio.text,
    "recipe_id": tableio.text,
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
    "content_id": tableio.text,
    "recipe_id": tableio.text,
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
    "content_id": tableio.text,
    "anchor_recipe_id": tableio.text,
    "direction": tableio.one_of(*DIRECTIONS),
    "jnd_recipe_id": tableio.text,
    "order": tableio.within(int, 1, math.inf),
}


@dataclass(frozen=True)
class Corpus:
    """Immutable bundle of stimuli, ratings, and optional ground truth.

    Lookup indexes are built once at construction: stimuli and ratings by
    key, the sorted content ids, and each content's stimuli and rated recipes.
    Accessors return copies.  Mutate by building a new corpus (see
    :func:`jndmap.screening.apply_screening`).
    """

    stimuli: tuple[Stimulus, ...]
    ratings: tuple[DcrRating, ...]
    truths: tuple[JndTruth, ...] = ()
    _by_key: dict[tuple[str, str], Stimulus] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _ratings_by_key: dict[tuple[str, str], list[DcrRating]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _stimuli_by_content: dict[str, list[Stimulus]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _rated_by_content: dict[str, list[str]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        by_key: dict[tuple[str, str], Stimulus] = {}
        for i, stim in enumerate(self.stimuli):
            key = (stim.content_id, stim.recipe_id)
            if key in by_key:
                raise CorpusError(f"duplicate stimulus {key[0]}/{key[1]}", row=("stimuli", i))
            by_key[key] = stim
        # sorted keys put the contents, and the recipes of each, in order
        stimuli_by_content: dict[str, list[Stimulus]] = {}
        for key in sorted(by_key):
            stimuli_by_content.setdefault(key[0], []).append(by_key[key])
        ratings_by_key: dict[tuple[str, str], list[DcrRating]] = {}
        seen: set[tuple[str, str, str]] = set()
        for i, rating in enumerate(self.ratings):
            key = (rating.content_id, rating.recipe_id)
            if key not in by_key:
                raise CorpusError(
                    f"rating references unknown stimulus {key[0]}/{key[1]}", row=("ratings", i)
                )
            triple = (rating.content_id, rating.recipe_id, rating.observer_id)
            if triple in seen:
                raise CorpusError(
                    f"duplicate rating for {triple[0]}/{triple[1]} by {triple[2]}",
                    row=("ratings", i),
                )
            seen.add(triple)
            ratings_by_key.setdefault(key, []).append(rating)
        for key, group in ratings_by_key.items():
            group.sort(key=lambda r: r.observer_id)
        rated_by_content: dict[str, list[str]] = {c: [] for c in stimuli_by_content}
        for content_id, recipe_id in sorted(ratings_by_key):
            rated_by_content[content_id].append(recipe_id)
        for i, truth in enumerate(self.truths):
            row = ("truths", i)
            if truth.direction not in DIRECTIONS:
                raise CorpusError(f"bad direction {truth.direction!r}", column="direction", row=row)
            if truth.order < 1:
                raise CorpusError(
                    f"truth order must be >= 1, got {truth.order}", column="order", row=row
                )
            for label, column in (("anchor", "anchor_recipe_id"), ("jnd", "jnd_recipe_id")):
                recipe_id = getattr(truth, column)
                if (truth.content_id, recipe_id) not in by_key:
                    raise CorpusError(
                        f"truth {label} references unknown stimulus "
                        f"{truth.content_id}/{recipe_id}",
                        column=column,
                        row=row,
                    )
            anchor = by_key[(truth.content_id, truth.anchor_recipe_id)]
            jnd = by_key[(truth.content_id, truth.jnd_recipe_id)]
            rise = jnd.vmaf - anchor.vmaf
            if (truth.direction == "dec" and rise > 0) or (truth.direction == "inc" and rise < 0):
                raise CorpusError(
                    f"{truth.direction} truth for {truth.content_id} moves "
                    f"{'up' if rise > 0 else 'down'} in quality ({anchor.vmaf} -> {jnd.vmaf})",
                    row=row,
                )
        object.__setattr__(self, "_by_key", by_key)
        object.__setattr__(self, "_ratings_by_key", ratings_by_key)
        object.__setattr__(self, "_stimuli_by_content", stimuli_by_content)
        object.__setattr__(self, "_rated_by_content", rated_by_content)

    # -- lookups ---------------------------------------------------------

    def stimulus(self, content_id: str, recipe_id: str) -> Stimulus:
        try:
            return self._by_key[(content_id, recipe_id)]
        except KeyError:
            raise KeyError(f"unknown stimulus {content_id}/{recipe_id}") from None

    def has_stimulus(self, content_id: str, recipe_id: str) -> bool:
        return (content_id, recipe_id) in self._by_key

    def contents(self) -> list[str]:
        return list(self._stimuli_by_content)

    def stimuli_for_content(self, content_id: str) -> list[Stimulus]:
        """The content's stimuli, ordered by recipe id."""
        return list(self._content_index(self._stimuli_by_content, content_id))

    def rated_recipes(self, content_id: str) -> list[str]:
        """Sorted recipe ids of the content's stimuli that carry ratings."""
        return list(self._content_index(self._rated_by_content, content_id))

    @staticmethod
    def _content_index(index: dict[str, list], content_id: str) -> list:
        try:
            return index[content_id]
        except KeyError:
            raise KeyError(f"unknown content {content_id!r}") from None

    def observers(self) -> list[str]:
        return sorted({r.observer_id for r in self.ratings})

    def rated_keys(self) -> list[tuple[str, str]]:
        return sorted(self._ratings_by_key)

    def ratings_for(self, content_id: str, recipe_id: str) -> list[DcrRating]:
        key = (content_id, recipe_id)
        if key not in self._by_key:
            raise KeyError(f"unknown stimulus {content_id}/{recipe_id}")
        return list(self._ratings_by_key.get(key, []))


def ratings_vector(corpus: Corpus, content_id: str, recipe_id: str) -> list[int]:
    """Scores for one stimulus, ordered by observer_id lexicographically."""
    return [r.score for r in corpus.ratings_for(content_id, recipe_id)]


# -- ingestion -------------------------------------------------------------


def load_corpus(
    vmaf_table: str | Path,
    ratings_table: str | Path | None,
    truth_table: str | Path | None = None,
) -> Corpus:
    """Load and cross-validate the interchange tables into a :class:`Corpus`.

    ``ratings_table`` may be None for evaluation-only corpora.  Raises
    :class:`CorpusError` naming file, line, and column on the first malformed
    cell, duplicate key, dangling reference, or out-of-range value.
    """
    tables = {
        "stimuli": (vmaf_table, VMAF_TABLE, _stimulus),
        "ratings": (ratings_table, RATING_TABLE, DcrRating),
        "truths": (truth_table, TRUTH_TABLE, JndTruth),
    }
    rows = {}
    for field_name, (path, schema, make) in tables.items():
        numbered = () if path is None else tableio.read_table(path, schema)
        rows[field_name] = tuple([make(*values) for _, values in numbered])
    try:
        corpus = Corpus(**rows)
    except CorpusError as exc:
        field_name, index = exc.row
        path, schema, _ = tables[field_name]
        # a rejected row is rare: read its table again for the row's line
        line, _ = next(itertools.islice(tableio.read_table(path, schema), index, None))
        raise CorpusError(exc.message, path=Path(path).name, line=line, column=exc.column) from None
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
