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

import logging
from dataclasses import dataclass, field
from pathlib import Path

from . import tableio
from .errors import CorpusError

log = logging.getLogger(__name__)

VMAF_COLUMNS = ["content_id", "recipe_id", "resolution", "level", "vmaf"]
RATING_COLUMNS = ["content_id", "recipe_id", "observer_id", "score"]
TRUTH_COLUMNS = ["content_id", "anchor_recipe_id", "direction", "jnd_recipe_id", "order"]

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


@dataclass(frozen=True)
class DcrRating:
    content_id: str
    recipe_id: str
    observer_id: str
    score: int


@dataclass(frozen=True)
class JndTruth:
    content_id: str
    anchor_recipe_id: str
    direction: str  # "inc" | "dec"
    jnd_recipe_id: str
    order: int


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
        for stim in self.stimuli:
            key = (stim.content_id, stim.recipe_id)
            if key in by_key:
                raise CorpusError(f"duplicate stimulus {key[0]}/{key[1]}")
            by_key[key] = stim
        # sorted keys put the contents, and the recipes of each, in order
        stimuli_by_content: dict[str, list[Stimulus]] = {}
        for key in sorted(by_key):
            stimuli_by_content.setdefault(key[0], []).append(by_key[key])
        ratings_by_key: dict[tuple[str, str], list[DcrRating]] = {}
        seen: set[tuple[str, str, str]] = set()
        for rating in self.ratings:
            key = (rating.content_id, rating.recipe_id)
            if key not in by_key:
                raise CorpusError(
                    f"rating references unknown stimulus {key[0]}/{key[1]}"
                )
            triple = (rating.content_id, rating.recipe_id, rating.observer_id)
            if triple in seen:
                raise CorpusError(
                    f"duplicate rating for {triple[0]}/{triple[1]} by {triple[2]}"
                )
            seen.add(triple)
            ratings_by_key.setdefault(key, []).append(rating)
        for key, group in ratings_by_key.items():
            group.sort(key=lambda r: r.observer_id)
        rated_by_content: dict[str, list[str]] = {c: [] for c in stimuli_by_content}
        for content_id, recipe_id in sorted(ratings_by_key):
            rated_by_content[content_id].append(recipe_id)
        for truth in self.truths:
            if truth.direction not in DIRECTIONS:
                raise CorpusError(f"bad direction {truth.direction!r}")
            if truth.order < 1:
                raise CorpusError(f"truth order must be >= 1, got {truth.order}")
            for label, recipe_id in (
                ("anchor", truth.anchor_recipe_id),
                ("jnd", truth.jnd_recipe_id),
            ):
                if (truth.content_id, recipe_id) not in by_key:
                    raise CorpusError(
                        f"truth {label} references unknown stimulus "
                        f"{truth.content_id}/{recipe_id}"
                    )
            anchor = by_key[(truth.content_id, truth.anchor_recipe_id)]
            jnd = by_key[(truth.content_id, truth.jnd_recipe_id)]
            if truth.direction == "dec" and jnd.vmaf > anchor.vmaf:
                raise CorpusError(
                    f"dec truth for {truth.content_id} moves up in quality "
                    f"({anchor.vmaf} -> {jnd.vmaf})"
                )
            if truth.direction == "inc" and jnd.vmaf < anchor.vmaf:
                raise CorpusError(
                    f"inc truth for {truth.content_id} moves down in quality "
                    f"({anchor.vmaf} -> {jnd.vmaf})"
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
    stimuli = _load_vmaf(vmaf_table)
    ratings = _load_ratings(ratings_table) if ratings_table is not None else ()
    truths = _load_truth(truth_table) if truth_table is not None else ()
    corpus = Corpus(stimuli=stimuli, ratings=ratings, truths=truths)
    log.info(
        "loaded corpus: %d stimuli, %d ratings, %d truth rows",
        len(stimuli),
        len(ratings),
        len(truths),
    )
    return corpus


def _load_vmaf(path: str | Path) -> tuple[Stimulus, ...]:
    name = Path(path).name
    stimuli = []
    for lineno, row in tableio.read_rows(path, VMAF_COLUMNS):
        content_id = tableio.require_nonempty(row, "content_id", path=name, line=lineno)
        recipe_id = tableio.require_nonempty(row, "recipe_id", path=name, line=lineno)
        resolution = tableio.require_nonempty(row, "resolution", path=name, line=lineno)
        level = tableio.parse_int(row, "level", path=name, line=lineno)
        vmaf = tableio.parse_float(row, "vmaf", path=name, line=lineno)
        if not 0.0 <= vmaf <= 100.0:
            raise CorpusError(
                f"vmaf {vmaf} outside [0, 100]", path=name, line=lineno, column="vmaf"
            )
        stimuli.append(
            Stimulus(content_id, Recipe(recipe_id, resolution, level), vmaf)
        )
    return tuple(stimuli)


def _load_ratings(path: str | Path) -> tuple[DcrRating, ...]:
    name = Path(path).name
    ratings = []
    for lineno, row in tableio.read_rows(path, RATING_COLUMNS):
        content_id = tableio.require_nonempty(row, "content_id", path=name, line=lineno)
        recipe_id = tableio.require_nonempty(row, "recipe_id", path=name, line=lineno)
        observer_id = tableio.require_nonempty(row, "observer_id", path=name, line=lineno)
        score = tableio.parse_int(row, "score", path=name, line=lineno)
        if not 1 <= score <= 5:
            raise CorpusError(
                f"score {score} outside 1..5", path=name, line=lineno, column="score"
            )
        ratings.append(DcrRating(content_id, recipe_id, observer_id, score))
    return tuple(ratings)


def _load_truth(path: str | Path) -> tuple[JndTruth, ...]:
    name = Path(path).name
    truths = []
    for lineno, row in tableio.read_rows(path, TRUTH_COLUMNS):
        content_id = tableio.require_nonempty(row, "content_id", path=name, line=lineno)
        anchor = tableio.require_nonempty(row, "anchor_recipe_id", path=name, line=lineno)
        direction = row["direction"]
        if direction not in DIRECTIONS:
            raise CorpusError(
                f"direction must be one of {DIRECTIONS}, got {direction!r}",
                path=name,
                line=lineno,
                column="direction",
            )
        jnd = tableio.require_nonempty(row, "jnd_recipe_id", path=name, line=lineno)
        order = tableio.parse_int(row, "order", path=name, line=lineno)
        truths.append(JndTruth(content_id, anchor, direction, jnd, order))
    return tuple(truths)


# -- serialization ----------------------------------------------------------


def vmaf_csv_text(corpus: Corpus) -> str:
    rows = [
        (s.content_id, s.recipe_id, s.recipe.resolution, s.recipe.level, s.vmaf)
        for s in corpus.stimuli
    ]
    return tableio.rows_to_csv_text(VMAF_COLUMNS, rows)


def ratings_csv_text(corpus: Corpus) -> str:
    rows = [
        (r.content_id, r.recipe_id, r.observer_id, r.score) for r in corpus.ratings
    ]
    return tableio.rows_to_csv_text(RATING_COLUMNS, rows)


def truth_csv_text(corpus: Corpus) -> str:
    rows = [
        (t.content_id, t.anchor_recipe_id, t.direction, t.jnd_recipe_id, t.order)
        for t in corpus.truths
    ]
    return tableio.rows_to_csv_text(TRUTH_COLUMNS, rows)


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
