"""Observer screening for DCR panels (ITU-R BT.500 annex-style outlier test).

For every rated stimulus the panel mean, standard deviation, and kurtosis
coefficient are computed; scores falling outside mean +/- 2*sigma (for
roughly normal score distributions, 2 <= beta2 <= 4) or mean +/- sqrt(20)*sigma
(otherwise) are tallied per observer as P (above) / Q (below).  An observer is
rejected when they deviate often, (P+Q)/N > 0.05, *and* in both directions,
|P-Q|/(P+Q) < 0.3 -- i.e. erratic rather than consistently biased.

Kurtosis uses the population estimator beta2 = m4 / m2**2; the deviation
bounds use the sample (N-1) standard deviation.  A zero-variance stimulus
collapses both bounds onto the mean, so any deviating score counts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tableio
from .corpus import Corpus

log = logging.getLogger(__name__)

#: Methods accepted by :func:`screen`; ``"none"`` keeps every observer.
METHODS = ("bt500", "none")

REJECT_FREQUENCY = 0.05  # minimum fraction of deviating judgements
REJECT_BALANCE = 0.3  # |P-Q|/(P+Q) must be below this (deviations both ways)


@dataclass(frozen=True)
class ObserverStats:
    p_count: int
    q_count: int
    ratio1: float  # (P+Q) / judgements
    ratio2: float  # |P-Q| / (P+Q), 0.0 when P+Q == 0


@dataclass(frozen=True)
class ScreeningReport:
    """A screening's outcome as ``screening.json`` holds it: the removed
    observers (:func:`screen` sorts them) and each observer's tallies."""

    method: str
    removed: tuple[str, ...]
    stats: dict[str, ObserverStats]

    @property
    def removed_observers(self) -> frozenset[str]:
        return frozenset(self.removed)

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")


def screen(corpus: Corpus, method: str = "bt500") -> ScreeningReport:
    """Dispatch on ``method``; ``"none"`` returns a report that removes nobody."""
    if method not in METHODS:
        raise ValueError(f"unknown screening method {method!r}; expected one of {METHODS}")
    if method == "bt500":
        return screen_bt500(corpus)
    stats = {obs: ObserverStats(0, 0, 0.0, 0.0) for obs in corpus.observers()}
    return ScreeningReport(method, (), stats)


def screen_bt500(corpus: Corpus) -> ScreeningReport:
    """Apply the BT.500-style outlier test over every rated stimulus.

    Each stimulus's bounds come from a row of :meth:`RatingTable.panels`, and
    the P/Q tallies from one ``np.bincount`` per tally.
    """
    table = corpus.ratings
    counts = table.counts
    (few,) = np.nonzero(counts == 1)
    if few.size:
        content_id, recipe_id = table.keys[few[0]]
        raise ValueError(
            f"stimulus {content_id}/{recipe_id} has 1 rating(s); "
            "screening needs at least 2 per rated stimulus"
        )
    upper = np.zeros(len(counts))
    lower = np.zeros(len(counts))
    with np.errstate(divide="ignore", invalid="ignore"):
        for codes, scores in table.panels():
            mean = scores.mean(axis=1)
            centered = scores - mean[:, None]
            m2 = np.mean(centered**2, axis=1)
            # Python's ``m2**2`` is C pow(), as is np.float_power; numpy's ** is
            # m2 * m2, which can differ from pow() in the last bit
            beta2 = np.mean(centered**4, axis=1) / np.float_power(m2, 2)
            sigma = scores.std(axis=1, ddof=1)
            width = np.where((2.0 <= beta2) & (beta2 <= 4.0), 2.0 * sigma, math.sqrt(20.0) * sigma)
            # a zero-variance stimulus collapses both bounds onto its mean
            upper[codes] = np.where(m2 == 0.0, mean, mean + width)
            lower[codes] = np.where(m2 == 0.0, mean, mean - width)
    above = table.score > upper[table.stimulus]
    below = ~above & (table.score < lower[table.stimulus])
    n_obs = len(table.observer_ids)
    p_counts, q_counts, judgements = (
        np.bincount(table.observer[ratings], minlength=n_obs).tolist()
        for ratings in (above, below, slice(None))
    )

    removed = set()
    stats = {}
    for obs, p, q, n in zip(table.observer_ids, p_counts, q_counts, judgements):
        ratio1 = (p + q) / n
        ratio2 = abs(p - q) / (p + q) if (p + q) else 0.0
        stats[obs] = ObserverStats(p, q, ratio1, ratio2)
        if ratio1 > REJECT_FREQUENCY and ratio2 < REJECT_BALANCE:
            removed.add(obs)
    if removed:
        log.info("screening removed %d observer(s): %s", len(removed), sorted(removed))
    return ScreeningReport("bt500", tuple(sorted(removed)), stats)


def apply_screening(corpus: Corpus, report: ScreeningReport) -> Corpus:
    """Return a corpus with all ratings from removed observers dropped.

    Stimuli and truth rows are untouched; removing every observer simply
    leaves an unrated corpus.
    """
    if not report.removed_observers:
        return corpus
    kept = corpus.ratings.without(report.removed_observers)
    return Corpus(stimuli=corpus.stimuli, ratings=kept, truths=corpus.truths)


def read_report(path: str | Path) -> ScreeningReport:
    return tableio.read_json(path, lambda data: tableio.from_json(ScreeningReport, data))
