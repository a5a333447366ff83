"""Invert fitted mapping functions to predict the |dVMAF| of one JND.

Given an anchor rendition, we pick the sub-quality range containing its VMAF,
look up the requested curve family, and find the smallest |dVMAF| in the
curve's domain whose predicted probability of a perceived difference reaches
the decision threshold.  Monotone curves make that a bisection, one array
program over every (range, threshold) of a family in :func:`invert_family`
and over one lane in :func:`invert_at_threshold`; when the threshold is not
strictly bracketed inside the domain the nearest endpoint is returned with
``clamped`` set.  The target VMAF follows by stepping the anchor
down (``dec``) or up (``inc``) and clipping into [0, 100].  That chain is one
array program, :func:`predict_step`, which :func:`predict_jnd` runs on one
anchor and :func:`jndmap.evaluate.evaluate_grid` on every chained step.  Many
predictions are held as one columnar :class:`PredictionTable`, which
``predictions.csv`` is written from; it has no row view.  A
:class:`JndPrediction` is only what :func:`predict_jnd` returns for its one
anchor.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tableio
from .corpus import Stimulus
from .errors import FitError
# the benchmark's tracer wraps predict.evaluate_mf by name, so it stays
# importable from here
from .mapping import MappingFunction, clipped_curve, evaluate_mf  # noqa: F401
from .ranges import Decomposition

log = logging.getLogger(__name__)

INVERSION_TOL = 1e-6
PREDICTION_COLUMNS = [
    "content_id",
    "anchor_recipe_id",
    "direction",
    "range_id",
    "family",
    "threshold",
    "delta_obj_jnd",
    "target_vmaf",
    "clamped",
]


@dataclass(frozen=True)
class JndPrediction:
    content_id: str
    anchor_recipe_id: str
    direction: str
    range_id: str
    family: str
    threshold: float
    delta_obj_jnd: float
    target_vmaf: float
    clamped: bool


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")


def _non_monotone(family: str) -> FitError:
    return FitError(f"{family} fit is flagged non-monotone; refusing to invert")


def _bisect(
    family: str, curves: Sequence[MappingFunction], thresholds: Sequence[float]
) -> tuple[list[float], list[bool]]:
    """Lane i inverts ``curves[i]``, a monotone ``family`` fit, at
    ``thresholds[i]``, all lanes in one array program: the two endpoint
    checks, then up to 100 halvings, each one :func:`clipped_curve` call over
    every lane, until a lane's bracket is within ``INVERSION_TOL * 1e-3``.
    Each lane takes the halvings and the values a one-curve bisection would."""
    params = np.array([mf.params for mf in curves]).T  # one row per parameter
    start, end = np.array([mf.domain for mf in curves]).T
    threshold = np.array(thresholds, dtype=float)

    def curve(x: np.ndarray) -> np.ndarray:
        return clipped_curve(family, params, (start, end), x)

    at_start = curve(start) >= threshold
    clamped = at_start | (curve(end) < threshold)
    lo, hi, going = start, end, ~clamped
    # 100 halvings shrink the bracket far below the 1e-6 reporting tolerance.
    for _ in range(100):
        if not going.any():
            break
        mid = 0.5 * (lo + hi)
        up = curve(mid) >= threshold
        hi, lo = np.where(going & up, mid, hi), np.where(going & ~up, mid, lo)
        going &= ~(hi - lo <= INVERSION_TOL * 1e-3)
    return np.where(at_start, start, hi).tolist(), clamped.tolist()


def invert_at_threshold(mf: MappingFunction, threshold: float) -> tuple[float, bool]:
    """Smallest delta in the domain with ``mf(delta) >= threshold``.

    Returns ``(delta, clamped)``.  ``clamped`` is set when the threshold is
    not strictly bracketed: the curve already meets it at the domain start, or
    never reaches it (then ``delta`` is the domain end).
    """
    _check_threshold(threshold)
    if not mf.fit_report.monotone:
        raise _non_monotone(mf.family)
    (delta,), (clamped,) = _bisect(mf.family, [mf], [threshold])
    return delta, clamped


def invert_family(
    models: dict[str, dict[str, MappingFunction]], range_ids: Sequence[str], family: str,
    thresholds: Sequence[float],
) -> dict:
    """The inversion memo entries of ``family`` for each range in
    ``range_ids`` at each threshold, keyed (range id, family, threshold): the
    ``(delta, clamped)`` of :func:`invert_at_threshold`, or the KeyError (no
    model) or FitError (non-monotone fit) that stops the range's anchors.
    Every curve is inverted in one array bisection."""
    for threshold in thresholds:
        _check_threshold(threshold)
    entries: dict = {}
    lanes = []
    for range_id in range_ids:
        mf = models.get(range_id, {}).get(family)
        if mf is None:
            stop = KeyError(f"no fitted {family} model for range {range_id}")
        else:
            stop = None if mf.fit_report.monotone else _non_monotone(family)
        for threshold in thresholds:
            key = (range_id, family, threshold)
            if stop is None:
                lanes.append((key, mf, threshold))
            else:
                entries[key] = stop
    if lanes:
        keys, curves, levels = zip(*lanes)
        entries.update(zip(keys, zip(*_bisect(family, curves, levels))))
    return entries


def predict_step(
    models: dict[str, dict[str, MappingFunction]], decomp: Decomposition,
    vmaf: Sequence[float] | np.ndarray, direction: str, threshold: float, family: str,
    inversions: dict,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[Exception | None]]:
    """One JND step from each anchor VMAF in ``vmaf``: its range by
    :meth:`Decomposition.locate` (an anchor outside the coverage is logged
    and uses the nearest end range), the range's curve inverted once per
    ``inversions`` memo, the step and the clip into [0, 100].  Returns per
    anchor the range index, |dVMAF|, target VMAF, clamped flag, and the
    KeyError (no model, NaN anchor) or FitError that stops it, else None."""
    if direction not in ("inc", "dec"):
        raise ValueError(f"direction must be 'inc' or 'dec', got {direction!r}")
    vmaf = np.asarray(vmaf, dtype=float)
    index, outside = decomp.locate(vmaf)
    lost = np.isnan(vmaf)
    range_ids = decomp.range_ids()
    for anchor_vmaf, k in zip(vmaf[outside & ~lost].tolist(), index[outside & ~lost].tolist()):
        log.warning("anchor vmaf %.3f outside coverage %s; using end range %s",
                    anchor_vmaf, decomp.coverage, range_ids[k])
    inverted = np.zeros((len(range_ids), 2))  # |dVMAF| and clamped, per inverted range
    stopped: dict[int, Exception] = {}
    for k in tableio.distinct(index[~lost]).tolist():
        key = (range_ids[k], family, threshold)
        if key not in inversions:  # the inversion, or the error that stops its anchors
            inversions.update(invert_family(models, [range_ids[k]], family, [threshold]))
        if isinstance(inversions[key], Exception):
            stopped[k] = inversions[key]
        else:
            inverted[k] = inversions[key]
    faults = [decomp.uncovered(v) if nan else stopped.get(k)
              for v, k, nan in zip(vmaf.tolist(), index.tolist(), lost.tolist())]
    delta = inverted[index, 0]
    raw = vmaf - delta if direction == "dec" else vmaf + delta
    target = np.minimum(np.maximum(raw, 0.0), 100.0)
    clamped = outside | (inverted[index, 1] != 0.0) | (target != raw)
    return index, delta, target, clamped, faults


def predict_jnd(
    models: dict[str, dict[str, MappingFunction]],
    decomp: Decomposition,
    anchor: Stimulus,
    direction: str,
    threshold: float,
    family: str,
) -> JndPrediction:
    """Predict the |dVMAF| of one JND away from ``anchor`` and the target VMAF:
    :func:`predict_step` on the one anchor, raising the error that stops it."""
    index, delta, target, clamped, (fault,) = predict_step(
        models, decomp, [anchor.vmaf], direction, threshold, family, {})
    if fault is not None:
        raise fault
    return JndPrediction(anchor.content_id, anchor.recipe_id, direction,
                         decomp.ranges[index[0]].range_id, family, threshold,
                         *delta.tolist(), *target.tolist(), *clamped.tolist())


# -- serialization ----------------------------------------------------------


class PredictionTable:
    """Predictions as columns, in :data:`PREDICTION_COLUMNS` order: ``ids``,
    five object arrays (content, anchor recipe, direction, range, family),
    ``numbers``, three float arrays (threshold, |dVMAF|, target VMAF), and
    the bool array ``clamped``."""

    def __init__(self, *columns: Sequence) -> None:
        self.ids = [np.asarray(column, dtype=object) for column in columns[:5]]
        self.numbers = [np.asarray(column, dtype=float) for column in columns[5:8]]
        self.clamped = np.asarray(columns[8], dtype=bool)

    def cells(self) -> list[Sequence]:
        """The columns as Python values, ``clamped`` as 0 or 1."""
        numbers = [column.tolist() for column in self.numbers]
        return [*self.ids, *numbers, self.clamped.astype(int).tolist()]

    def __len__(self) -> int:
        return len(self.clamped)


def predictions_csv_text(predictions: PredictionTable) -> str:
    return tableio.csv_text(PREDICTION_COLUMNS, [*predictions.ids, *predictions.numbers,
                                                 predictions.clamped.astype(int)])
