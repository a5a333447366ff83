"""Invert fitted mapping functions to predict the |dVMAF| of one JND.

Given an anchor rendition, we pick the sub-quality range containing its VMAF,
look up the requested curve family, and find the smallest |dVMAF| in the
curve's domain whose predicted probability of a perceived difference reaches
the decision threshold.  Monotone curves make that a bisection, one array
program over every (range, threshold) of a family in :func:`invert_family`
and over one lane in :func:`invert_at_threshold`; when the threshold is not
strictly bracketed inside the domain the nearest endpoint is returned with
``clamped`` set.  A family's inversions form one table: (ranges x
thresholds) arrays of |dVMAF| and clamped flags, and per range the error
that stops its anchors, if any.  The target VMAF follows by stepping the
anchor down (``dec``) or up (``inc``) and clipping into [0, 100].  That step
is one array program over one threshold's column of the table,
:func:`predict_step`, which :func:`predict_jnd` runs on one anchor and
:func:`jndmap.evaluate.evaluate_grid` on every chained step.  Many
predictions are held as one :class:`PredictionTable`, the
:class:`jndmap.tableio.Columns` of :class:`JndPrediction`, which writes
``predictions.csv``; it has no row view.  A :class:`JndPrediction` is what
:func:`predict_jnd` returns for its one anchor, and its fields are the one
statement of a prediction's shape: the table holds one column per field
under the field's name, ``predictions.csv`` has the fields as its columns in
field order, and ``predict`` prints the record through
:func:`jndmap.tableio.to_json`.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tableio
from .corpus import DIRECTIONS, Stimulus
from .errors import FitError
# the benchmark's tracer wraps predict.evaluate_mf by name, so it stays
# importable from here
from .mapping import MappingFunction, clipped_curve, evaluate_mf  # noqa: F401
from .ranges import Decomposition

log = logging.getLogger(__name__)

INVERSION_TOL = 1e-6


@dataclass(frozen=True)
class JndPrediction:
    """One prediction, a row of ``predictions.csv``."""

    content_id: str
    anchor_recipe_id: str
    direction: str
    range_id: str
    family: str
    threshold: float
    delta_obj_jnd: float
    target_vmaf: float
    clamped: bool


#: Predictions as columns: object arrays for the text fields, float arrays
#: for the numbers and a bool array for ``clamped``, written as 0 or 1.
PredictionTable = tableio.Columns[JndPrediction]


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")


def _non_monotone(family: str) -> FitError:
    return FitError(f"{family} fit is flagged non-monotone; refusing to invert")


def _bisect(
    family: str, curves: Sequence[MappingFunction], thresholds: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
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
    return np.where(at_start, start, hi), clamped


def invert_at_threshold(mf: MappingFunction, threshold: float) -> tuple[float, bool]:
    """Smallest delta in the domain with ``mf(delta) >= threshold``.

    Returns ``(delta, clamped)``.  ``clamped`` is set when the threshold is
    not strictly bracketed: the curve already meets it at the domain start, or
    never reaches it (then ``delta`` is the domain end).
    """
    _check_threshold(threshold)
    if not mf.fit_report.monotone:
        raise _non_monotone(mf.family)
    delta, clamped = _bisect(mf.family, [mf], [threshold])
    return float(delta[0]), bool(clamped[0])


def invert_family(
    models: dict[str, dict[str, MappingFunction]], range_ids: Sequence[str], family: str,
    thresholds: Sequence[float],
) -> tuple[np.ndarray, np.ndarray, list[Exception | None]]:
    """The inversion table of ``family`` over ``range_ids`` and ``thresholds``:
    the (ranges x thresholds) arrays ``delta`` and ``clamped`` of
    :func:`invert_at_threshold`, and per range the KeyError (no model) or
    FitError (non-monotone fit) that stops its anchors, else None; a stopped
    range's row is zero.  Every curve is inverted in one array bisection."""
    for threshold in thresholds:
        _check_threshold(threshold)
    stops: list[Exception | None] = []
    for range_id in range_ids:
        mf = models.get(range_id, {}).get(family)
        if mf is None:
            stops.append(KeyError(f"no fitted {family} model for range {range_id}"))
        else:
            stops.append(None if mf.fit_report.monotone else _non_monotone(family))
    live = [stop is None for stop in stops]
    curves = [models[range_id][family] for range_id, up in zip(range_ids, live) if up]
    delta = np.zeros((len(range_ids), len(thresholds)))
    clamped = np.zeros(delta.shape, bool)
    lanes = [(mf, threshold) for mf in curves for threshold in thresholds]  # range-major
    if lanes:
        found = _bisect(family, *zip(*lanes))
        delta[live], clamped[live] = (column.reshape(len(curves), -1) for column in found)
    return delta, clamped, stops


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be {' or '.join(map(repr, DIRECTIONS))}, "
                         f"got {direction!r}")


def predict_step(
    decomp: Decomposition, vmaf: Sequence[float] | np.ndarray, direction: str,
    delta: np.ndarray, clamped: np.ndarray, stops: Sequence[Exception | None],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[Exception | None]]:
    """One JND step from each anchor VMAF in ``vmaf``: its range by
    :meth:`Decomposition.locate` (an anchor outside the coverage uses the
    nearest end range), that range's cell of one threshold's column of an
    :func:`invert_family` table (``delta``, ``clamped`` and ``stops``), the
    step and the clip into [0, 100].  Returns per anchor the range index,
    |dVMAF|, target VMAF, clamped flag, and the KeyError (no model, NaN
    anchor) or FitError that stops it, else None."""
    _check_direction(direction)
    vmaf = np.asarray(vmaf, dtype=float)
    index, outside = decomp.locate(vmaf)
    faults = [decomp.uncovered(v) if math.isnan(v) else stops[k]
              for v, k in zip(vmaf.tolist(), index.tolist())]
    step = delta[index]
    raw = vmaf - step if direction == "dec" else vmaf + step
    target = np.minimum(np.maximum(raw, 0.0), 100.0)
    return index, step, target, outside | clamped[index] | (target != raw), faults


def predict_jnd(
    models: dict[str, dict[str, MappingFunction]],
    decomp: Decomposition,
    anchor: Stimulus,
    direction: str,
    threshold: float,
    family: str,
) -> JndPrediction:
    """Predict the |dVMAF| of one JND away from ``anchor`` and the target VMAF:
    ``family`` inverted at ``threshold`` over every range, then
    :func:`predict_step` on the one anchor, raising the error that stops it."""
    _check_direction(direction)
    deltas, clamps, stops = invert_family(models, decomp.range_ids(), family, [threshold])
    (k,), delta, target, clamped, (fault,) = predict_step(
        decomp, [anchor.vmaf], direction, deltas[:, 0], clamps[:, 0], stops)
    range_id = decomp.ranges[k].range_id
    if decomp.locate(anchor.vmaf)[1] and not math.isnan(anchor.vmaf):
        log.warning("anchor vmaf %.3f outside coverage %s; using end range %s",
                    anchor.vmaf, decomp.coverage, range_id)
    if fault is not None:
        raise fault
    return JndPrediction(anchor.content_id, anchor.recipe_id, direction, range_id, family,
                         threshold, *delta.tolist(), *target.tolist(), *clamped.tolist())
