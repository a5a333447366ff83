"""Invert fitted mapping functions to predict the |dVMAF| of one JND.

Given an anchor rendition, we pick the sub-quality range containing its VMAF,
look up the requested curve family, and find the smallest |dVMAF| in the
curve's domain whose predicted probability of a perceived difference reaches
the decision threshold.  Monotone curves make that a bisection; when the
threshold is not strictly bracketed inside the domain the nearest endpoint is
returned with ``clamped`` set.  The target VMAF follows by stepping the anchor
down (``dec``) or up (``inc``) and clipping into [0, 100].
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import tableio
from .corpus import Stimulus
from .errors import FitError
from .mapping import MappingFunction, evaluate_mf
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


def select_range(decomp: Decomposition, anchor_vmaf: float) -> tuple[str, bool]:
    """Range id holding ``anchor_vmaf``; outside coverage snaps to the nearest
    end range and reports it via the second element."""
    lo, hi = decomp.coverage
    if anchor_vmaf <= lo:
        return decomp.ranges[0].range_id, True
    if anchor_vmaf > hi:
        return decomp.ranges[-1].range_id, True
    return decomp.find_range(anchor_vmaf).range_id, False


def invert_at_threshold(mf: MappingFunction, threshold: float) -> tuple[float, bool]:
    """Smallest delta in the domain with ``mf(delta) >= threshold``.

    Returns ``(delta, clamped)``.  ``clamped`` is set when the threshold is
    not strictly bracketed: the curve already meets it at the domain start, or
    never reaches it (then ``delta`` is the domain end).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if not mf.fit_report.monotone:
        raise FitError(
            f"{mf.family} fit is flagged non-monotone; refusing to invert"
        )
    lo, hi = mf.domain
    if evaluate_mf(mf, lo) >= threshold:
        return lo, True
    if evaluate_mf(mf, hi) < threshold:
        return hi, True
    # 100 halvings shrink the bracket far below the 1e-6 reporting tolerance.
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if evaluate_mf(mf, mid) >= threshold:
            hi = mid
        else:
            lo = mid
        if hi - lo <= INVERSION_TOL * 1e-3:
            break
    return hi, False


def predict_jnd(
    models: dict[str, dict[str, MappingFunction]],
    decomp: Decomposition,
    anchor: Stimulus,
    direction: str,
    threshold: float,
    family: str,
    inversions: dict | None = None,
) -> JndPrediction:
    """Predict the |dVMAF| of one JND away from ``anchor`` and the target VMAF.

    The inversion does not depend on the anchor: a caller predicting for many
    anchors passes one ``inversions`` dict, which memoises
    :func:`invert_at_threshold` by ``(range_id, family, threshold)`` for one
    ``models``.  A non-monotone curve's :class:`FitError` is stored too and
    raised again on every lookup.
    """
    if direction not in ("inc", "dec"):
        raise ValueError(f"direction must be 'inc' or 'dec', got {direction!r}")
    range_id, range_clamped = select_range(decomp, anchor.vmaf)
    if range_clamped:
        log.warning(
            "anchor vmaf %.3f outside coverage %s; using end range %s",
            anchor.vmaf,
            decomp.coverage,
            range_id,
        )
    try:
        mf = models[range_id][family]
    except KeyError:
        raise KeyError(
            f"no fitted {family} model for range {range_id}"
        ) from None
    delta, inv_clamped = _inversion(inversions, range_id, mf, threshold)
    raw_target = anchor.vmaf - delta if direction == "dec" else anchor.vmaf + delta
    target = min(max(raw_target, 0.0), 100.0)
    return JndPrediction(
        content_id=anchor.content_id,
        anchor_recipe_id=anchor.recipe_id,
        direction=direction,
        range_id=range_id,
        family=family,
        threshold=threshold,
        delta_obj_jnd=delta,
        target_vmaf=target,
        clamped=range_clamped or inv_clamped or target != raw_target,
    )


def _inversion(
    inversions: dict | None, range_id: str, mf: MappingFunction, threshold: float
) -> tuple[float, bool]:
    if inversions is None:
        return invert_at_threshold(mf, threshold)
    key = (range_id, mf.family, threshold)
    if key not in inversions:
        try:
            inversions[key] = invert_at_threshold(mf, threshold)
        except FitError as exc:
            inversions[key] = exc
    found = inversions[key]
    if isinstance(found, FitError):
        # a fresh exception each time, so no traceback piles up on the stored one
        raise FitError(str(found))
    return found


# -- serialization ----------------------------------------------------------


def predictions_csv_text(predictions: list[JndPrediction]) -> str:
    rows = [
        (
            p.content_id,
            p.anchor_recipe_id,
            p.direction,
            p.range_id,
            p.family,
            p.threshold,
            p.delta_obj_jnd,
            p.target_vmaf,
            int(p.clamped),
        )
        for p in predictions
    ]
    return tableio.rows_to_csv_text(PREDICTION_COLUMNS, rows)
