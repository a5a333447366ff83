"""Grid evaluation of JND predictions against ground-truth renditions.

For every (threshold, family) cell the predicted one-JND |dVMAF| of each
truth anchor is compared with the observed |dVMAF| between anchor and truth
rendition; the cell reports MAE, RMSE, the number of scored truths, and how
many predictions were clamped.  Clamped predictions stay in the averages --
hiding them would flatter the metrics.

Truths of order m > 1 are scored by chaining m single-JND steps: after each
step the working anchor snaps to the content's rendition nearest the
predicted target, mimicking how a ladder is walked in practice.  Chaining can
be disabled, in which case every truth is scored like a first JND.

Each curve is inverted once per threshold: one inversion table, keyed by
(range, family, threshold), serves every anchor and chained step of a grid.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from .corpus import Corpus, JndTruth, Stimulus
from .errors import FitError
from .mapping import FAMILIES, MappingFunction, family_spec
from .predict import JndPrediction, predict_jnd
from .ranges import Decomposition

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalGridSpec:
    thresholds: tuple[float, ...] = (0.75, 0.8, 0.85, 0.9, 0.95)
    families: tuple[str, ...] = FAMILIES
    chain_orders: bool = True
    orders: tuple[int, ...] | None = None  # restrict to these truth orders


@dataclass(frozen=True)
class CellMetrics:
    mae: float | None
    rmse: float | None
    n: int
    clamped: int
    skipped: int = 0


@dataclass(frozen=True)
class EvalGrid:
    spec: EvalGridSpec
    cells: dict[tuple[str, str, float], CellMetrics]  # (direction, family, thr)
    predictions: tuple[JndPrediction, ...] = field(default=(), repr=False)

    def cell(self, direction: str, family: str, threshold: float) -> CellMetrics:
        return self.cells[(direction, family, threshold)]

    def best_cell(self) -> tuple[tuple[str, str, float], CellMetrics]:
        scored = {k: c for k, c in self.cells.items() if c.mae is not None}
        if not scored:
            raise ValueError("no grid cell produced any scored prediction")
        key = min(scored, key=lambda k: (scored[k].mae, k))
        return key, scored[key]


def ground_truth_delta(corpus: Corpus, truth: JndTruth) -> float:
    """Observed |dVMAF| between a truth's anchor and its JND rendition."""
    anchor = corpus.stimulus(truth.content_id, truth.anchor_recipe_id)
    jnd = corpus.stimulus(truth.content_id, truth.jnd_recipe_id)
    if truth.anchor_recipe_id == truth.jnd_recipe_id:
        log.warning(
            "degenerate truth for %s: anchor and JND rendition coincide (%s)",
            truth.content_id,
            truth.anchor_recipe_id,
        )
    return abs(anchor.vmaf - jnd.vmaf)


def _nearest_stimulus(corpus: Corpus, content_id: str, target_vmaf: float) -> Stimulus:
    candidates = corpus.stimuli_for_content(content_id)
    return min(candidates, key=lambda s: (abs(s.vmaf - target_vmaf), s.recipe_id))


def _chained_prediction(
    corpus: Corpus,
    models: dict[str, dict[str, MappingFunction]],
    decomp: Decomposition,
    truth: JndTruth,
    threshold: float,
    family: str,
    chain: bool,
    inversions: dict,
) -> tuple[float, bool, JndPrediction]:
    """Predicted total |dVMAF| from the truth anchor to its m-th JND."""
    anchor = corpus.stimulus(truth.content_id, truth.anchor_recipe_id)
    steps = truth.order if chain else 1
    current = anchor
    clamped = False
    pred = None
    for step in range(steps):
        pred = predict_jnd(
            models, decomp, current, truth.direction, threshold, family, inversions
        )
        clamped = clamped or pred.clamped
        if step + 1 < steps:
            current = _nearest_stimulus(corpus, truth.content_id, pred.target_vmaf)
    assert pred is not None
    total = abs(anchor.vmaf - pred.target_vmaf)
    return total, clamped, pred


def evaluate_grid(
    corpus: Corpus,
    models: dict[str, dict[str, MappingFunction]],
    decomp: Decomposition,
    spec: EvalGridSpec = EvalGridSpec(),
) -> EvalGrid:
    """Score the whole (threshold x family) grid against the corpus truths."""
    truths = [
        t
        for t in corpus.truths
        if spec.orders is None or t.order in spec.orders
    ]
    if not truths:
        raise ValueError("corpus has no usable truth rows for evaluation")
    truths.sort(key=lambda t: (t.content_id, t.direction, t.order, t.anchor_recipe_id))

    observed_deltas = [(t, ground_truth_delta(corpus, t)) for t in truths]

    cells: dict[tuple[str, str, float], CellMetrics] = {}
    collected: list[JndPrediction] = []
    inversions: dict = {}
    directions = sorted({t.direction for t in truths})
    for direction in directions:
        dir_truths = [(t, obs) for t, obs in observed_deltas if t.direction == direction]
        for family in spec.families:
            for threshold in spec.thresholds:
                errors = []
                clamped_count = 0
                skipped = 0
                for truth, observed in dir_truths:
                    try:
                        predicted, clamped, pred = _chained_prediction(
                            corpus, models, decomp, truth, threshold, family,
                            spec.chain_orders, inversions,
                        )
                    except (KeyError, FitError) as exc:
                        log.debug("skipping %s/%s@%g for %s: %s",
                                  family, direction, threshold, truth.content_id, exc)
                        skipped += 1
                        continue
                    errors.append(predicted - observed)
                    clamped_count += int(clamped)
                    collected.append(pred)
                if errors:
                    mae = sum(abs(e) for e in errors) / len(errors)
                    rmse = math.sqrt(sum(e * e for e in errors) / len(errors))
                else:
                    mae = rmse = None
                cells[(direction, family, threshold)] = CellMetrics(
                    mae=mae,
                    rmse=rmse,
                    n=len(errors),
                    clamped=clamped_count,
                    skipped=skipped,
                )
    return EvalGrid(spec=spec, cells=cells, predictions=tuple(collected))


# -- serialization ----------------------------------------------------------


def metrics_json_dict(grid: EvalGrid) -> dict:
    """Nested direction -> family -> threshold -> metric mapping."""
    out: dict = {}
    for (direction, family, threshold), cell in sorted(grid.cells.items()):
        out.setdefault(direction, {}).setdefault(family, {})[f"{threshold:g}"] = {
            "mae": cell.mae,
            "rmse": cell.rmse,
            "n": cell.n,
            "clamped": cell.clamped,
            "skipped": cell.skipped,
        }
    return out


def format_grid_table(grid: EvalGrid, direction: str) -> str:
    """Aligned text table, thresholds down the side and families across.

    Layout mirrors the classic benchmark tables: one block of MAE rows, one of
    RMSE rows, families as columns under their short labels.
    """
    families = [f for f in grid.spec.families]
    labels = [family_spec(f).label for f in families]
    width = max(8, *(len(lbl) + 2 for lbl in labels))
    head = "threshold".ljust(10) + "".join(lbl.rjust(width) for lbl in labels)
    lines = [f"direction: {direction}", "", "MAE", head, "-" * len(head)]

    def fmt(value: float | None) -> str:
        return "-" if value is None else f"{value:.4f}"

    for metric in ("mae", "rmse"):
        if metric == "rmse":
            lines += ["", "RMSE", head, "-" * len(head)]
        for threshold in grid.spec.thresholds:
            row = f"{threshold:<10g}"
            for family in families:
                cell = grid.cells.get((direction, family, threshold))
                value = getattr(cell, metric) if cell else None
                row += fmt(value).rjust(width)
            lines.append(row)
    return "\n".join(lines) + "\n"
