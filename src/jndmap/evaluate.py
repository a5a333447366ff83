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

Each curve is inverted once per threshold: before any step, one array
bisection per family, :func:`jndmap.predict.invert_family`, builds that
family's inversion table, and each (threshold, family) cell reads its
threshold's column of it for every anchor and chained step.
A cell is one array program over its truths, sorted by (content, direction,
order, anchor): each chained step is one :func:`jndmap.predict.predict_step`
over the working anchors, the prediction step that
:func:`jndmap.predict.predict_jnd` makes for one anchor, and then each target
snaps to its content's nearest rendition.  An anchor outside the range
coverage is logged once per grid, with the end range it used.  The
predictions are kept as a :class:`jndmap.predict.PredictionTable`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import tableio
from .corpus import Corpus, JndTruth
from .mapping import FAMILIES, MappingFunction, family_spec
# evaluate_grid does not call predict_jnd; the benchmark's tracer wraps
# evaluate.predict_jnd by name, so it stays importable from here
from .predict import PredictionTable, invert_family, predict_jnd, predict_step  # noqa: F401
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
    predictions: PredictionTable = field(repr=False)

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


def _nearest(
    vmaf: np.ndarray, first: np.ndarray, stop: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """For each target, the code in ``first[i]:stop[i]`` whose VMAF lies
    nearest it; a tie goes to the lowest code, the smallest recipe id."""
    widths = stop - first
    starts = np.cumsum(widths) - widths
    codes = np.repeat(first - starts, widths) + np.arange(widths.sum())
    gap = np.abs(vmaf[codes] - np.repeat(target, widths))
    nearest = gap == np.repeat(np.minimum.reduceat(gap, starts), widths)
    return codes[np.minimum.reduceat(np.where(nearest, np.arange(len(codes)), len(codes)), starts)]


def evaluate_grid(
    corpus: Corpus,
    models: dict[str, dict[str, MappingFunction]],
    decomp: Decomposition,
    spec: EvalGridSpec = EvalGridSpec(),
) -> EvalGrid:
    """Score the whole (threshold x family) grid against the corpus truths.

    Each chained step of a cell is one :func:`jndmap.predict.predict_step`
    over the truths still walking; a truth whose range has no model or a
    non-monotone one is skipped in that cell."""
    truths = [
        t
        for t in corpus.truths
        if spec.orders is None or t.order in spec.orders
    ]
    if not truths:
        raise ValueError("corpus has no usable truth rows for evaluation")
    truths.sort(key=lambda t: (t.content_id, t.direction, t.order, t.anchor_recipe_id))

    table = corpus.ratings
    observed = np.array([ground_truth_delta(corpus, t) for t in truths])
    anchors = np.array([corpus.code(t.content_id, t.anchor_recipe_id) for t in truths], np.intp)
    steps = np.array([t.order if spec.chain_orders else 1 for t in truths], np.intp)
    spans = [table.content_codes[t.content_id] for t in truths]
    first = np.array([span.start for span in spans], np.intp)
    stop = np.array([span.stop for span in spans], np.intp)
    truth_directions = np.array([t.direction for t in truths])
    range_ids = decomp.range_ids()
    tables = {family: invert_family(models, range_ids, family, spec.thresholds)
              for family in spec.families}
    walked = np.zeros(len(table.vmaf), bool)  # per stimulus, whether any step starts there

    def walk(members: np.ndarray, direction: str, family: str, threshold: float,
             inverted: tuple) -> tuple:
        """The truths ``members`` through their chained steps, each step read
        from ``inverted``, the threshold's column of the family's inversion
        table.  Returns which are scored, and per truth its last step's
        working anchor code, range, |dVMAF|, target and clamped flag, and
        whether any step was clamped; the numbers of a truth that is not
        scored mean nothing."""
        n = len(members)
        code, scored = anchors[members], np.ones(n, bool)
        k_last, delta, target = np.zeros(n, np.intp), np.zeros(n), np.zeros(n)
        clamped, any_clamped = np.zeros(n, bool), np.zeros(n, bool)
        for step in range(int(steps[members].max())):
            (rows,) = np.nonzero(scored & (steps[members] > step))
            walked[code[rows]] = True
            k, d, t, c, faults = predict_step(decomp, table.vmaf[code[rows]], direction,
                                              *inverted)
            for row, fault in zip(rows.tolist(), faults):
                if fault is not None:
                    scored[row] = False
                    log.debug("skipping %s/%s@%g for %s: %s", family, direction, threshold,
                              truths[members[row]].content_id, fault)
            k_last[rows], delta[rows], target[rows], clamped[rows] = k, d, t, c
            rows = rows[scored[rows]]
            any_clamped[rows] |= clamped[rows]
            going = rows[steps[members[rows]] > step + 1]
            if len(going):
                snap = members[going]
                code[going] = _nearest(table.vmaf, first[snap], stop[snap], target[going])
        return scored, code, k_last, delta, target, clamped, any_clamped

    cells: dict[tuple[str, str, float], CellMetrics] = {}
    keys, ids = np.array(table.keys, dtype=object), np.array(range_ids, dtype=object)
    predictions = []
    for direction in sorted(set(truth_directions.tolist())):
        (members,) = np.nonzero(truth_directions == direction)
        for family in spec.families:
            inverted_delta, inverted_clamped, stops = tables[family]
            for column, threshold in enumerate(spec.thresholds):
                inverted = inverted_delta[:, column], inverted_clamped[:, column], stops
                scored, code, k, delta, target, clamped, any_clamped = walk(
                    members, direction, family, threshold, inverted)
                at = members[scored]
                errors = (np.abs(table.vmaf[anchors[at]] - target[scored]) - observed[at]).tolist()
                if errors:
                    mae = sum(abs(e) for e in errors) / len(errors)
                    rmse = math.sqrt(sum(e * e for e in errors) / len(errors))
                else:
                    mae = rmse = None
                cells[(direction, family, threshold)] = CellMetrics(
                    mae=mae,
                    rmse=rmse,
                    n=len(errors),
                    clamped=int(any_clamped[scored].sum()),
                    skipped=len(members) - len(errors),
                )
                n, code = len(errors), code[scored]
                predictions.append(PredictionTable(
                    content_id=keys[code, 0], anchor_recipe_id=keys[code, 1],
                    direction=np.repeat(direction, n), range_id=ids[k[scored]],
                    family=np.repeat(family, n), threshold=np.repeat(threshold, n),
                    delta_obj_jnd=delta[scored], target_vmaf=target[scored],
                    clamped=clamped[scored]))
    index, outside = decomp.locate(table.vmaf)
    for code in np.nonzero(walked & outside)[0].tolist():
        log.warning("anchor %s/%s vmaf %.3f outside coverage %s; using end range %s",
                    *table.keys[code], table.vmaf[code], decomp.coverage, range_ids[index[code]])
    return EvalGrid(spec=spec, cells=cells, predictions=PredictionTable.concat(predictions))


# -- serialization ----------------------------------------------------------


def metrics_json_dict(grid: EvalGrid) -> dict:
    """Nested direction -> family -> threshold -> metric mapping."""
    out: dict = {}
    for (direction, family, threshold), cell in sorted(grid.cells.items()):
        out.setdefault(direction, {}).setdefault(family, {})[f"{threshold:g}"] = tableio.to_json(cell)
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
