"""Synthetic DCR corpus generator with a known, recoverable JND scale.

The simulator builds per-content encoding ladders (a shared VMAF template
plus per-content offset and per-rung jitter), synthesizes 5-level DCR scores
against the best rung as hidden reference, and emits ground-truth JND rows by
running the same bisection protocol a subjective ladder study would:

* rating model:    score = clamp(round(5 - impairment + noise), 1, 5) with
                   impairment = min(0.08 * dVMAF_to_reference, 4.0)
* detection model: P(detect | dVMAF) = 1 / (1 + exp(-slope*(dVMAF - jnd)))
                   with a per-observer jnd offset; a strict majority of the
                   panel must detect for a bisection query to count.

All randomness comes from counter-based Philox4x64 generators keyed as
``(seed, stream)`` -- stream 2**62 drives observer offsets, stream i drives
content i -- so contents are reproducible independently of generation order
and the whole corpus is a pure function of the ``SimSpec``.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import tableio
from .corpus import Corpus, DcrRating, JndTruth, Recipe, Stimulus

log = logging.getLogger(__name__)

IMPAIRMENT_SLOPE = 0.08  # DCR score units per VMAF unit
IMPAIRMENT_MAX = 4.0  # a score cannot drop below 5 - 4 = 1
OBSERVER_STREAM = 2**62  # Philox stream reserved for observer offsets


@dataclass(frozen=True)
class SimSpec:
    """Generator settings; `ladder` maps recipe ids to template VMAFs (best first)."""

    n_contents: int = 30
    ladder: tuple[tuple[str, float], ...] = (
        ("r01", 95.0),
        ("r02", 92.8),
        ("r03", 90.6),
        ("r04", 88.4),
        ("r05", 86.2),
        ("r06", 84.0),
        ("r07", 81.8),
        ("r08", 79.6),
        ("r09", 77.4),
        ("r10", 75.2),
        ("r11", 73.0),
        ("r12", 70.8),
    )
    observer_count: int = 24
    jnd_scale: float = 6.0
    detection_slope: float = 2.0
    rating_noise_sd: float = 0.55
    seed: int = 1729
    jnd_jitter_sd: float = 0.5  # per-observer spread of the detection midpoint
    content_spread: float = 3.0  # uniform shift of a content's whole ladder
    ladder_jitter: float = 0.2  # per-rung jitter as a fraction of the min gap

    def validate(self) -> None:
        if self.n_contents < 1:
            raise ValueError(f"n_contents must be >= 1, got {self.n_contents}")
        if len(self.ladder) < 3:
            raise ValueError(f"ladder needs >= 3 rungs, got {len(self.ladder)}")
        vmafs = [v for _, v in self.ladder]
        if any(not a > b for a, b in zip(vmafs, vmafs[1:])):
            raise ValueError("ladder VMAFs must be strictly decreasing")
        ids = [r for r, _ in self.ladder]
        if len(set(ids)) != len(ids):
            raise ValueError("ladder recipe ids must be unique")
        if self.observer_count < 2:
            raise ValueError(f"observer_count must be >= 2, got {self.observer_count}")
        if not 0.0 <= self.ladder_jitter < 0.5:
            raise ValueError("ladder_jitter must be in [0, 0.5) to keep rungs ordered")
        if self.detection_slope <= 0:
            raise ValueError("detection_slope must be positive")
        for name in ("rating_noise_sd", "jnd_jitter_sd", "content_spread", "jnd_scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        margin = self.content_spread + self.ladder_jitter * self._min_gap()
        if vmafs[0] + margin > 100.0 or vmafs[-1] - margin < 0.0:
            raise ValueError(
                "ladder template plus content_spread/jitter can leave [0, 100]; "
                "shrink the spread or move the template inward"
            )

    def _min_gap(self) -> float:
        vmafs = [v for _, v in self.ladder]
        return min(a - b for a, b in zip(vmafs, vmafs[1:]))

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimSpec":
        return tableio.dataclass_from_json(
            cls, data, ladder=lambda rungs: tuple((str(r), float(v)) for r, v in rungs)
        )


def bisection_search(
    ladder: Sequence[object],
    anchor_index: int,
    direction: str,
    detector: Callable[[int], bool],
) -> int | None:
    """First ladder index away from the anchor whose comparison is detected.

    ``detector(index)`` answers one comparison of ladder[index] against the
    anchor.  The anchor must sit at the extreme matching ``direction`` ("dec"
    walks down from index 0, "inc" walks up from the last index).  Uses
    ceil(log2(len)) queries; returns None when even the far end goes
    undetected ("beyond ladder").
    """
    size = len(ladder)
    if size < 3:
        raise ValueError(f"ladder must have >= 3 rungs, got {size}")
    if direction == "dec":
        if anchor_index != 0:
            raise ValueError("dec search must anchor at index 0 (best rung)")
        step = 1
    elif direction == "inc":
        if anchor_index != size - 1:
            raise ValueError("inc search must anchor at the last index (worst rung)")
        step = -1
    else:
        raise ValueError(f"direction must be 'inc' or 'dec', got {direction!r}")

    def index_at(distance: int) -> int:
        return anchor_index + step * distance

    far = size - 1
    if not detector(index_at(far)):
        return None
    lo, hi = 0, far  # distances: lo undetected (anchor itself), hi detected
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if detector(index_at(mid)):
            hi = mid
        else:
            lo = mid
    return index_at(hi)


def _content_generator(seed: int, stream: int) -> np.random.Generator:
    mask = (1 << 64) - 1
    return np.random.Generator(np.random.Philox(key=[seed & mask, stream & mask]))


def simulate_corpus(spec: SimSpec) -> tuple[Corpus, dict]:
    """Generate (corpus, truth_info); the corpus carries order-1 truth rows.

    ``truth_info["true_deltas"]`` maps ``(content_id, direction)`` to the
    realized |dVMAF| of the emitted JND rendition; searches that never fire
    are listed under ``"beyond_ladder"`` instead.
    """
    spec.validate()
    n_rungs = len(spec.ladder)
    observers = [f"o{i + 1:02d}" for i in range(spec.observer_count)]
    obs_gen = _content_generator(spec.seed, OBSERVER_STREAM)
    jnd_offsets = obs_gen.normal(0.0, spec.jnd_jitter_sd, size=spec.observer_count)

    jitter_abs = spec.ladder_jitter * spec._min_gap()
    stimuli: list[Stimulus] = []
    ratings: list[DcrRating] = []
    truths: list[JndTruth] = []
    true_deltas: dict[tuple[str, str], float] = {}
    beyond: list[tuple[str, str]] = []

    for ci in range(spec.n_contents):
        content_id = f"c{ci:02d}"
        gen = _content_generator(spec.seed, ci)
        offset = gen.uniform(-spec.content_spread, spec.content_spread)
        rung_jitter = gen.uniform(-jitter_abs, jitter_abs, size=n_rungs) if jitter_abs else np.zeros(n_rungs)
        vmafs = [v + offset + float(j) for (_, v), j in zip(spec.ladder, rung_jitter)]
        for idx, ((recipe_id, _), vmaf) in enumerate(zip(spec.ladder, vmafs)):
            stimuli.append(
                Stimulus(content_id, Recipe(recipe_id, "1080p", idx + 1), vmaf)
            )
        ref_vmaf = vmafs[0]

        # DCR panel: one score per (rung, observer), rung-major order.
        for idx, (recipe_id, _) in enumerate(spec.ladder):
            impairment = min(IMPAIRMENT_SLOPE * (ref_vmaf - vmafs[idx]), IMPAIRMENT_MAX)
            noise = (
                gen.normal(0.0, spec.rating_noise_sd, size=spec.observer_count)
                if spec.rating_noise_sd > 0
                else np.zeros(spec.observer_count)
            )
            for obs, eps in zip(observers, noise):
                raw = 5.0 - impairment + float(eps)
                score = int(np.floor(raw + 0.5))  # round half away from zero
                ratings.append(
                    DcrRating(content_id, recipe_id, obs, max(1, min(5, score)))
                )

        # JND truths: majority-panel bisection in both directions.
        def make_detector(anchor_vmaf: float) -> Callable[[int], bool]:
            def detector(index: int) -> bool:
                delta = abs(anchor_vmaf - vmafs[index])
                draws = gen.uniform(0.0, 1.0, size=spec.observer_count)
                hits = 0
                for u, off in zip(draws, jnd_offsets):
                    z = spec.detection_slope * (delta - (spec.jnd_scale + off))
                    p = 1.0 / (1.0 + math.exp(-max(-500.0, min(500.0, z))))
                    hits += u < p
                return 2 * hits > spec.observer_count

            return detector

        for direction, anchor_idx in (("dec", 0), ("inc", n_rungs - 1)):
            found = bisection_search(
                spec.ladder, anchor_idx, direction, make_detector(vmafs[anchor_idx])
            )
            if found is None:
                beyond.append((content_id, direction))
                continue
            truths.append(
                JndTruth(
                    content_id=content_id,
                    anchor_recipe_id=spec.ladder[anchor_idx][0],
                    direction=direction,
                    jnd_recipe_id=spec.ladder[found][0],
                    order=1,
                )
            )
            true_deltas[(content_id, direction)] = abs(vmafs[anchor_idx] - vmafs[found])

    corpus = Corpus(stimuli=tuple(stimuli), ratings=tuple(ratings), truths=tuple(truths))
    info = {
        "spec": spec.to_json_dict(),
        "true_deltas": true_deltas,
        "beyond_ladder": beyond,
    }
    log.info(
        "simulated %d contents, %d ratings, %d truths (%d beyond ladder)",
        spec.n_contents,
        len(ratings),
        len(truths),
        len(beyond),
    )
    return corpus, info


# -- serialization ----------------------------------------------------------


def truth_info_json_dict(info: dict) -> dict:
    return {
        "spec": info["spec"],
        "true_deltas": {
            f"{cid}:{direction}": delta
            for (cid, direction), delta in sorted(info["true_deltas"].items())
        },
        "beyond_ladder": [f"{cid}:{direction}" for cid, direction in sorted(info["beyond_ladder"])],
    }


def read_sim_spec_json(path: str | Path) -> SimSpec:
    return tableio.read_json(path, SimSpec.from_json_dict)
