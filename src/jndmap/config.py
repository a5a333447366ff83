"""Run configuration: JSON-file round-trippable settings for the pipeline."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import tableio
from .mapping import FAMILIES, GLM_MODES, family_spec
from .ranges import check_settings, check_width
from .screening import METHODS as SCREENING_METHODS
from .significance import TESTS


@dataclass(frozen=True)
class DecompositionConfig:
    strategy: str = "balanced"
    k: int = 5  # balanced
    width: float = 10.0  # fixed_width
    bounds: tuple[float, ...] | None = None  # explicit
    balance: str = "stimuli"  # balanced: "stimuli" | "pairs"


@dataclass(frozen=True)
class RunConfig:
    alpha: float = 0.05
    test: str = "welch"
    screening: str = "bt500"
    decomposition: DecompositionConfig = field(default_factory=DecompositionConfig)
    bin_width: float = 2.0
    families: tuple[str, ...] = FAMILIES
    thresholds: tuple[float, ...] = (0.75, 0.8, 0.85, 0.9, 0.95)
    glm_mode: str = "pairwise"
    chain_orders: bool = True

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.test not in TESTS:
            raise ValueError(f"test must be one of {TESTS}, got {self.test!r}")
        if self.screening not in SCREENING_METHODS:
            raise ValueError(
                f"screening must be one of {SCREENING_METHODS}, got {self.screening!r}"
            )
        dc = self.decomposition
        check_settings(dc.strategy, dc.k, dc.width, dc.bounds, dc.balance)
        check_width(self.bin_width, "bin_width", "bins")
        for family in self.families:
            family_spec(family)  # raises on an unknown family
        for thr in self.thresholds:
            if not 0.0 < thr < 1.0:
                raise ValueError(f"thresholds must be in (0, 1), got {thr}")
        for key in ("families", "thresholds"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise ValueError(f"{key}: each may be listed once, got {list(values)}")
        if self.glm_mode not in GLM_MODES:
            raise ValueError(f"glm_mode must be one of {GLM_MODES}, got {self.glm_mode!r}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        return tableio.dataclass_from_json(
            cls,
            data,
            decomposition=lambda dk: tableio.dataclass_from_json(
                DecompositionConfig,
                dk,
                bounds=lambda bs: None if bs is None else tuple(float(b) for b in bs),
            ),
            families=tuple,
            thresholds=lambda ts: tuple(float(t) for t in ts),
        )


def load_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return tableio.read_json(path, RunConfig.from_json_dict)
