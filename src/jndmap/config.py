"""Run configuration: JSON-file round-trippable settings for the pipeline."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import tableio
from .errors import ConfigError, CorpusError
from .evaluate import EvalGridSpec
from .mapping import FAMILIES, GLM_MODES, family_spec
from .ranges import Balanced, Strategy, check_width
from .screening import METHODS as SCREENING_METHODS
from .significance import TESTS


@dataclass(frozen=True)
class RunConfig:
    alpha: float = 0.05
    test: str = "welch"
    screening: str = "bt500"
    #: One strategy's settings; its JSON object's ``strategy`` key names it.
    decomposition: Strategy = field(default_factory=Balanced)
    bin_width: float = 2.0
    families: tuple[str, ...] = FAMILIES
    thresholds: tuple[float, ...] = EvalGridSpec.thresholds
    glm_mode: str = "pairwise"
    chain_orders: bool = True

    def validate(self) -> None:
        """Raise ValueError for a setting out of range; the message starts with
        the setting's key path, as ``decomposition/k: must be >= 2, got 1``."""
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha: must be in (0, 1), got {self.alpha}")
        for key, choices in [("test", TESTS), ("screening", SCREENING_METHODS),
                             ("glm_mode", GLM_MODES)]:
            if getattr(self, key) not in choices:
                raise ValueError(f"{key}: must be one of {choices}, got {getattr(self, key)!r}")
        try:
            self.decomposition.validate()
        except ValueError as exc:
            raise ValueError(f"decomposition/{exc}") from None
        check_width(self.bin_width, "bin_width", "bins")
        try:
            for family in self.families:
                family_spec(family)  # raises on an unknown family
        except ValueError as exc:
            raise ValueError(f"families: {exc}") from None
        for thr in self.thresholds:
            if not 0.0 < thr < 1.0:
                raise ValueError(f"thresholds: must be in (0, 1), got {thr}")
        for key in ("families", "thresholds"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key}: need at least one value, got []")
            if len(set(values)) < len(values):
                raise ValueError(f"{key}: each may be listed once, got {list(values)}")

    def to_json_dict(self) -> dict:
        decomposition = {"strategy": self.decomposition.strategy, **asdict(self.decomposition)}
        return {**asdict(self), "decomposition": decomposition}


def load_config(path: str | Path | None) -> RunConfig:
    """The settings of the config file at ``path`` (the defaults for None);
    any error in the file raises :class:`ConfigError` naming it."""
    if path is None:
        return RunConfig()
    try:
        return tableio.read_json(path, lambda data: tableio.from_json(RunConfig, data))
    except CorpusError as exc:
        raise ConfigError(str(exc)) from None
