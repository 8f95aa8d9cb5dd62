"""Run configuration: JSON file plus command-line overrides.

Every tunable in the pipeline lives here with its default; commands write
the full resolved snapshot into their run manifest so any output can be
reproduced bit-exactly.
"""
from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .dataio import write_json
from .distance import DistanceConfig
from .errors import ConfigError
from .evolve import EvolveConfig
from .gbdt import GBDTParams
from .genome import LENGTH_RATIO, VariationConfig
from .mitigate import DEFAULT_JITTER, DETECTOR_PARAMS, N_NEG, N_POS

DEFAULTS: dict = {
    "language": "en",
    "wake_word": "alexa",
    "seed": None,
    "oracle": {
        "kind": "sim",
        "command": None,          # external oracle command line (kind=exec)
        "timeout": 30.0,
        "target": None,           # defaults to the wake word
        "unit_weights": None,     # explicit per-unit weights
        "decisive_unit": None,    # shortcut: index of one heavy unit
        "decisive_weight": 0.6,
        "threshold": 0.7,
        "temperature": 0.05,
        "substitution_floor": 0.7,
        "seed": None,             # defaults to global seed + 1000
    },
    "evolve": {
        "population_size": 100,
        "generations": 50,
        "fuzzy_threshold": 0.1,
        "trials": 10,
        "elitism": True,
    },
    "variation": {
        "mutation_rate": 0.1,
        "crossover_rate": 0.9,
        "length_ratio": LENGTH_RATIO,
    },
    "distance": {
        "normalizer": 100.0,
        "space_cost": 1.0,
        "tone_penalty": 1.0,
    },
    "explain": {
        "slots": None,            # defaults from language and wake word
        **asdict(GBDTParams()),
        "beta": 0.8,
        "folds": 10,
    },
    "mitigate": {
        "n_pos": N_POS,
        "n_neg": N_NEG,
        "jitter": DEFAULT_JITTER,
        "detector": asdict(DETECTOR_PARAMS),
        "collective_path": None,  # defaults to the bundled list
        "collective_limit": None,
        "screening_top_n": 3,
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key: {path}{key}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, f"{path}{key}.")
        else:
            out[key] = value
    return out


@dataclass
class RunConfig:
    raw: dict = field(default_factory=lambda: copy.deepcopy(DEFAULTS))

    @classmethod
    def load(cls, path: str | Path | None = None,
             overrides: dict | None = None) -> "RunConfig":
        doc = copy.deepcopy(DEFAULTS)
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = _merge(doc, json.load(fh))
            except FileNotFoundError as exc:
                raise ConfigError(f"config file not found: {path}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if overrides:
            doc = _merge(doc, overrides)
        return cls(doc)

    # --- plain fields ----------------------------------------------------

    @property
    def language(self) -> str:
        lang = self.raw["language"]
        if lang not in ("en", "zh"):
            raise ConfigError(f"language must be 'en' or 'zh', got {lang!r}")
        return lang

    @property
    def wake_word(self) -> str:
        return self.raw["wake_word"]

    @property
    def seed(self) -> int | None:
        return self.raw["seed"]

    def require_seed(self) -> int:
        if self.raw["seed"] is None:
            raise ConfigError("this command requires an explicit seed")
        return int(self.raw["seed"])

    # --- parameter blocks -------------------------------------------------

    def evolve_config(self) -> EvolveConfig:
        b = self.raw["evolve"]
        try:
            return EvolveConfig(
                population_size=int(b["population_size"]),
                generations=int(b["generations"]),
                fuzzy_threshold=float(b["fuzzy_threshold"]),
                trials=int(b["trials"]),
                elitism=bool(b["elitism"]),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def variation_config(self) -> VariationConfig:
        b = self.raw["variation"]
        try:
            return VariationConfig(
                mutation_rate=float(b["mutation_rate"]),
                crossover_rate=float(b["crossover_rate"]),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def length_ratio(self) -> float:
        return float(self.raw["variation"]["length_ratio"])

    def distance_config(self) -> DistanceConfig:
        b = self.raw["distance"]
        try:
            return DistanceConfig(
                normalizer=float(b["normalizer"]),
                space_cost=float(b["space_cost"]),
                tone_penalty=float(b["tone_penalty"]),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def explain_params(self) -> GBDTParams:
        b = self.raw["explain"]
        return GBDTParams(
            n_trees=int(b["n_trees"]), depth=int(b["depth"]),
            learning_rate=float(b["learning_rate"]),
            min_leaf=int(b["min_leaf"]),
        )

    def detector_params(self) -> GBDTParams:
        b = self.raw["mitigate"]["detector"]
        return GBDTParams(
            n_trees=int(b["n_trees"]), depth=int(b["depth"]),
            learning_rate=float(b["learning_rate"]),
            min_leaf=int(b["min_leaf"]),
        )

    def snapshot(self) -> dict:
        return copy.deepcopy(self.raw)


def write_reference(path: str | Path):
    """The full default configuration, for documentation."""
    write_json(path, DEFAULTS)
