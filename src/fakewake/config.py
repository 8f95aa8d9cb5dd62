"""Run configuration: JSON file plus command-line overrides.

Every tunable in the pipeline lives here with its default. The defaults come
from ``params``, the parameter dataclasses and default constants that the
pipeline modules use too, so reading a configuration loads no part of the
pipeline. Each value is checked once, at load, and converted to the type of
its default (of its ``NULLABLE`` entry where the default is null); commands
write the full resolved snapshot into their run manifest so any output can
be reproduced bit-exactly.
"""
from __future__ import annotations

import copy
import json
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .dataio import write_json
from .errors import ConfigError
from .params import (DEFAULT_BETA, DEFAULT_FOLDS, DEFAULT_JITTER,
                     DEFAULT_ORACLE_TIMEOUT, DETECTOR_PARAMS, LENGTH_RATIO,
                     N_NEG, N_POS, SIM_SUBSTITUTION_FLOOR, SIM_TEMPERATURE,
                     SIM_THRESHOLD, DistanceConfig, EvolveConfig, GBDTParams,
                     VariationConfig)

DEFAULTS: dict = {
    "language": "en",
    "wake_word": "alexa",
    "seed": None,
    "oracle": {
        "kind": "sim",
        "command": None,          # external oracle command line (kind=exec)
        "timeout": DEFAULT_ORACLE_TIMEOUT,
        "target": None,           # defaults to the wake word
        "unit_weights": None,     # explicit per-unit weights
        "decisive_unit": None,    # shortcut: index of one heavy unit
        "decisive_weight": 0.6,
        "threshold": SIM_THRESHOLD,
        "temperature": SIM_TEMPERATURE,
        "substitution_floor": SIM_SUBSTITUTION_FLOOR,
        "seed": None,             # defaults to global seed + 1000
    },
    "evolve": asdict(EvolveConfig()),
    "variation": {**asdict(VariationConfig()), "length_ratio": LENGTH_RATIO},
    "distance": asdict(DistanceConfig()),
    "explain": {
        "slots": None,            # defaults from language and wake word
        **asdict(GBDTParams()),
        "beta": DEFAULT_BETA,
        "folds": DEFAULT_FOLDS,
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

# The type of each key whose default is null; list is a list of numbers.
NULLABLE = {"seed": int, "oracle.seed": int, "oracle.decisive_unit": int,
            "explain.slots": int, "mitigate.collective_limit": int,
            "oracle.command": str, "oracle.target": str,
            "mitigate.collective_path": str, "oracle.unit_weights": list}

def _convert(value, kind: type, key: str):
    """``value`` as ``kind``: numbers and numeric strings convert to a
    number type (whole numbers only to int); bool and str keys take only
    their own type; a list key takes a list of numbers."""
    if kind is list and isinstance(value, list):
        return [_convert(v, float, f"{key}[{i}]") for i, v in enumerate(value)]
    if type(value) is kind:
        return value
    if kind in (int, float) and type(value) in (int, float, str):
        with suppress(ValueError, OverflowError):
            number = kind(value)
            if number == float(value):
                return number
    raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")


def _merge(base: dict, override, path: str = "") -> dict:
    if not isinstance(override, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config'} must be an "
                          f"object, got {override!r}")
    out = copy.deepcopy(base)
    for key, value in override.items():
        dotted = path + key
        if key not in base:
            raise ConfigError(f"unknown config key: {dotted}")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], value, dotted + ".")
        elif value is None and dotted in NULLABLE:
            out[key] = None
        else:
            # values in base already have their default's type
            out[key] = _convert(value, NULLABLE.get(dotted, type(base[key])),
                                dotted)
    return out


@contextmanager
def checked(key: str):
    """Report a ValueError raised while applying the values under ``key``
    as a ConfigError naming it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


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
            except (OSError, ValueError) as exc:
                # a directory, bytes that are not UTF-8, text that is not JSON
                raise ConfigError(
                    f"config file is not readable: {exc}") from exc
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
        word = self.raw["wake_word"]
        if not word.strip():
            raise ConfigError("wake_word must not be empty")
        return word

    @property
    def seed(self) -> int | None:
        seed = self.raw["seed"]
        if seed is not None and seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        return seed

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("this command requires an explicit seed")
        return self.seed

    # --- parameter blocks -------------------------------------------------

    def _build(self, cls, block: str):
        """``cls`` from the like-named keys of the (dotted) config block."""
        values = self.raw
        for part in block.split("."):
            values = values[part]
        with checked(block):
            return cls(**{f.name: values[f.name] for f in fields(cls)})

    def evolve_config(self) -> EvolveConfig:
        return self._build(EvolveConfig, "evolve")

    def variation_config(self) -> VariationConfig:
        return self._build(VariationConfig, "variation")

    @property
    def length_ratio(self) -> float:
        return self.raw["variation"]["length_ratio"]

    def distance_config(self) -> DistanceConfig:
        return self._build(DistanceConfig, "distance")

    def explain_params(self) -> GBDTParams:
        return self._build(GBDTParams, "explain")

    def detector_params(self) -> GBDTParams:
        return self._build(GBDTParams, "mitigate.detector")

    # read before the proxy is trained, so a bad value costs no training

    @property
    def explain_folds(self) -> int:
        folds = self.raw["explain"]["folds"]
        if folds < 2:
            raise ConfigError(f"explain.folds must be at least 2, got {folds}")
        return folds

    @property
    def explain_beta(self) -> float:
        beta = self.raw["explain"]["beta"]
        if not 0 < beta <= 1:
            raise ConfigError(f"explain.beta must be in (0, 1], got {beta}")
        return beta

    def snapshot(self) -> dict:
        return copy.deepcopy(self.raw)


def write_reference(path: str | Path):
    """The full default configuration, for documentation."""
    write_json(path, DEFAULTS)
