"""Run configuration: JSON file plus command-line overrides.

Every tunable in the pipeline lives here with its default. Each block is a
checked dataclass of ``params`` (the types and defaults the pipeline
modules use too), so reading a configuration loads no part of the pipeline,
and ``DEFAULTS`` is built from those dataclasses. ``RunConfig.load`` checks
each value's type and converts it to the type of its default (of its
``NULLABLE`` entry where the default is null), then builds every block
once, so a value out of range fails the load whatever the command.
Commands read the built blocks and write the full resolved snapshot into
their run manifest so any output can be reproduced bit-exactly. ``explain``
and ``mitigate`` run on an archive's language and wake word, so theirs
holds the archive's in place of the config's.
"""
from __future__ import annotations

import copy
import json
import math
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .dataio import write_json
from .errors import ConfigError
from .params import (DETECTOR_PARAMS, LENGTH_RATIO, DistanceConfig,
                     EvolveConfig, ExplainConfig, GBDTParams, MitigateConfig,
                     OracleConfig, VariationConfig)

DEFAULTS: dict = {
    "language": "en",
    "wake_word": "alexa",
    "seed": None,
    "oracle": asdict(OracleConfig()),
    "evolve": asdict(EvolveConfig()),
    "variation": {**asdict(VariationConfig()), "length_ratio": LENGTH_RATIO},
    "distance": asdict(DistanceConfig()),
    # one block feeds both the proxy's GBDTParams and ExplainConfig
    "explain": {**asdict(ExplainConfig()), **asdict(GBDTParams())},
    "mitigate": {**asdict(MitigateConfig()),
                 "detector": asdict(DETECTOR_PARAMS)},
}

# The type of each key whose default is null, the T of its field's
# ``T | None``; list is a list of numbers.
NULLABLE = {"seed": int, **{
    f"{block}.{name}": get_origin(kind) or kind
    for block, cls in (("oracle", OracleConfig), ("explain", ExplainConfig),
                       ("mitigate", MitigateConfig))
    for name, hint in get_type_hints(cls).items()
    if type(None) in get_args(hint)
    for kind in get_args(hint) if kind is not type(None)}}


def _convert(value, kind: type, key: str):
    """``value`` as ``kind``: finite numbers and numeric strings convert to
    a number type (whole numbers only to int); bool and str keys take only
    their own type; a list key takes a list of numbers."""
    if kind is list and isinstance(value, list):
        return [_convert(v, float, f"{key}[{i}]") for i, v in enumerate(value)]
    if type(value) is kind and kind is not float:
        return value
    if kind in (int, float) and type(value) in (int, float, str):
        with suppress(ValueError, OverflowError):
            number = kind(value)
            # json reads NaN and Infinity; nan != nan
            if number == float(value) and math.isfinite(number):
                return number
    raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")


def _object(pairs) -> dict:
    """A config file's JSON object; a key it repeats has the value ``...``."""
    keys = [key for key, _ in pairs]
    return {k: ... if keys.count(k) > 1 else v for k, v in pairs}


def _merge(base: dict, override, path: str = "") -> dict:
    if not isinstance(override, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config'} must be an "
                          f"object, got {override!r}")
    out = copy.deepcopy(base)
    for key, value in override.items():
        dotted = path + key
        if value is ...:   # a key its object repeats (``_object``)
            raise ConfigError(f"repeated config key: {dotted}")
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
    """A loaded configuration: ``raw``, the resolved document a manifest
    snapshots, checked and built once into the plain ``language``,
    ``wake_word``, ``seed`` and ``length_ratio`` and the blocks: ``oracle``,
    ``evolve``, ``variation``, ``distance``, ``explain``, ``proxy`` (the
    explain keys of ``GBDTParams``), ``mitigate`` and ``detector``."""

    raw: dict = field(default_factory=lambda: copy.deepcopy(DEFAULTS))

    def __post_init__(self):
        raw = self.raw
        self.language = raw["language"]
        if self.language not in ("en", "zh"):
            raise ConfigError(
                f"language must be 'en' or 'zh', got {self.language!r}")
        self.wake_word = word = raw["wake_word"]
        # the canonical form an archive's wake word must have
        if not word or " ".join(word.split()) != word:
            raise ConfigError("wake_word must be nonempty with single spaces "
                              f"between its parts, got {word!r}")
        self.seed = raw["seed"]
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        self.length_ratio = raw["variation"]["length_ratio"]
        # below 1 the wake word never fits its genome; nan fails too
        if not 1 <= self.length_ratio <= 10:
            raise ConfigError("variation: length_ratio must be in [1, 10], "
                              f"got {self.length_ratio}")
        self.oracle = self._build(OracleConfig, "oracle")
        self.evolve = self._build(EvolveConfig, "evolve")
        self.variation = self._build(VariationConfig, "variation")
        self.distance = self._build(DistanceConfig, "distance")
        self.explain = self._build(ExplainConfig, "explain")
        self.proxy = self._build(GBDTParams, "explain")
        self.mitigate = self._build(MitigateConfig, "mitigate")
        self.detector = self._build(GBDTParams, "mitigate.detector")

    def _build(self, cls, block: str):
        """``cls`` from the like-named keys of the (dotted) config block."""
        values = self.raw
        for part in block.split("."):
            values = values[part]
        with checked(block):
            return cls(**{f.name: values[f.name] for f in fields(cls)})

    @classmethod
    def load(cls, path: str | Path | None = None,
             overrides: dict | None = None) -> "RunConfig":
        doc = copy.deepcopy(DEFAULTS)
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = _merge(doc, json.load(fh, object_pairs_hook=_object))
            except FileNotFoundError as exc:
                raise ConfigError(f"config file not found: {path}") from exc
            except (OSError, ValueError) as exc:
                # a directory, bytes that are not UTF-8, text that is not JSON
                raise ConfigError(
                    f"config file is not readable: {exc}") from exc
        if overrides:
            doc = _merge(doc, overrides)
        return cls(doc)

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("this command requires an explicit seed")
        return self.seed

    def snapshot(self) -> dict:
        return copy.deepcopy(self.raw)


def write_reference(path: str | Path):
    """The full default configuration, for documentation."""
    write_json(path, DEFAULTS)
