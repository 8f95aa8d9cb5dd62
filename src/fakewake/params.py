"""Parameter dataclasses and the defaults of the run configuration.

Each config block is a frozen dataclass whose fields are its keys, with
their defaults, and whose ``__post_init__`` checks their ranges;
``GBDTParams`` holds the ``explain`` keys of the proxy and the
``mitigate.detector`` block. The module imports nothing of the pipeline,
so reading the configuration loads none of it; the pipeline modules take
their parameter types and defaults from here too.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EvolveConfig:
    population_size: int = 100
    generations: int = 50
    fuzzy_threshold: float = 0.1
    trials: int = 10
    elitism: bool = True

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0.1 <= self.fuzzy_threshold <= 1:
            # bucket() has no band below a wake rate of 0.1
            raise ValueError("fuzzy_threshold must be in [0.1, 1]")


@dataclass(frozen=True)
class VariationConfig:
    mutation_rate: float = 0.1
    crossover_rate: float = 0.9

    def __post_init__(self):
        if not 0 <= self.mutation_rate <= 1:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover_rate must be in [0, 1]")


# English genome length per letter of the wake word
LENGTH_RATIO = 1.5


@dataclass(frozen=True)
class DistanceConfig:
    normalizer: float = 100.0      # divisor inside tanh for Chinese characters
    space_cost: float = 1.0        # boundary-vs-phoneme substitution base cost
    tone_penalty: float = 1.0      # flat character-distance charge per tone mismatch

    def __post_init__(self):
        if self.normalizer <= 0:
            raise ValueError("normalizer must be positive")
        if not 0 < self.space_cost <= 1:
            raise ValueError("space_cost must be in (0, 1]")


@dataclass(frozen=True)
class GBDTParams:
    n_trees: int = 100
    depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 2

    def __post_init__(self):
        if self.n_trees < 1 or self.depth < 1 or self.min_leaf < 1:
            raise ValueError("n_trees, depth and min_leaf must be at least 1")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")


# Shallow stumps emulate a lightweight keyword spotter: the original model
# generalizes loosely around the wake word (the vulnerability under study),
# and gains tight boundaries only where retraining negatives demand them.
DETECTOR_PARAMS = GBDTParams(n_trees=96, depth=1, learning_rate=0.5, min_leaf=2)


@dataclass(frozen=True)
class OracleConfig:
    """The simulated detector (``sim``) wakes in a trial with probability
    logistic((score - threshold) / temperature), and any unit substitution
    costs at least the floor; ``exec`` runs an external command and reads
    only ``command`` and ``timeout`` (a manifest still records every key
    as loaded)."""
    kind: str = "sim"
    command: str | None = None        # external oracle command line (exec)
    timeout: float = 30.0             # seconds for one exec oracle reply
    target: str | None = None         # defaults to the wake word
    unit_weights: list[float] | None = None   # explicit per-unit weights
    decisive_unit: int | None = None  # shortcut: index of one heavy unit
    decisive_weight: float = 0.6
    threshold: float = 0.7
    temperature: float = 0.05
    substitution_floor: float = 0.7
    seed: int | None = None           # defaults to global seed + 1000

    def __post_init__(self):
        if self.kind not in ("sim", "exec"):
            raise ValueError(
                f"kind must be 'sim' or 'exec', got {self.kind!r}")
        if self.kind == "exec":
            import shlex   # only an exec oracle needs it
            # the argv ExternalOracle starts; unbalanced quotes fail here
            if not shlex.split(self.command or "") or "\0" in self.command:
                raise ValueError("kind 'exec' requires a command line, got "
                                 f"{self.command!r}")
        if not 0 < self.timeout <= 1e6:   # select() overflows near 1e10
            raise ValueError("timeout must be in (0, 1e6] seconds")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.decisive_unit is not None and self.decisive_unit < 0:
            raise ValueError("decisive_unit must be nonnegative")
        if not 0 <= self.decisive_weight <= 1:
            raise ValueError("decisive_weight must be in [0, 1]")
        if self.unit_weights is not None:
            if self.decisive_unit is not None:
                # the shortcut would be ignored
                raise ValueError("set unit_weights or decisive_unit, not "
                                 "both")
            # the count needs the target, which SimulatedDetector parses
            if any(w < 0 for w in self.unit_weights):
                raise ValueError("unit_weights must be nonnegative")
            if abs(sum(self.unit_weights) - 1.0) > 1e-9:
                raise ValueError("unit_weights must sum to 1")


@dataclass(frozen=True)
class ExplainConfig:
    slots: int | None = None    # defaults from language and wake word
    beta: float = 0.8           # share of positive contributions factors cover
    folds: int = 10

    def __post_init__(self):
        if self.slots is not None and self.slots < 1:
            raise ValueError("slots must be at least 1")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must be in (0, 1]")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")


@dataclass(frozen=True)
class MitigateConfig:
    n_pos: int = 296            # conventional dataset size per class
    n_neg: int = 399
    jitter: float = 0.06
    collective_path: str | None = None  # defaults to the bundled list
    collective_limit: int | None = None
    screening_top_n: int = 3

    def __post_init__(self):
        if self.n_pos < 8 or self.n_neg < 8:
            raise ValueError("n_pos and n_neg must be at least 8")
        if self.jitter < 0:
            raise ValueError("jitter must be nonnegative")
        if self.collective_limit is not None and self.collective_limit < 1:
            raise ValueError("collective_limit must be at least 1")
        if self.screening_top_n < 1:
            raise ValueError("screening_top_n must be at least 1")
