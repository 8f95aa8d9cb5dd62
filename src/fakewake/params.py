"""Parameter dataclasses and the defaults of the run configuration.

Every default ``config.DEFAULTS`` reads lives here, in a module that imports
nothing of the pipeline, so that reading the configuration loads none of it.
The pipeline modules take their parameter types and defaults from here too.
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


# The simulated wake detector: a trial wakes with probability
# logistic((score - threshold) / temperature), and any unit substitution
# costs at least the floor.
SIM_THRESHOLD = 0.7
SIM_TEMPERATURE = 0.05
SIM_SUBSTITUTION_FLOOR = 0.7

# Shallow stumps emulate a lightweight keyword spotter: the original model
# generalizes loosely around the wake word (the vulnerability under study),
# and gains tight boundaries only where retraining negatives demand them.
DETECTOR_PARAMS = GBDTParams(n_trees=96, depth=1, learning_rate=0.5, min_leaf=2)

DEFAULT_JITTER = 0.06

# share of the positive contributions a decisive-factor set covers
DEFAULT_BETA = 0.8
DEFAULT_FOLDS = 10
# seconds an external oracle may take for one reply
DEFAULT_ORACLE_TIMEOUT = 30.0

# conventional dataset size per class: positives, negatives
N_POS = 296
N_NEG = 399
