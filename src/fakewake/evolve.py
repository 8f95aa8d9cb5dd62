"""Multi-objective search: Pareto selection over (oracle wake rate,
``distance.objective``) and variation fills a ``FuzzyArchive``.

Evaluations are memoized per word text, so the oracle sees each distinct
candidate at most once (k trials). Each generation's unseen words go to the
oracle together, in order of first appearance, and each enters the archive
as it is answered, with the first genome that decoded to it. The current
front always survives unmutated, which keeps archive growth monotone.
"""
from __future__ import annotations

import itertools
from dataclasses import asdict

import numpy as np

from .archive import EvaluatedWord, FuzzyArchive, FuzzyCandidate, Objectives
from .distance import objective
from .errors import OracleFailure
from .genome import Genome, crossover, decode_text, mutate, seed_genomes
from .oracle import WakeOracle, wake_counts
from .params import DistanceConfig, EvolveConfig, VariationConfig


def non_dominated_front(objectives: list[Objectives]) -> list[int]:
    """Indices of all non-dominated members, ascending.

    Sort-and-scan: order by wake rate descending (dissimilarity descending
    within ties); a point survives iff it maximizes dissimilarity within its
    wake-rate tie group and that maximum strictly exceeds the best seen at
    strictly higher wake rates.
    """
    if not objectives:
        raise ValueError("empty population")
    order = sorted(range(len(objectives)),
                   key=lambda i: (-objectives[i].wake_rate,
                                  -objectives[i].dissimilarity))
    front: list[int] = []
    best = -np.inf
    for _, group in itertools.groupby(
            order, key=lambda i: objectives[i].wake_rate):
        group = list(group)
        group_max = objectives[group[0]].dissimilarity
        if group_max > best:
            front.extend(i for i in group
                         if objectives[i].dissimilarity == group_max)
            best = group_max
    return sorted(front)


def run(wake_word: Genome, wake_text: str, oracle: WakeOracle,
        cfg: EvolveConfig, variation: VariationConfig,
        dist_cfg: DistanceConfig, seed: int,
        oracle_spec: str = "sim") -> FuzzyArchive:
    """Search for fuzzy words of ``wake_text`` against ``oracle``.

    Deterministic given (wake word, configs, seed, oracle seed). When the
    oracle fails or the search is interrupted, the ``OracleFailure`` or
    ``KeyboardInterrupt`` carries the live archive, every word answered
    before it, and ``generations_run`` counts the complete generations.
    """
    rng = np.random.default_rng(seed)
    archive = FuzzyArchive(
        wake_word=wake_text, language=wake_word.language, seed=seed,
        config={**asdict(cfg), **asdict(variation)},
        oracle_spec=oracle_spec,
    )
    # an all-space English genome decodes to "", which is never queried
    cache: dict[str, Objectives] = {"": Objectives(0.0, 0.0)}
    dissimilarity = objective(wake_text, wake_word.language, dist_cfg)
    population = seed_genomes(wake_word, cfg.population_size, rng)

    try:
        for generation in range(1, cfg.generations + 1):
            texts = [decode_text(genome) for genome in population]
            # unseen text -> its first genome, in order of first appearance
            unseen: dict[str, Genome] = {}
            for genome, text in zip(population, texts):
                if text not in cache:
                    unseen.setdefault(text, genome)
            for (text, genome), wakes in zip(
                    unseen.items(), wake_counts(oracle, list(unseen),
                                                cfg.trials)):
                obj = cache[text] = Objectives(wakes / cfg.trials,
                                               dissimilarity(text))
                archive.query_count += cfg.trials
                if (obj.wake_rate >= cfg.fuzzy_threshold
                        and obj.dissimilarity > 0):
                    archive.candidates[text] = FuzzyCandidate(
                        text, tuple(genome), obj, generation)
                elif obj.wake_rate == 0.0:
                    archive.rejected[text] = EvaluatedWord(
                        text, obj.wake_rate, obj.dissimilarity, generation)
            archive.generations_run = generation

            objectives = [cache[text] for text in texts]
            front = non_dominated_front(objectives)
            if len(front) >= 2:
                parents = [population[i] for i in front]
            else:
                ranked = sorted(range(len(objectives)),
                                key=lambda i: (-objectives[i].wake_rate,
                                               -objectives[i].dissimilarity))
                parents = [population[i] for i in ranked[:2]]
            if generation == cfg.generations:
                break

            next_pop: list[Genome] = list(parents[:cfg.population_size]) \
                if cfg.elitism else []
            while len(next_pop) < cfg.population_size:
                i = int(rng.integers(len(parents)))
                j = int(rng.integers(len(parents)))
                p1, p2 = parents[i], parents[j]
                if rng.random() < variation.crossover_rate:
                    c1, c2 = crossover(p1, p2, rng)
                else:
                    c1, c2 = p1, p2
                for child in (c1, c2):
                    if len(next_pop) < cfg.population_size:
                        next_pop.append(mutate(child, variation, rng))
            population = next_pop
    except (OracleFailure, KeyboardInterrupt) as exc:
        exc.partial_archive = archive
        raise
    return archive

