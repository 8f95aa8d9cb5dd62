"""Multi-objective search: Pareto selection over (oracle wake rate,
``distance.objective``) and variation fills a ``FuzzyArchive``.

Evaluations are memoized per word text, so the oracle sees each distinct
candidate at most once (k trials). Each generation's unseen words go to the
oracle in one ``query_many`` call, in order of first appearance; their
dissimilarities are taken in one call of the objective while the oracle
works, and each word enters the archive as its count arrives, with the
first genome that decoded to it.
The current front always survives unmutated, which keeps archive growth
monotone. Under elitism, once the front holds the whole population the
next population is this one: every later generation would decode the same
texts, send no word and make no draw, so the search stops there.

An optional ``trace`` callable receives one dict per generation (see
``run``), for a sidecar that leaves the search's outputs untouched.
"""
from __future__ import annotations

import itertools
from dataclasses import asdict

import numpy as np

from .archive import EvaluatedWord, FuzzyArchive, FuzzyCandidate, Objectives
from .distance import objective
from .errors import OracleFailure
from .genome import Genome, crossover, decode_text, mutate, seed_genomes
from .oracle import WakeOracle
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


def hypervolume(points) -> float:
    """Area dominated by (wake rate, dissimilarity) points, both maximised,
    above the reference point (0, 0): one sweep by dissimilarity
    descending."""
    area = reached = 0.0
    for wake_rate, gap in sorted(points, key=lambda p: -p[1]):
        if wake_rate > reached:
            area += (wake_rate - reached) * gap
            reached = wake_rate
    return area


def _counts(archive: FuzzyArchive) -> dict:
    return {"fuzzy": len(archive.candidates),
            "rejected": len(archive.rejected),
            "queries": archive.query_count}


def run(wake_word: Genome, wake_text: str, oracle: WakeOracle,
        cfg: EvolveConfig, variation: VariationConfig,
        dist_cfg: DistanceConfig, seed: int,
        oracle_spec: str = "sim", trace=None) -> FuzzyArchive:
    """Search for fuzzy words of ``wake_text`` against ``oracle``.

    Deterministic given (wake word, configs, seed, oracle seed). When the
    oracle fails or the search is interrupted, the ``OracleFailure`` or
    ``KeyboardInterrupt`` carries the live archive, every word answered
    before it, and ``generations_run`` counts the complete generations.

    ``trace``, when given, is called with one dict per generation: the
    generation, the ``new_words`` sent and the ``cache_hits`` (population
    members that needed no query of their own), the front's size, its
    distinct objective points and its ``hypervolume``, the ``fuzzy`` and
    ``rejected`` counts and the ``queries`` so far, and ``fixed_point``,
    true where the search stops at its fixed point. On an oracle failure or
    an interrupt it is called once more, with the generation in progress,
    the words answered since the last call, the counts, and ``stopped``.
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

    # the last generation passed to trace, and the queries it reported
    traced = traced_queries = 0
    try:
        for generation in range(1, cfg.generations + 1):
            texts = [decode_text(genome) for genome in population]
            # unseen text -> its first genome, in order of first appearance
            unseen: dict[str, Genome] = {}
            for genome, text in zip(population, texts):
                if text not in cache:
                    unseen.setdefault(text, genome)
            # the oracle works on the words while their distances are taken
            counts = oracle.query_many(list(unseen), cfg.trials)
            gaps = dissimilarity(list(unseen))
            for (text, genome), gap, wakes in zip(unseen.items(), gaps,
                                                  counts):
                obj = cache[text] = Objectives(wakes / cfg.trials, gap)
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
            # the front is the whole population, which elitism carries over
            # unchanged: each later generation would repeat this one
            fixed_point = cfg.elitism and len(parents) >= cfg.population_size
            if trace is not None:
                points = {(objectives[i].wake_rate,
                           objectives[i].dissimilarity) for i in front}
                trace({"generation": generation, "new_words": len(unseen),
                       "cache_hits": len(texts) - len(unseen),
                       "front_size": len(front),
                       "front_points": len(points),
                       "hypervolume": hypervolume(points),
                       **_counts(archive), "fixed_point": fixed_point})
                traced, traced_queries = generation, archive.query_count
            if fixed_point or generation == cfg.generations:
                archive.generations_run = cfg.generations
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
        if trace is not None:
            answered = (archive.query_count - traced_queries) // cfg.trials
            trace({"generation": traced + 1, "new_words": answered,
                   **_counts(archive),
                   "stopped": ("oracle failure"
                               if isinstance(exc, OracleFailure)
                               else "interrupt")})
        raise
    return archive

