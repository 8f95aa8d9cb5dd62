"""Multi-objective search loop: Pareto selection over (wake rate,
dissimilarity) and variation, filling a ``FuzzyArchive``.

Evaluations are memoized per word text, so the oracle sees each distinct
candidate at most once (k trials). Each generation's unseen words go to the
oracle together, in order of first appearance. The current front always
survives unmutated, which keeps archive growth monotone.
"""
from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .archive import EvaluatedWord, FuzzyArchive, FuzzyCandidate, Objectives
from .distance import chinese_dist, english_dist
from .errors import OracleFailure
from .genome import (ChineseGenome, Genome, crossover, decode_chinese,
                     decode_text, mutate, seed_genomes)
from .oracle import WakeOracle, wake_counts
from .params import DistanceConfig, EvolveConfig, VariationConfig
from .phonemes import PhonemeSequence, g2p
from .pinyin import ChineseWord, parse_pinyin


def non_dominated_front(objectives: list[Objectives]) -> list[int]:
    """Indices of all non-dominated members, ascending.

    Sort-and-scan: order by wake rate descending (dissimilarity descending
    within ties); a point survives iff its dissimilarity strictly exceeds the
    best seen at strictly higher wake rates and it maximizes dissimilarity
    within its own wake-rate tie group.
    """
    if not objectives:
        raise ValueError("empty population")
    order = sorted(range(len(objectives)),
                   key=lambda i: (-objectives[i].wake_rate,
                                  -objectives[i].dissimilarity))
    front: list[int] = []
    best_strict = -np.inf
    pos = 0
    while pos < len(order):
        group_end = pos
        wake = objectives[order[pos]].wake_rate
        while (group_end < len(order)
               and objectives[order[group_end]].wake_rate == wake):
            group_end += 1
        group = order[pos:group_end]
        group_max = objectives[group[0]].dissimilarity
        for i in group:
            d = objectives[i].dissimilarity
            if d == group_max and d > best_strict:
                front.append(i)
        best_strict = max(best_strict, group_max)
        pos = group_end
    return sorted(front)


def _dissimilarity(text: str, genome: Genome,
                   wake_units: PhonemeSequence | ChineseWord,
                   dist_cfg: DistanceConfig) -> float:
    if isinstance(genome, ChineseGenome):
        return chinese_dist(decode_chinese(genome), wake_units, dist_cfg)
    return english_dist(g2p(text), wake_units, dist_cfg)


def run(wake_word: Genome, wake_text: str, oracle: WakeOracle,
        cfg: EvolveConfig, variation: VariationConfig,
        dist_cfg: DistanceConfig, seed: int,
        oracle_spec: str = "sim") -> FuzzyArchive:
    """Search for fuzzy words of ``wake_text`` against ``oracle``.

    Deterministic given (wake word, configs, seed, oracle seed).
    """
    rng = np.random.default_rng(seed)
    archive = FuzzyArchive(
        wake_word=wake_text, language=wake_word.language, seed=seed,
        config={**asdict(cfg), **asdict(variation)},
        oracle_spec=oracle_spec,
    )
    cache: dict[str, Objectives] = {}
    # parsed once; the distances do not modify their operands
    wake_units = (parse_pinyin(wake_text) if isinstance(wake_word, ChineseGenome)
                  else g2p(wake_text))
    population = seed_genomes(wake_word, cfg.population_size, rng)

    def _sync_query_count():
        archive.query_count = cfg.trials * sum(1 for t in cache if t)

    for generation in range(1, cfg.generations + 1):
        texts = [decode_text(genome) for genome in population]
        unseen: dict[str, Genome] = {}
        for genome, text in zip(population, texts):
            if text in cache:
                continue
            if text:
                unseen.setdefault(text, genome)
            else:
                cache[text] = Objectives(0.0, 0.0)
        failure = None
        try:
            counts = wake_counts(oracle, list(unseen), cfg.trials)
            for (text, genome), wakes in zip(unseen.items(), counts):
                cache[text] = Objectives(
                    wakes / cfg.trials,
                    _dissimilarity(text, genome, wake_units, dist_cfg))
        except OracleFailure as exc:
            failure = exc
        # after a failure, the population up to its first unevaluated word
        scored: list[tuple[Genome, str, Objectives]] = []
        for genome, text in zip(population, texts):
            if text not in cache:
                break
            scored.append((genome, text, cache[text]))
            _record(archive, genome, text, cache[text], generation, cfg)
        if failure is not None:
            archive.generations_run = generation - 1
            _sync_query_count()
            failure.partial_archive = archive
            raise failure
        archive.generations_run = generation
        _sync_query_count()

        front = non_dominated_front([obj for _, _, obj in scored])
        if len(front) >= 2:
            parents = [scored[i][0] for i in front]
        else:
            ranked = sorted(range(len(scored)),
                            key=lambda i: (-scored[i][2].wake_rate,
                                           -scored[i][2].dissimilarity,
                                           i))
            parents = [scored[i][0] for i in ranked[:2]]
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
    return archive


def _record(archive: FuzzyArchive, genome: Genome, text: str, obj: Objectives,
            generation: int, cfg: EvolveConfig):
    if not text:
        return
    if obj.wake_rate >= cfg.fuzzy_threshold and obj.dissimilarity > 0:
        archive.add(FuzzyCandidate(text, tuple(genome), obj, generation))
    elif obj.wake_rate == 0.0 and text not in archive.rejected:
        archive.rejected[text] = EvaluatedWord(
            text, obj.wake_rate, obj.dissimilarity, generation)

