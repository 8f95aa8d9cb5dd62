"""Multi-objective search loop: Pareto selection over (wake rate,
dissimilarity), variation, and the fuzzy-word archive.

Evaluations are memoized per word text, so the oracle sees each distinct
candidate at most once (k trials). Each generation's unseen words go to the
oracle together, in order of first appearance. The current front always
survives unmutated, which keeps archive growth monotone.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .dataio import write_json
from .distance import DistanceConfig, chinese_dist, english_dist
from .errors import BelowFuzzyThreshold, OracleFailure
from .genome import (ChineseGenome, Genome, VariationConfig, crossover,
                     decode_chinese, decode_text, mutate, seed_genomes)
from .oracle import WakeOracle, wake_counts
from .phonemes import PhonemeSequence, g2p
from .pinyin import ChineseWord, parse_pinyin


@dataclass(frozen=True)
class Objectives:
    wake_rate: float
    dissimilarity: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.wake_rate, self.dissimilarity)


def dominates(a: Objectives, b: Objectives) -> bool:
    """Strict Pareto dominance under maximization."""
    ge = a.wake_rate >= b.wake_rate and a.dissimilarity >= b.dissimilarity
    gt = a.wake_rate > b.wake_rate or a.dissimilarity > b.dissimilarity
    return ge and gt


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


class Bucket(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


def bucket(rate: float) -> Bucket:
    """Wake-rate band: low [0.1, 0.3], medium [0.4, 0.7], high [0.8, 1.0].

    Rates are multiples of 1/k; values of k that fall between bands round to
    the nearest decile.
    """
    if not 0 <= rate <= 1:
        raise ValueError(f"rate out of range: {rate}")
    decile = round(rate * 10)
    if decile < 1 or rate < 0.1:
        raise BelowFuzzyThreshold(f"rate {rate} is below the fuzzy floor")
    if decile <= 3:
        return Bucket.LOW
    if decile <= 7:
        return Bucket.MEDIUM
    return Bucket.HIGH


@dataclass(frozen=True)
class FuzzyCandidate:
    word: str
    genome: tuple[int, ...]
    objectives: Objectives
    generation_found: int


@dataclass
class EvaluatedWord:
    word: str
    wake_rate: float
    dissimilarity: float
    generation: int


@dataclass
class FuzzyArchive:
    wake_word: str
    language: str
    seed: int
    config: dict
    oracle_spec: str
    candidates: dict[str, FuzzyCandidate] = field(default_factory=dict)
    rejected: dict[str, EvaluatedWord] = field(default_factory=dict)
    query_count: int = 0
    generations_run: int = 0

    def add(self, cand: FuzzyCandidate):
        if cand.word not in self.candidates:
            self.candidates[cand.word] = cand

    def sorted_candidates(self) -> list[FuzzyCandidate]:
        return sorted(self.candidates.values(),
                      key=lambda c: (-c.objectives.dissimilarity, c.word))

    def to_json(self) -> dict:
        return {
            "run": {
                "wake_word": self.wake_word,
                "language": self.language,
                "seed": self.seed,
                "config": self.config,
                "oracle": self.oracle_spec,
                "query_count": self.query_count,
                "generations_run": self.generations_run,
            },
            "candidates": [
                {
                    "word": c.word,
                    "genome": list(c.genome),
                    "wake_rate": c.objectives.wake_rate,
                    "dissimilarity": c.objectives.dissimilarity,
                    "generation": c.generation_found,
                }
                for c in self.sorted_candidates()
            ],
            "rejected": [
                {
                    "word": r.word,
                    "wake_rate": r.wake_rate,
                    "dissimilarity": r.dissimilarity,
                    "generation": r.generation,
                }
                for r in sorted(self.rejected.values(), key=lambda r: r.word)
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FuzzyArchive":
        run = payload["run"]
        archive = cls(wake_word=run["wake_word"], language=run["language"],
                      seed=run["seed"], config=run["config"],
                      oracle_spec=run["oracle"],
                      query_count=run.get("query_count", 0),
                      generations_run=run.get("generations_run", 0))
        for c in payload["candidates"]:
            archive.candidates[c["word"]] = FuzzyCandidate(
                word=c["word"], genome=tuple(c["genome"]),
                objectives=Objectives(c["wake_rate"], c["dissimilarity"]),
                generation_found=c["generation"],
            )
        for r in payload.get("rejected", []):
            archive.rejected[r["word"]] = EvaluatedWord(
                r["word"], r["wake_rate"], r["dissimilarity"], r["generation"])
        return archive

    def save(self, path):
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "FuzzyArchive":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


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
    population = seed_genomes(wake_word, cfg.population_size, variation, rng)

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
                c1, c2 = crossover(p1, p2, variation, rng)
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

