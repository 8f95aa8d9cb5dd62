"""The fuzzy-word archive and its record types.

``FuzzyArchive`` holds what a search found: the fuzzy words with their
objectives (wake rate, dissimilarity), the words that never woke the
detector, and the run's settings. It reads and writes ``archive.json``;
``bucket`` bands a wake rate for the summary table.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .dataio import write_json
from .errors import BelowFuzzyThreshold


@dataclass(frozen=True)
class Objectives:
    wake_rate: float
    dissimilarity: float


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


def _check_types(word, *numbers):
    """Raise TypeError unless ``word`` is text and each of ``numbers`` a
    number."""
    if type(word) is not str or any(type(n) not in (int, float)
                                    for n in numbers):
        raise TypeError(f"malformed entry: {(word, *numbers)!r}")


def _check_canonical(word: str):
    """Raise ValueError unless ``word`` has single spaces between its parts
    and no other whitespace, which would split a row of a TSV output."""
    if " ".join(word.split()) != word:
        raise ValueError(f"word {word!r} is not in canonical form")


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
        """The archive a parsed ``archive.json`` holds; a document of
        another shape raises KeyError, TypeError or ValueError, and so do
        a candidate whose wake rate no ``bucket`` band holds, a word not in
        canonical form and an empty wake word."""
        run = payload["run"]
        if run["language"] not in ("en", "zh"):
            raise ValueError(f"unknown language {run['language']!r}")
        if type(run["seed"]) is not int or run["seed"] < 0:
            raise ValueError(f"seed {run['seed']!r} is not a nonnegative int")
        _check_types(run["wake_word"])
        _check_canonical(run["wake_word"])
        if not run["wake_word"]:
            raise ValueError("the wake word is empty")
        archive = cls(wake_word=run["wake_word"], language=run["language"],
                      seed=run["seed"], config=run["config"],
                      oracle_spec=run["oracle"],
                      query_count=run.get("query_count", 0),
                      generations_run=run.get("generations_run", 0))
        for c in payload["candidates"]:
            _check_types(c["word"], c["wake_rate"], c["dissimilarity"])
            _check_canonical(c["word"])
            try:
                bucket(c["wake_rate"])
            except (ValueError, BelowFuzzyThreshold) as exc:
                raise ValueError(f"candidate {c['word']!r} has wake rate "
                                 f"{c['wake_rate']}, in no band") from exc
            archive.candidates[c["word"]] = FuzzyCandidate(
                word=c["word"], genome=tuple(c["genome"]),
                objectives=Objectives(c["wake_rate"], c["dissimilarity"]),
                generation_found=c["generation"],
            )
        for r in payload.get("rejected", []):
            _check_types(r["word"], r["wake_rate"], r["dissimilarity"])
            _check_canonical(r["word"])
            archive.rejected[r["word"]] = EvaluatedWord(
                r["word"], r["wake_rate"], r["dissimilarity"], r["generation"])
        return archive

    def save(self, path):
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "FuzzyArchive":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))
