"""Defenses against fuzzy words: decisive-factor screening coverage and
detector strengthening by retraining with generated fuzzy words as
negatives, plus the evaluation metrics.

The reference detector is a tree ensemble over the same feature encoding the
proxy classifier uses; the retraining logic and metrics carry over to any
detector behind the same contract: ``predict(features, threshold)`` takes a
matrix with one encoded word per row and returns one 0/1 decision per row.
The metrics stack a sample list into one matrix and call it once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import data_path
from .embedding import word_units
from .errors import (EmptyCollective, EmptyFuzzySet, EmptyTestSet,
                     InvalidCombination, ParseFailure, TooManyUnits,
                     UnknownSyllable)
from .evolve import FuzzyArchive
from .explain import (RankedUnit, WordSample, _parse_word, encode_word,
                      feature_matrix)
from .gbdt import GBDTParams, TreeEnsemble, train_gbdt
from .genome import (LENGTH_RATIO, ChineseGenome, EnglishGenome, decode_text,
                     english_genome_length, random_genome)

DECISION_THRESHOLD = 0.5

# Shallow stumps emulate a lightweight keyword spotter: the original model
# generalizes loosely around the wake word (the vulnerability under study),
# and gains tight boundaries only where retraining negatives demand them.
DETECTOR_PARAMS = GBDTParams(n_trees=96, depth=1, learning_rate=0.5, min_leaf=2)

DEFAULT_JITTER = 0.06

# conventional dataset size per class: positives, negatives
N_POS = 296
N_NEG = 399


@dataclass
class ConventionalDataset:
    train: list[WordSample]
    test: list[WordSample]


@dataclass
class DatasetTriple:
    conventional: ConventionalDataset
    fuzzy: list[WordSample]              # archive words, labeled negative
    collective: list[WordSample]         # large dictionary, unlabeled usage

    def __post_init__(self):
        # collective stays disjoint from the other two by word text
        known = {s.word for s in self.conventional.train}
        known |= {s.word for s in self.conventional.test}
        known |= {s.word for s in self.fuzzy}
        self.collective = [s for s in self.collective if s.word not in known]


def assemble_triple(archive: FuzzyArchive, slots: int, n_pos: int = N_POS,
                    n_neg: int = N_NEG, jitter: float = DEFAULT_JITTER,
                    seed: int = 0, collective_path=None,
                    collective_limit: int | None = None,
                    length_ratio: float = LENGTH_RATIO) -> DatasetTriple:
    conventional = synthesize_conventional(
        archive.wake_word, archive.language, slots,
        n_pos=n_pos, n_neg=n_neg, jitter=jitter, seed=seed,
        length_ratio=length_ratio)
    fuzzy = fuzzy_word_samples(archive, slots)
    collective = load_collective(archive.language, slots,
                                 limit=collective_limit, path=collective_path)
    return DatasetTriple(conventional, fuzzy, collective)


@dataclass(frozen=True)
class MitigationReport:
    false_positive_rate: float
    false_negative_rate: float
    accuracy: float
    fuzzy_rate: float

    def to_json(self) -> dict:
        return {
            "false_positive_rate": self.false_positive_rate,
            "false_negative_rate": self.false_negative_rate,
            "accuracy": self.accuracy,
            "fuzzy_rate": self.fuzzy_rate,
        }


def synthesize_conventional(wake_word: str, language: str, slots: int,
                            n_pos: int = N_POS, n_neg: int = N_NEG,
                            jitter: float = DEFAULT_JITTER, seed: int = 0,
                            length_ratio: float = LENGTH_RATIO,
                            ) -> ConventionalDataset:
    """Positives: the wake word's features with Gaussian jitter emulating
    speaker variation. Negatives: random valid words, as long as the search's
    genomes (``length_ratio`` sizes English ones). Split 3/4 train per class
    (ceiling), remainder test."""
    if n_pos < 8 or n_neg < 8:
        raise ValueError("need at least 8 samples per class")
    rng = np.random.default_rng(seed)
    base = encode_word(wake_word, language, slots)
    # jitter only the occupied slots; padding stays exactly zero like any
    # real word encoding
    occupied = np.zeros(base.shape)
    occupied[:2 * len(word_units(_parse_word(wake_word, language)))] = 1.0
    positives = [
        WordSample(wake_word,
                   base + occupied * rng.normal(0.0, jitter, size=base.shape), 1)
        for _ in range(n_pos)
    ]
    kind = ChineseGenome if language == "zh" else EnglishGenome
    length = 3 * len(wake_word.split()) if language == "zh" \
        else english_genome_length(wake_word, length_ratio)
    negatives = []
    while len(negatives) < n_neg:
        text = decode_text(random_genome(kind, length, rng))
        if not text or text == wake_word:
            continue
        negatives.append(WordSample(text, encode_word(text, language, slots), 0))
    train, test = [], []
    for grp in (positives, negatives):
        cut = math.ceil(3 * len(grp) / 4)
        train.extend(grp[:cut])
        test.extend(grp[cut:])
    return ConventionalDataset(train, test)


def _fit(samples: list[WordSample], params: GBDTParams) -> TreeEnsemble:
    y = np.array([s.label for s in samples])
    return train_gbdt(feature_matrix(samples), y, params)


def train_original(conventional_train: list[WordSample],
                   params: GBDTParams = DETECTOR_PARAMS) -> TreeEnsemble:
    return _fit(conventional_train, params)


def strengthen(fuzzy: list[WordSample], conventional_train: list[WordSample],
               params: GBDTParams = DETECTOR_PARAMS) -> TreeEnsemble:
    """Retrain from scratch on the conventional training set plus the fuzzy
    words as negatives, same hyperparameters.

    Positives are repeated to preserve the conventional positive:negative
    balance, so the added negatives shift the boundary rather than the class
    prior."""
    if not fuzzy:
        raise EmptyFuzzySet("no fuzzy words to strengthen with")
    pos = [s for s in conventional_train if s.label == 1]
    neg = [s for s in conventional_train if s.label == 0]
    repeats = max(1, round((len(neg) + len(fuzzy)) / max(len(neg), 1)))
    return _fit(pos * repeats + neg + fuzzy, params)


def fuzzy_word_samples(archive: FuzzyArchive, slots: int) -> list[WordSample]:
    return [
        WordSample(c.word, encode_word(c.word, archive.language, slots), 0)
        for c in archive.sorted_candidates()
    ]


def load_collective(language: str, slots: int, limit: int | None = None,
                    path=None) -> list[WordSample]:
    """The shipped dictionary as feature rows; words that do not parse in
    the language or are too long for the slot budget are skipped."""
    path = path or data_path("collective.txt")
    samples = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if not word:
                continue
            try:
                features = encode_word(word, language, slots)
            except (TooManyUnits, ParseFailure, UnknownSyllable,
                    InvalidCombination, ValueError):
                continue
            samples.append(WordSample(word, features, 0))
            if limit is not None and len(samples) >= limit:
                break
    if not samples:
        raise EmptyCollective(f"no usable words in {path}")
    return samples


def evaluate(model: TreeEnsemble, test: list[WordSample],
             fuzzy_rate_value: float = 0.0) -> MitigationReport:
    """Confusion-matrix rates at the 0.5 decision threshold."""
    if not test:
        raise EmptyTestSet("empty test set")
    pos = [s for s in test if s.label == 1]
    neg = [s for s in test if s.label == 0]
    if not pos or not neg:
        raise EmptyTestSet("test set needs both classes")
    fp = int(np.sum(
        model.predict(feature_matrix(neg), DECISION_THRESHOLD) == 1))
    fn = int(np.sum(
        model.predict(feature_matrix(pos), DECISION_THRESHOLD) == 0))
    return MitigationReport(
        false_positive_rate=fp / len(neg),
        false_negative_rate=fn / len(pos),
        accuracy=1.0 - (fp + fn) / len(test),
        fuzzy_rate=fuzzy_rate_value,
    )


def fuzzy_rate(model: TreeEnsemble, collective: list[WordSample]) -> float:
    """Fraction of the collective dictionary the model wrongly accepts."""
    if not collective:
        raise EmptyCollective("empty collective dataset")
    accepted = int(np.sum(
        model.predict(feature_matrix(collective), DECISION_THRESHOLD) == 1))
    return accepted / len(collective)


def screening_coverage(fuzzy_words: list[str], language: str,
                       ranked_units: list[RankedUnit], top_n: int) -> float:
    """Fraction of fuzzy words the screening decision escalates, that is
    words containing at least one of the top-n decisive units (same unit
    symbol at any position)."""
    if not fuzzy_words:
        return 0.0
    hits = sum(should_escalate(word, language, ranked_units, top_n)
               for word in fuzzy_words)
    return hits / len(fuzzy_words)


def should_escalate(word: str, language: str,
                    ranked_units: list[RankedUnit], top_n: int) -> bool:
    """Screening decision: route words containing top decisive units to a
    heavier recognizer."""
    top = {(u.kind, u.symbol) for u in ranked_units[:top_n]}
    return bool(set(word_units(_parse_word(word, language))) & top)
