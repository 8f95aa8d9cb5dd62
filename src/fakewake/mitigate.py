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
from .embedding import encode_units
from .errors import (EmptyCollective, EmptyFuzzySet, EmptyTestSet,
                     InvalidCombination, ParseFailure, UnknownSyllable)
from .explain import (ArchiveWords, RankedUnit, WordSample, feature_matrix,
                      parse_text, parse_words)
from .gbdt import TreeEnsemble, train_gbdt
from .genome import (ChineseGenome, EnglishGenome, decode_text,
                     english_genome_length, random_genome)
from .params import (DEFAULT_JITTER, DETECTOR_PARAMS, LENGTH_RATIO, N_NEG,
                     N_POS, GBDTParams)

DECISION_THRESHOLD = 0.5


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


def assemble_triple(words: ArchiveWords, n_pos: int = N_POS,
                    n_neg: int = N_NEG, jitter: float = DEFAULT_JITTER,
                    seed: int = 0, collective_path=None,
                    collective_limit: int | None = None,
                    length_ratio: float = LENGTH_RATIO) -> DatasetTriple:
    archive = words.archive
    conventional = synthesize_conventional(
        archive.wake_word, archive.language, words.slots,
        n_pos=n_pos, n_neg=n_neg, jitter=jitter, seed=seed,
        length_ratio=length_ratio)
    fuzzy = fuzzy_word_samples(words)
    collective = load_collective(archive.language, words.slots,
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
        raise ValueError("n_pos and n_neg must be at least 8")
    if jitter < 0:
        raise ValueError("jitter must be nonnegative")
    rng = np.random.default_rng(seed)
    units, _ = parse_text(wake_word, language)
    base = encode_units([units], slots)[0]
    # jitter only the occupied slots; padding stays exactly zero like any
    # real word encoding
    occupied = np.zeros(base.shape)
    occupied[:2 * len(units)] = 1.0
    positives = [
        WordSample(wake_word,
                   base + occupied * rng.normal(0.0, jitter, size=base.shape), 1)
        for _ in range(n_pos)
    ]
    kind = ChineseGenome if language == "zh" else EnglishGenome
    length = 3 * len(wake_word.split()) if language == "zh" \
        else english_genome_length(wake_word, length_ratio)
    texts = []
    while len(texts) < n_neg:
        text = decode_text(random_genome(kind, length, rng))
        if not text or text == wake_word:
            continue
        texts.append(text)
    negatives = parse_words(texts, language, slots).samples(0)
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


def fuzzy_word_samples(words: ArchiveWords) -> list[WordSample]:
    return words.fuzzy.samples(0)


def load_collective(language: str, slots: int, limit: int | None = None,
                    path=None) -> list[WordSample]:
    """The shipped dictionary as feature rows; words that do not parse in
    the language or are too long for the slot budget are skipped."""
    if limit is not None and limit < 1:
        raise ValueError("collective_limit must be at least 1")
    path = path or data_path("collective.txt")
    texts: list[str] = []

    def usable_units():
        # each usable line's units, parsed as the encoder reads them, so
        # that no more than one line's units are alive at a time
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                word = line.strip()
                if not word:
                    continue
                try:
                    units, _ = parse_text(word, language)
                except (ParseFailure, UnknownSyllable, InvalidCombination,
                        ValueError):
                    continue
                if len(units) > slots:
                    continue
                texts.append(word)
                yield units
                if limit is not None and len(texts) >= limit:
                    return

    features = encode_units(usable_units(), slots)
    if not texts:
        raise EmptyCollective(f"no usable words in {path}")
    return [WordSample(text, row, 0) for text, row in zip(texts, features)]


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


def unit_set(units: list[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """The distinct (kind, symbol) units of a word's unit sequence, what
    screening looks at."""
    return frozenset(units)


def screening_coverage(unit_sets: list[frozenset[tuple[str, str]]],
                       ranked_units: list[RankedUnit], top_n: int) -> float:
    """Fraction of fuzzy words (given by their ``unit_set``) the screening
    decision escalates, that is words containing at least one of the top-n
    decisive units (same unit symbol at any position)."""
    if not unit_sets:
        return 0.0
    hits = sum(should_escalate(units, ranked_units, top_n)
               for units in unit_sets)
    return hits / len(unit_sets)


def should_escalate(units: frozenset[tuple[str, str]],
                    ranked_units: list[RankedUnit], top_n: int) -> bool:
    """Screening decision for a word given by its ``unit_set``: route words
    containing top decisive units to a heavier recognizer."""
    top = {(u.kind, u.symbol) for u in ranked_units[:top_n]}
    return bool(units & top)
