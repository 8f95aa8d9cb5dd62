"""Defenses against fuzzy words: decisive-factor screening coverage and
detector strengthening by retraining with generated fuzzy words as
negatives, plus the evaluation metrics.

The reference detector is a tree ensemble over the same feature encoding the
proxy classifier uses; the retraining logic and metrics carry over to any
detector behind the same contract: ``predict(features)`` takes a matrix
with one encoded word per row and returns one 0/1 decision per row, 1 where
the wake probability is at least 0.5. Every set here is one
``explain.Dataset``; training and the metrics pass its ``features`` matrix,
or rows of it cut by ``take``, to the detector in one call.
"""
from __future__ import annotations

import math
from collections.abc import Container, Iterable
from dataclasses import dataclass, replace

import numpy as np

from .dataio import data_path
from .embedding import encode_rows, read_words
from .errors import (ConfigError, EmptyCollective, EmptyFuzzySet,
                     EmptyTestSet, ParseFailure)
from .explain import ArchiveWords, Dataset, RankedUnit, parse_words
from .gbdt import TreeEnsemble, train_gbdt
from .genome import decode_text, random_genome, wake_genome
from .params import DETECTOR_PARAMS, LENGTH_RATIO, GBDTParams, MitigateConfig


@dataclass
class ConventionalDataset:
    train: Dataset
    test: Dataset


@dataclass
class DatasetTriple:
    conventional: ConventionalDataset
    fuzzy: Dataset                       # archive words, labeled negative
    collective: Dataset                  # large dictionary, unlabeled usage


def word_key(text: str, spoken: Iterable[str], language: str) -> str:
    """A word apart from its spelling, given its text and pronunciation:
    its syllables, tone included, for Chinese (the pronunciation is their
    canonical spellings), its letters with single spaces for English."""
    return " ".join(spoken if language == "zh" else text.split())


def assemble_triple(words: ArchiveWords, block: MitigateConfig, seed: int = 0,
                    length_ratio: float = LENGTH_RATIO) -> DatasetTriple:
    """The three sets; the collective keeps none of the words of the other
    two, however spelled (``word_key``)."""
    archive = words.archive
    conventional = synthesize_conventional(
        archive.wake_word, archive.language, words.slots, block, seed=seed,
        length_ratio=length_ratio)
    fuzzy = replace(words.fuzzy,
                    labels=np.zeros(len(words.fuzzy), dtype=int))
    known = {word_key(text, spoken, archive.language)
             for rows in (conventional.train, conventional.test, fuzzy)
             for text, spoken in zip(rows.texts, rows.pronunciations)}
    collective = load_collective(archive.language, words.slots,
                                 limit=block.collective_limit,
                                 path=block.collective_path, known=known)
    return DatasetTriple(conventional, fuzzy, collective)


@dataclass(frozen=True)
class MitigationReport:
    false_positive_rate: float
    false_negative_rate: float
    accuracy: float
    fuzzy_rate: float


def synthesize_conventional(wake_word: str, language: str, slots: int,
                            block: MitigateConfig, seed: int = 0,
                            length_ratio: float = LENGTH_RATIO,
                            ) -> ConventionalDataset:
    """Positives: the wake word's features with Gaussian jitter emulating
    speaker variation. Negatives: random valid words, as long as the
    search's genomes (``length_ratio`` sizes English ones). Split 3/4 train
    per class (ceiling), remainder test."""
    n_pos, n_neg = block.n_pos, block.n_neg
    rng = np.random.default_rng(seed)
    wake = parse_words([wake_word], language, slots, 1)
    base = wake.features[0]
    # jitter only the occupied slots; padding stays exactly zero like any
    # real word encoding
    occupied = np.zeros(base.shape)
    occupied[:2 * len(wake.units[0])] = 1.0
    # one draw reads the stream row by row, as n_pos one-row draws would
    noise = rng.normal(0.0, block.jitter, size=(n_pos, base.size))
    positives = Dataset([wake_word] * n_pos, base + occupied * noise,
                        np.ones(n_pos, dtype=int), wake.pronunciations * n_pos,
                        wake.units * n_pos)
    genes = wake_genome(language, wake_word, length_ratio)
    # a decoded text is spelled as its key is
    wake_key = word_key(wake_word, wake.pronunciations[0], language)
    texts = []
    while len(texts) < n_neg:
        text = decode_text(random_genome(type(genes), len(genes), rng))
        if not text or text == wake_key:
            continue
        texts.append(text)
    negatives = parse_words(texts, language, slots, 0)
    train, test = [], []
    for grp in (positives, negatives):
        cut = math.ceil(3 * len(grp) / 4)
        train.append(grp.take(range(cut)))
        test.append(grp.take(range(cut, len(grp))))
    return ConventionalDataset(Dataset.concat(train), Dataset.concat(test))


def train_original(conventional_train: Dataset,
                   params: GBDTParams = DETECTOR_PARAMS) -> TreeEnsemble:
    return train_gbdt(conventional_train.features, conventional_train.labels,
                      params)


def strengthen(fuzzy: Dataset, conventional_train: Dataset,
               params: GBDTParams = DETECTOR_PARAMS) -> TreeEnsemble:
    """Retrain from scratch on the conventional training set plus the fuzzy
    words as negatives, same hyperparameters.

    Positives are repeated to preserve the conventional positive:negative
    balance, so the added negatives shift the boundary rather than the class
    prior."""
    if not fuzzy:
        raise EmptyFuzzySet("no fuzzy words to strengthen with")
    labels = conventional_train.labels
    pos = conventional_train.take(labels == 1)
    neg = conventional_train.take(labels == 0)
    repeats = max(1, round((len(neg) + len(fuzzy)) / max(len(neg), 1)))
    rows = Dataset.concat([pos] * repeats + [neg, fuzzy])
    return train_gbdt(rows.features, rows.labels, params)


def load_collective(language: str, slots: int, limit: int | None = None,
                    path=None, known: Container[str] = ()) -> Dataset:
    """The shipped dictionary, or the file at ``path``, as feature rows, all
    labelled 0, each word as its file spells it; words that do not parse in
    the language or are too long for the slot budget are skipped. Of the
    first ``limit`` usable words, those whose ``word_key`` is in ``known``
    or is an earlier word's are dropped, so each word keeps its first
    spelling in the file. A file that cannot be read as UTF-8 text raises
    a ``ConfigError`` naming it."""
    key = "mitigate.collective_path: " if path else ""
    path = path or data_path("collective.txt")
    texts: list[str] = []
    kept: set[str] = set()
    usable = 0

    def usable_rows(lines):
        # each usable line's unit rows, read as the encoder takes them, so
        # that no more than one line's rows are alive at a time
        nonlocal usable
        for text, pieces in read_words(lines, language):
            if isinstance(pieces, ParseFailure):
                continue
            rows = [r for piece in pieces for r in piece.rows]
            if len(rows) > slots:
                continue
            usable += 1
            spoken = (p for piece in pieces for p in piece.phones)
            word = word_key(text, spoken, language)
            if word not in known and word not in kept:
                # a text that is its own key is held as is: no new string
                kept.add(text if text == word else word)
                texts.append(text)
                yield rows
            if usable == limit:
                return

    try:
        with open(path, encoding="utf-8") as fh:
            features = encode_rows(
                usable_rows(word for word in map(str.strip, fh) if word),
                slots)
    except (OSError, UnicodeDecodeError) as exc:   # or not UTF-8
        raise ConfigError(f"{key}{path}: {exc}") from exc
    if not usable:
        raise EmptyCollective(f"no usable words in {path}")
    return Dataset(texts, features, np.zeros(len(texts), dtype=int))


def evaluate(model: TreeEnsemble, test: Dataset,
             fuzzy_rate_value: float = 0.0) -> MitigationReport:
    """Confusion-matrix rates at the 0.5 decision threshold."""
    if not test:
        raise EmptyTestSet("empty test set")
    n_pos, n_neg = test.count(1), test.count(0)
    if not n_pos or not n_neg:
        raise EmptyTestSet("test set needs both classes")
    predicted = model.predict(test.features)
    positive = test.labels == 1
    fp = int(np.sum(predicted[~positive] == 1))
    fn = int(np.sum(predicted[positive] == 0))
    return MitigationReport(
        false_positive_rate=fp / n_neg,
        false_negative_rate=fn / n_pos,
        accuracy=1.0 - (fp + fn) / len(test),
        fuzzy_rate=fuzzy_rate_value,
    )


def fuzzy_rate(model: TreeEnsemble, collective: Dataset) -> float:
    """Fraction of the collective dictionary the model wrongly accepts."""
    if not collective:
        raise EmptyCollective("empty collective dataset")
    accepted = int(np.sum(model.predict(collective.features) == 1))
    return accepted / len(collective)


def screening_coverage(words: list[list[tuple[str, str]]],
                       ranked_units: list[RankedUnit], top_n: int) -> float:
    """Fraction of fuzzy words (given by their (kind, symbol) unit lists)
    the screening decision escalates to a heavier recognizer, that is words
    containing at least one of the top-n decisive units (same kind and
    symbol at any position)."""
    if not words:
        return 0.0
    top = {(u.kind, u.symbol) for u in ranked_units[:top_n]}
    hits = sum(not top.isdisjoint(units) for units in words)
    return hits / len(words)
