"""Interpretability pipeline: proxy-classifier datasets, dissimilarity
scores, decisive-factor extraction from attributions, and similarity
grouping against the wake word.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .embedding import embedding_table, encode_features, word_units
from .errors import (DegenerateData, EmptyClass, NoPositiveContributions,
                     TooFewSamples)
from .evolve import FuzzyArchive
from .gbdt import GBDTParams, TreeEnsemble, train_gbdt
from .genome import LENGTH_RATIO, english_genome_length
from .phonemes import LetterWord
from .pinyin import parse_pinyin
from .treeshap import ShapExplanation, shap_values

MAX_CLASS_RATIO = 3


@dataclass(frozen=True)
class WordSample:
    word: str
    features: np.ndarray
    label: int


def feature_matrix(samples: list[WordSample]) -> np.ndarray:
    """The samples' feature vectors as the rows of one matrix."""
    return np.array([s.features for s in samples])


@dataclass
class Dataset:
    samples: list[WordSample]

    @cached_property
    def features(self) -> np.ndarray:
        return feature_matrix(self.samples)

    @property
    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples])

    def count(self, label: int) -> int:
        return sum(1 for s in self.samples if s.label == label)


def _parse_word(text: str, language: str):
    return parse_pinyin(text) if language == "zh" else LetterWord(text)


def encode_word(text: str, language: str, slots: int) -> np.ndarray:
    """The feature vector of a word given as text."""
    return encode_features(_parse_word(text, language), slots)


def default_slots(language: str, wake_word: str,
                  length_ratio: float = LENGTH_RATIO) -> int:
    """Feature slots: exact for Chinese (two units per character); for
    English, twice the search genome length, since no g2p rule emits more
    than two phonemes per letter."""
    if language == "zh":
        return 2 * len(wake_word.split())
    return 2 * english_genome_length(wake_word, length_ratio)


def build_dataset(archive: FuzzyArchive, slots: int, seed: int = 0) -> Dataset:
    """Fuzzy words as positives, the run's never-woke words as negatives,
    class ratio capped by seeded downsampling of the larger class."""
    positives = [c.word for c in archive.sorted_candidates()]
    negatives = sorted(archive.rejected)
    if not positives or not negatives:
        raise EmptyClass("need both fuzzy and non-fuzzy words")
    rng = np.random.default_rng(seed)
    if len(negatives) > MAX_CLASS_RATIO * len(positives):
        keep = rng.choice(len(negatives), MAX_CLASS_RATIO * len(positives),
                          replace=False)
        negatives = [negatives[i] for i in sorted(keep)]
    elif len(positives) > MAX_CLASS_RATIO * len(negatives):
        keep = rng.choice(len(positives), MAX_CLASS_RATIO * len(negatives),
                          replace=False)
        positives = [positives[i] for i in sorted(keep)]
    return Dataset([
        WordSample(word, encode_word(word, archive.language, slots), label)
        for words, label in ((positives, 1), (negatives, 0))
        for word in words])


def dissimilarity_score(model: TreeEnsemble,
                        features: np.ndarray) -> float | np.ndarray:
    """1 - confidence: high for words the proxy calls non-fuzzy; one score
    per row when features is a matrix."""
    return 1.0 - model.predict_proba(features)


def cross_validate(dataset: Dataset, params: GBDTParams = GBDTParams(),
                   folds: int = 10, seed: int = 0) -> float:
    """Mean accuracy over stratified folds with a seeded shuffle."""
    labels = dataset.labels
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateData("cross-validation needs both classes")
    if min(n_pos, n_neg) < folds:
        raise TooFewSamples(
            f"need at least {folds} samples per class, have {n_pos}/{n_neg}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(labels), dtype=int)
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        fold_of[idx] = np.arange(len(idx)) % folds
    features = dataset.features
    correct = 0
    for fold in range(folds):
        test = fold_of == fold
        model = train_gbdt(features[~test], labels[~test], params)
        correct += int(np.sum(model.predict(features[test]) == labels[test]))
    return correct / len(labels)


# ---------------------------------------------------------------- factors

@dataclass(frozen=True)
class UnitRef:
    """A phonetic unit occurrence within a word."""
    kind: str
    symbol: str
    position: int


@dataclass(frozen=True)
class DecisiveFactor:
    unit: UnitRef
    contribution: float


@dataclass
class DecisiveFactorSet:
    word: str
    factors: list[DecisiveFactor]
    beta: float
    feature_indices: tuple[int, ...]   # the minimal top-contribution set


def unit_map(word) -> list[UnitRef]:
    """Owning unit for each feature slot of a word's encoding."""
    return [UnitRef(kind, sym, pos)
            for pos, (kind, sym) in enumerate(word_units(word))]


def decisive_factors(explanation: ShapExplanation, units: list[UnitRef],
                     beta: float = 0.8) -> DecisiveFactorSet:
    """Units owning features of the shortest positive-contribution prefix
    whose share of all positive contributions reaches beta."""
    phi = explanation.contributions
    positive = [(j, float(phi[j])) for j in range(len(phi)) if phi[j] > 0]
    if not positive:
        raise NoPositiveContributions("no feature pushes toward fuzzy")
    positive.sort(key=lambda item: (-item[1], item[0]))
    total = sum(c for _, c in positive)
    chosen: list[int] = []
    acc = 0.0
    for j, c in positive:
        chosen.append(j)
        acc += c
        if acc / total >= beta:
            break
    per_unit: dict[int, float] = {}
    for j in chosen:
        slot = j // 2
        if slot < len(units):
            per_unit[slot] = per_unit.get(slot, 0.0) + float(phi[j])
    factors = [DecisiveFactor(units[slot], contribution)
               for slot, contribution in sorted(
                   per_unit.items(), key=lambda kv: (-kv[1], kv[0]))]
    return DecisiveFactorSet(word="", factors=factors, beta=beta,
                             feature_indices=tuple(chosen))


class SimilarityGroup(str, Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


@dataclass
class GroupedFactor:
    word: str
    unit: UnitRef
    contribution: float
    difference: float | None   # None when the position is past the wake word
    group: SimilarityGroup


@dataclass
class FactorGrouping:
    entries: list[GroupedFactor]
    spread: float               # standard deviation of centered differences
    mean_difference: float

    def position_table(self) -> list[tuple[int, str, float, int]]:
        """(position, group, mean contribution, count) rows, sorted."""
        acc: dict[tuple[int, str], list[float]] = {}
        for e in self.entries:
            acc.setdefault((e.unit.position, e.group.value), []).append(
                e.contribution)
        return [(pos, grp, float(np.mean(vals)), len(vals))
                for (pos, grp), vals in sorted(acc.items())]


def group_factors(factor_sets: list[DecisiveFactorSet],
                  wake_word) -> FactorGrouping:
    """Classify each decisive factor by how far its embedding sits from the
    same-position wake-word unit, relative to the corpus of differences.

    Differences are centered on the corpus mean; within one standard
    deviation above the mean (or anywhere below) is high similarity, within
    two is medium, beyond is low. Positions past the wake word are low by
    convention.
    """
    emb = embedding_table()
    wake_units = word_units(wake_word)
    raw: list[tuple[DecisiveFactorSet, DecisiveFactor, float | None]] = []
    for fs in factor_sets:
        for factor in fs.factors:
            pos = factor.unit.position
            if pos >= len(wake_units):
                raw.append((fs, factor, None))
                continue
            kind, wake_sym = wake_units[pos]
            if kind != factor.unit.kind:
                raw.append((fs, factor, None))
                continue
            diff = float(np.linalg.norm(
                emb.unit_vec(kind, factor.unit.symbol)
                - emb.unit_vec(kind, wake_sym)))
            raw.append((fs, factor, diff))
    diffs = [d for _, _, d in raw if d is not None]
    if diffs:
        mean = float(np.mean(diffs))
        spread = float(np.std(diffs))
    else:
        mean = spread = 0.0
    entries = []
    for fs, factor, diff in raw:
        if diff is None:
            group = SimilarityGroup.LOW
        else:
            centered = diff - mean
            if centered <= spread:
                group = SimilarityGroup.HIGH
            elif centered <= 2 * spread:
                group = SimilarityGroup.MEDIUM
            else:
                group = SimilarityGroup.LOW
        entries.append(GroupedFactor(fs.word, factor.unit,
                                     factor.contribution, diff, group))
    return FactorGrouping(entries, spread, mean)


@dataclass
class RankedUnit:
    symbol: str
    kind: str
    contribution: float
    words: int


def rank_decisive_units(factor_sets: list[DecisiveFactorSet]) -> list[RankedUnit]:
    """Unit symbols ordered by aggregate decisive contribution across words."""
    totals: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], set] = {}
    for fs in factor_sets:
        for factor in fs.factors:
            key = (factor.unit.kind, factor.unit.symbol)
            totals[key] = totals.get(key, 0.0) + factor.contribution
            counts.setdefault(key, set()).add(fs.word)
    ranked = [RankedUnit(sym, kind, total, len(counts[(kind, sym)]))
              for (kind, sym), total in totals.items()]
    ranked.sort(key=lambda u: (-u.contribution, u.kind, u.symbol))
    return ranked


def explain_archive(archive: FuzzyArchive, model: TreeEnsemble, slots: int,
                    beta: float = 0.8) -> list[DecisiveFactorSet]:
    """Decisive factors of every fuzzy word the proxy classifies correctly."""
    texts = [c.word for c in archive.sorted_candidates()]
    if not texts:
        return []
    feats = np.array([encode_word(text, archive.language, slots)
                      for text in texts])
    kept = np.flatnonzero(model.predict_proba(feats) >= 0.5)
    explanations = shap_values(model, feats[kept])
    out = []
    for row, i in enumerate(kept.tolist()):
        units = unit_map(_parse_word(texts[i], archive.language))
        try:
            fs = decisive_factors(explanations.row(row), units, beta)
        except NoPositiveContributions:
            continue
        fs.word = texts[i]
        out.append(fs)
    return out
