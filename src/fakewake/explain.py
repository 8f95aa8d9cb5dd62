"""Interpretability pipeline: proxy-classifier datasets, dissimilarity
scores, decisive-factor extraction from attributions, and similarity
grouping against the wake word.

Every labelled set, here and in ``mitigate``, is one ``Dataset``: the
words' texts, one feature matrix with a row per word, one label array and,
when read from text by ``parse_words``, each word's pronunciation and
units. Sets are cut with ``take`` and joined with ``Dataset.concat``;
models read ``features`` directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .archive import FuzzyArchive
from .embedding import embedding_table, encode_rows, parse_text, read_words
from .errors import (DegenerateData, EmptyClass, NoPositiveContributions,
                     ParseFailure, TooFewSamples, TooManyUnits)
from .gbdt import TreeEnsemble, train_gbdt
from .genome import english_genome_length
from .params import LENGTH_RATIO, ExplainConfig, GBDTParams
from .treeshap import shap_values

MAX_CLASS_RATIO = 3


@dataclass
class Dataset:
    """Labelled words as one matrix: word i is ``texts[i]``, with the
    feature row ``features[i]`` and the label ``labels[i]``. When every
    word of the set was read from text, ``pronunciations[i]`` and
    ``units[i]`` are what ``parse_text`` gave for it; otherwise they are
    None."""
    texts: list[str]
    features: np.ndarray
    labels: np.ndarray
    pronunciations: list[list[str]] | None = None
    units: list[list[tuple[str, str]]] | None = None

    def __len__(self) -> int:
        return len(self.texts)

    def take(self, rows) -> "Dataset":
        """The words at ``rows`` (indices or a boolean mask), in order."""
        rows = np.asarray(rows)
        rows = np.flatnonzero(rows) if rows.dtype == bool \
            else rows.astype(np.intp)
        picked = rows.tolist()
        pick = lambda items: None if items is None \
            else [items[i] for i in picked]
        return Dataset(pick(self.texts), self.features[rows],
                       self.labels[rows], pick(self.pronunciations),
                       pick(self.units))

    def count(self, label: int) -> int:
        return int(np.count_nonzero(self.labels == label))

    @staticmethod
    def concat(parts: list["Dataset"]) -> "Dataset":
        """The parts' words one after another; pronunciations and units
        are kept only when every part has them."""
        def joined(name):
            lists = [getattr(p, name) for p in parts]
            if any(items is None for items in lists):
                return None
            return [x for items in lists for x in items]
        return Dataset(joined("texts"),
                       np.concatenate([p.features for p in parts]),
                       np.concatenate([p.labels for p in parts]),
                       joined("pronunciations"), joined("units"))


def parse_words(texts: list[str], language: str, slots: int,
                label: int) -> Dataset:
    """Parse the texts at once (``read_words``) and encode the list as one
    matrix, every word labelled ``label``. The first text that does not
    parse raises the ``ParseFailure`` naming it; if all parse, the first
    with more units than ``slots`` raises a ``TooManyUnits`` naming it."""
    pronunciations, units, rows = [], [], []
    for _, pieces in read_words(texts, language):
        if isinstance(pieces, ParseFailure):
            raise pieces
        pronunciations.append([p for piece in pieces for p in piece.phones])
        units.append([u for piece in pieces for u in piece.units])
        rows.append([r for piece in pieces for r in piece.rows])
    for text, word in zip(texts, rows):
        if len(word) > slots:
            raise TooManyUnits(f"explain.slots = {slots} is too small: "
                               f"{text!r} has {len(word)} units, which "
                               f"exceed {slots} slots")
    return Dataset(list(texts), encode_rows(rows, slots),
                   np.full(len(units), label, dtype=int), pronunciations,
                   units)


class ArchiveWords:
    """An archive's words as one command reads them, each parsed and
    encoded at most once, on first use: ``wake`` is the wake word's parse;
    ``fuzzy`` holds the fuzzy words in ``sorted_candidates`` order, labelled
    1; ``build_dataset`` parses the never-woke words it keeps."""

    def __init__(self, archive: FuzzyArchive, slots: int):
        self.archive = archive
        self.slots = slots

    @cached_property
    def wake(self) -> tuple[list[tuple[str, str]], list[str]]:
        return parse_text(self.archive.wake_word, self.archive.language)

    @cached_property
    def fuzzy(self) -> Dataset:
        return parse_words([c.word for c in self.archive.sorted_candidates()],
                           self.archive.language, self.slots, 1)


def default_slots(language: str, wake_word: str,
                  length_ratio: float = LENGTH_RATIO) -> int:
    """Feature slots: exact for Chinese (two units per character); for
    English, twice the search genome length, since no g2p rule emits more
    than two phonemes per letter."""
    if language == "zh":
        return 2 * len(wake_word.split())
    return 2 * english_genome_length(wake_word, length_ratio)


def build_dataset(words: ArchiveWords, seed: int = 0) -> Dataset:
    """Fuzzy words as positives, the run's never-woke words as negatives,
    class ratio capped by seeded downsampling of the larger class."""
    archive = words.archive
    n_pos = len(archive.candidates)
    negatives = sorted(archive.rejected)
    if not n_pos or not negatives:
        raise EmptyClass("need both fuzzy and non-fuzzy words")
    rng = np.random.default_rng(seed)
    positives = range(n_pos)
    if len(negatives) > MAX_CLASS_RATIO * n_pos:
        keep = rng.choice(len(negatives), MAX_CLASS_RATIO * n_pos,
                          replace=False)
        negatives = [negatives[i] for i in sorted(keep)]
    elif n_pos > MAX_CLASS_RATIO * len(negatives):
        keep = rng.choice(n_pos, MAX_CLASS_RATIO * len(negatives),
                          replace=False)
        positives = sorted(keep.tolist())
    return Dataset.concat([
        words.fuzzy.take(list(positives)),
        parse_words(negatives, archive.language, words.slots, 0)])


def dissimilarity_score(model: TreeEnsemble,
                        features: np.ndarray) -> np.ndarray:
    """1 - confidence, one score per row of the feature matrix: high for
    words the proxy calls non-fuzzy."""
    return 1.0 - model.predict_proba(features)


def cross_validate(dataset: Dataset, params: GBDTParams = GBDTParams(),
                   folds: int = ExplainConfig.folds, seed: int = 0) -> float:
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
    feature_indices: tuple[int, ...]   # the minimal top-contribution set


def unit_map(units: list[tuple[str, str]]) -> list[UnitRef]:
    """Owning unit for each feature slot of the encoding of a word with
    these (kind, symbol) units."""
    return [UnitRef(kind, sym, pos) for pos, (kind, sym) in enumerate(units)]


def decisive_factors(phi: np.ndarray, units: list[UnitRef],
                     beta: float = ExplainConfig.beta) -> DecisiveFactorSet:
    """Units owning features of the shortest positive-contribution prefix
    whose share of all positive contributions reaches beta, given one
    word's contributions ``phi`` (a row of ``shap_values``)."""
    values = phi.tolist()
    positive = [(j, c) for j, c in enumerate(values) if c > 0]
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
            per_unit[slot] = per_unit.get(slot, 0.0) + values[j]
    factors = [DecisiveFactor(units[slot], contribution)
               for slot, contribution in sorted(
                   per_unit.items(), key=lambda kv: (-kv[1], kv[0]))]
    return DecisiveFactorSet(word="", factors=factors,
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
                  wake_units: list[tuple[str, str]]) -> FactorGrouping:
    """Classify each decisive factor by how far its embedding sits from the
    same-position unit of the wake word (given by its units, the first
    item of ``parse_text``), relative to the corpus of differences.

    Differences are centered on the corpus mean; within one standard
    deviation above the mean (or anywhere below) is high similarity, within
    two is medium, beyond is low. Positions past the wake word are low by
    convention.
    """
    emb = embedding_table()
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
            diff = emb.unit_gap(kind, factor.unit.symbol, wake_sym)
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
                                     factor.contribution, group))
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


def explain_archive(words: ArchiveWords, model: TreeEnsemble,
                    beta: float = ExplainConfig.beta,
                    ) -> list[DecisiveFactorSet]:
    """Decisive factors of every fuzzy word the proxy classifies correctly."""
    fuzzy = words.fuzzy
    if not fuzzy.texts:
        return []
    kept = np.flatnonzero(model.predict(fuzzy.features) == 1)
    contributions = shap_values(model, fuzzy.features[kept])
    out = []
    for phi, i in zip(contributions, kept.tolist()):
        try:
            fs = decisive_factors(phi, unit_map(fuzzy.units[i]), beta)
        except NoPositiveContributions:
            continue
        fs.word = fuzzy.texts[i]
        out.append(fs)
    return out
