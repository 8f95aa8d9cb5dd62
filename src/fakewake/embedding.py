"""2-D unit embeddings via classical multidimensional scaling, the feature
encoding used by all classifiers, the per-character distance for the
Chinese objective, and ``parse_text``, the one reading of a word's text as
its units and pronunciation.

Initial/final coordinates are scaled by ``UNIT_SCALE`` so character distances
land in the working range of the tanh normalization (constant A = 100);
phoneme coordinates stay at the natural scale of their [0,1] distances.
"""
from __future__ import annotations

from array import array
from collections.abc import Iterable
from functools import lru_cache

import numpy as np

from .dataio import read_tsv, read_weight_rows
from .errors import ParseFailure, TooManyUnits
from .phonemes import (BOUNDARY, FeatureTable, LetterWord, PhonemeSequence,
                       g2p, inventory)
from .pinyin import ChineseWord, Syllable, parse_pinyin, unit_tables

UNIT_SCALE = 25.0

_SIGN_TOL = 1e-12


def mds_embed(dist: np.ndarray) -> np.ndarray:
    """Classical MDS of a symmetric distance matrix into k x 2 coordinates.

    Double centering followed by the top-2 eigenpairs, coordinates scaled by
    the square root of each eigenvalue. Dimensions with non-positive
    eigenvalues degenerate to zero columns. Column signs are fixed so the
    first nonzero coordinate of each dimension is nonnegative.
    """
    dist = np.asarray(dist, dtype=float)
    k = dist.shape[0]
    if dist.shape != (k, k):
        raise ValueError("distance matrix must be square")
    if not np.allclose(dist, dist.T):
        raise ValueError("distance matrix must be symmetric")
    center = np.eye(k) - np.ones((k, k)) / k
    b = -0.5 * center @ (dist ** 2) @ center
    eigval, eigvec = np.linalg.eigh(b)
    order = np.argsort(eigval)[::-1]
    coords = np.zeros((k, 2))
    for dim in range(min(2, k)):
        lam = eigval[order[dim]]
        if lam <= 0:
            continue  # degenerate: keep the zero column
        col = eigvec[:, order[dim]] * np.sqrt(lam)
        nonzero = np.nonzero(np.abs(col) > _SIGN_TOL)[0]
        if nonzero.size and col[nonzero[0]] < 0:
            col = -col
        coords[:, dim] = col
    return coords


class EmbeddingTable:
    """Every unit's 2-D vector in one table, and per kind (initial / final /
    phoneme) the ``FeatureTable`` of feature-space distances between its
    units."""

    def __init__(self):
        symbols = {"initial": [], "final": []}
        features = {"initial": [], "final": []}
        for row in read_tsv("pinyin_unit_features.tsv"):
            kind = "initial" if row[0] == "initial" else "final"
            symbols[kind].append(row[1])
            features[kind].append(row[2:])
        weight_rows = read_weight_rows("pinyin_unit_features.tsv")
        self.tables: dict[str, FeatureTable] = {
            kind: FeatureTable(symbols[kind], features[kind], weights[1:])
            for kind, weights in zip(symbols, weight_rows)}
        self.tables["phoneme"] = inventory()

        # every unit's vector stacked into one table, row 0 the zero padding;
        # ``units[kind][symbol]`` is the one (kind, symbol) tuple that all
        # unit lists share (``word_units`` makes its own only for a symbol
        # the table lacks, which encoding then rejects as before)
        self.unit_row: dict[tuple[str, str], int] = {}
        self.units: dict[str, dict[str, tuple[str, str]]] = {}
        stacked = [np.zeros((1, 2))]
        for kind, table in self.tables.items():
            vectors = mds_embed(table.matrix)
            stacked.append(vectors if kind == "phoneme"
                           else vectors * UNIT_SCALE)
            units = self.units[kind] = {}
            for sym in table.index:
                unit = units[sym] = (kind, sym)
                self.unit_row[unit] = len(self.unit_row) + 1
        self.unit_vectors = np.concatenate(stacked)

    def unit_vec(self, kind: str, symbol: str) -> np.ndarray:
        return self.unit_vectors[self.unit_row[kind, symbol]]

    def unit_gap(self, kind: str, a: str, b: str) -> float:
        """Embedding distance between same-kind units."""
        return float(np.linalg.norm(self.unit_vec(kind, a)
                                    - self.unit_vec(kind, b)))

    def unit_feature_distance(self, kind: str, a: str, b: str) -> float:
        """Feature-space distance between same-kind units, in [0, 1]."""
        table = self.tables[kind]
        return table.rows[table.index[a]][table.index[b]]


@lru_cache(maxsize=None)
def embedding_table() -> EmbeddingTable:
    return EmbeddingTable()


@lru_cache(maxsize=None)
def _index_gap(kind: str, a: int, b: int) -> float:
    """``unit_gap`` between an initial or final pair given by index."""
    tables = unit_tables()
    symbol = (tables.initial_by_index if kind == "initial"
              else tables.final_by_index)
    return embedding_table().unit_gap(kind, symbol[a], symbol[b])


def character_distance(a: Syllable, b: Syllable, tone_penalty: float = 1.0) -> float:
    """Embedding distance between two characters; tones add a flat penalty.

    The two embedding gaps are memoised per index pair (at most 24 x 24 and
    37 x 37 entries), filled lazily on first use."""
    d = _index_gap("initial", a.initial, b.initial)
    d += _index_gap("final", a.final, b.final)
    if a.tone != b.tone:
        d += tone_penalty
    return d


def word_units(word: ChineseWord | LetterWord) -> list[tuple[str, str]]:
    """The (kind, symbol) unit sequence a word contributes to the feature
    encoding: [initial, final] per character for Chinese (tone excluded),
    g2p phonemes for English."""
    if isinstance(word, ChineseWord):
        table = unit_tables()
        shared = embedding_table().units
        initials, finals = shared["initial"], shared["final"]
        units = []
        for syl in word.syllables:
            ini = table.initial_by_index[syl.initial]
            fin = table.final_by_index[syl.final]
            units.append(initials.get(ini) or ("initial", ini))
            units.append(finals.get(fin) or ("final", fin))
        return units
    return phoneme_units(g2p(word))


def phoneme_units(phones: PhonemeSequence) -> list[tuple[str, str]]:
    """The units of an English pronunciation: its phonemes, without the
    word boundaries."""
    shared = embedding_table().units["phoneme"]
    return [shared.get(p) or ("phoneme", p) for p in phones if p != BOUNDARY]


def parse_text(text: str, language: str) -> tuple[list[tuple[str, str]],
                                                  list[str]]:
    """A word given as text, parsed once: its units (``word_units``) and
    its pronunciation, the sequence the edit-distance baseline compares
    (the g2p phonemes with word boundaries for English, the syllables for
    Chinese). Text that does not parse raises ``ParseFailure`` naming it."""
    try:
        if language == "zh":
            return word_units(parse_pinyin(text)), text.split()
        phones = g2p(LetterWord(text))
    except ParseFailure as exc:
        raise ParseFailure(
            f"{text!r} does not parse as {language}: {exc}") from exc
    return phoneme_units(phones), phones


def encode_units(words: Iterable[list[tuple[str, str]]],
                 slots: int) -> np.ndarray:
    """The feature matrix of a word list given by each word's units: row i
    holds the 2-D embeddings of word i's units concatenated in order,
    zero-padded to 2 * slots values. Raises ``TooManyUnits`` at the first
    word with more than ``slots`` units. ``words`` is read once, so it can
    be a generator that parses each word as it is needed."""
    emb = embedding_table()
    unit_row = emb.unit_row
    # two bytes per slot (a row past 65535 raises OverflowError): a list
    # of Python ints left the process larger after each command
    rows = array("H")
    count = 0
    for units in words:
        if len(units) > slots:
            raise TooManyUnits(f"{len(units)} units exceed {slots} slots")
        rows.extend([unit_row[unit] for unit in units])
        rows.extend([0] * (slots - len(units)))
        count += 1
    gathered = emb.unit_vectors[np.frombuffer(rows, dtype=np.uint16)]
    return gathered.reshape(count, 2 * slots)


def encode_features(word: ChineseWord | LetterWord, slots: int) -> np.ndarray:
    """The feature vector of one word (see ``encode_units``)."""
    return encode_units([word_units(word)], slots)[0]
