"""2-D unit embeddings via classical multidimensional scaling, the feature
encoding used by all classifiers, and the per-character distance for the
Chinese objective.

Initial/final coordinates are scaled by ``UNIT_SCALE`` so character distances
land in the working range of the tanh normalization (constant A = 100);
phoneme coordinates stay at the natural scale of their [0,1] distances.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dataio import read_tsv, read_weight_rows
from .errors import TooManyUnits
from .phonemes import LetterWord, g2p, inventory, strip_boundaries
from .pinyin import ChineseWord, Syllable, unit_tables

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


def _feature_distance_matrix(symbols, feats, weights):
    k = len(symbols)
    mat = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            gaps = np.abs(feats[i] - feats[j]) / 2.0
            mat[i, j] = mat[j, i] = float(np.dot(weights, gaps) / weights.sum())
    return mat


class EmbeddingTable:
    """unit symbol -> 2-D vector, per kind (initial / final / phoneme)."""

    def __init__(self):
        ini_syms, ini_feats, fin_syms, fin_feats = [], [], [], []
        weight_rows = read_weight_rows("pinyin_unit_features.tsv")
        ini_weights = np.array([float(w) for w in weight_rows[0][1:]])
        fin_weights = np.array([float(w) for w in weight_rows[1][1:]])
        for row in read_tsv("pinyin_unit_features.tsv"):
            kind, sym, values = row[0], row[1], [int(v) for v in row[2:]]
            if kind == "initial":
                ini_syms.append(sym)
                ini_feats.append(np.array(values, dtype=float))
            else:
                fin_syms.append(sym)
                fin_feats.append(np.array(values, dtype=float))

        self.initial_dist = _feature_distance_matrix(ini_syms, ini_feats, ini_weights)
        self.final_dist = _feature_distance_matrix(fin_syms, fin_feats, fin_weights)
        self.initials = {
            s: v * UNIT_SCALE for s, v in zip(ini_syms, mds_embed(self.initial_dist))
        }
        self.finals = {
            s: v * UNIT_SCALE for s, v in zip(fin_syms, mds_embed(self.final_dist))
        }
        self._initial_index = {s: i for i, s in enumerate(ini_syms)}
        self._final_index = {s: i for i, s in enumerate(fin_syms)}

        inv = inventory()
        pho_syms, pho_dist = inv.distance_matrix()
        self.phoneme_dist = pho_dist
        self.phonemes = {s: v for s, v in zip(pho_syms, mds_embed(pho_dist))}
        self._phoneme_index = {s: i for i, s in enumerate(pho_syms)}

        # kind -> its vectors, and its symbol index plus distance matrix
        self._vectors = {"initial": self.initials, "final": self.finals,
                         "phoneme": self.phonemes}
        self._distances = {
            "initial": (self._initial_index, self.initial_dist),
            "final": (self._final_index, self.final_dist),
            "phoneme": (self._phoneme_index, self.phoneme_dist),
        }

    def initial_vec(self, index: int) -> np.ndarray:
        return self.initials[unit_tables().initial_by_index[index]]

    def final_vec(self, index: int) -> np.ndarray:
        return self.finals[unit_tables().final_by_index[index]]

    def unit_vec(self, kind: str, symbol: str) -> np.ndarray:
        return self._vectors[kind][symbol]

    def unit_feature_distance(self, kind: str, a: str, b: str) -> float:
        """Feature-space distance between same-kind units, in [0, 1]."""
        index, mat = self._distances[kind]
        return float(mat[index[a], index[b]])


@lru_cache(maxsize=None)
def embedding_table() -> EmbeddingTable:
    return EmbeddingTable()


@lru_cache(maxsize=None)
def _initial_gap(a: int, b: int) -> float:
    emb = embedding_table()
    return float(np.linalg.norm(emb.initial_vec(a) - emb.initial_vec(b)))


@lru_cache(maxsize=None)
def _final_gap(a: int, b: int) -> float:
    emb = embedding_table()
    return float(np.linalg.norm(emb.final_vec(a) - emb.final_vec(b)))


def character_distance(a: Syllable, b: Syllable, tone_penalty: float = 1.0) -> float:
    """Embedding distance between two characters; tones add a flat penalty.

    The two embedding gaps are memoised per index pair (at most 24 x 24 and
    37 x 37 entries), filled lazily on first use."""
    d = _initial_gap(a.initial, b.initial)
    d += _final_gap(a.final, b.final)
    if a.tone != b.tone:
        d += tone_penalty
    return d


def word_units(word: ChineseWord | LetterWord) -> list[tuple[str, str]]:
    """The (kind, symbol) unit sequence a word contributes to the feature
    encoding: [initial, final] per character for Chinese (tone excluded),
    g2p phonemes for English."""
    table = unit_tables()
    if isinstance(word, ChineseWord):
        units = []
        for syl in word.syllables:
            units.append(("initial", table.initial_by_index[syl.initial]))
            units.append(("final", table.final_by_index[syl.final]))
        return units
    return [("phoneme", p) for p in strip_boundaries(g2p(word))]


def encode_features(word: ChineseWord | LetterWord, slots: int) -> np.ndarray:
    """Per-unit 2-D embeddings concatenated in order, zero-padded to
    2 * slots values."""
    units = word_units(word)
    if len(units) > slots:
        raise TooManyUnits(f"{len(units)} units exceed {slots} slots")
    emb = embedding_table()
    out = np.zeros(2 * slots)
    for i, (kind, sym) in enumerate(units):
        out[2 * i:2 * i + 2] = emb.unit_vec(kind, sym)
    return out
