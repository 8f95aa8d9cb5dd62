"""Phoneme inventory, articulatory feature distance, and letter-to-phoneme
conversion.

The inventory is a general-American set of 39 symbols with ternary
articulatory features (+1 present / 0 unmarked / -1 absent). Conversion is
lexicon-first with a rule fallback so any letter string gets a deterministic
pronunciation. Word boundaries are kept as ``BOUNDARY`` markers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataio import read_tsv, read_weight_rows
from .errors import UnknownPhoneme

BOUNDARY = " "

ALPHABET = "abcdefghijklmnopqrstuvwxyz" + BOUNDARY


@dataclass(frozen=True)
class Phoneme:
    symbol: str
    features: tuple[int, ...]


@dataclass(frozen=True)
class LetterWord:
    """A candidate word over the 27-symbol alphabet (a-z and space)."""

    symbols: str

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("a letter word needs at least one symbol")
        bad = set(self.symbols) - set(ALPHABET)
        if bad:
            raise ValueError(f"symbols outside the alphabet: {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.symbols)


# A phoneme sequence is a list of inventory symbols, possibly containing
# BOUNDARY markers between tokens.
PhonemeSequence = list


class PhonemeInventory:
    """Immutable after load: all pairwise distances precomputed."""

    def __init__(self):
        rows = read_tsv("phoneme_features.tsv")
        weights = read_weight_rows("phoneme_features.tsv")[0]
        self.weights = np.array([float(w) for w in weights])
        self.phonemes: dict[str, Phoneme] = {}
        feats = []
        for row in rows:
            sym, values = row[0], tuple(int(v) for v in row[1:])
            if len(values) != len(self.weights):
                raise ValueError(f"feature row length mismatch for {sym}")
            self.phonemes[sym] = Phoneme(sym, values)
            feats.append(values)
        self._index = {sym: i for i, sym in enumerate(self.phonemes)}
        mat = np.asarray(feats, dtype=float)
        gaps = np.abs(mat[:, None, :] - mat[None, :, :]) / 2.0
        self._dist = gaps @ self.weights / self.weights.sum()

    def symbols(self) -> list[str]:
        return sorted(self.phonemes)

    def distance(self, p: str, q: str) -> float:
        """Weighted Hamming distance over feature vectors, normalized to [0,1]."""
        try:
            i = self._index[p]
        except KeyError:
            raise UnknownPhoneme(p) from None
        try:
            j = self._index[q]
        except KeyError:
            raise UnknownPhoneme(q) from None
        return float(self._dist[i, j])

    def distance_matrix(self) -> tuple[list[str], np.ndarray]:
        syms = self.symbols()
        idx = [self._index[s] for s in syms]
        return syms, self._dist[np.ix_(idx, idx)].copy()


@lru_cache(maxsize=None)
def inventory() -> PhonemeInventory:
    return PhonemeInventory()


def phoneme_distance(p: str, q: str) -> float:
    return inventory().distance(p, q)


class G2P:
    """Lexicon lookup with longest-match rule fallback."""

    def __init__(self):
        self.lexicon = {
            token: phones.split()
            for token, phones in read_tsv("lexicon.tsv")
        }
        rules: dict[str, tuple[int, list[str]]] = {}
        for grapheme, phones, priority in read_tsv("g2p_rules.tsv"):
            prev = rules.get(grapheme)
            cand = (int(priority), phones.split())
            if prev is None or cand < prev:
                rules[grapheme] = cand
        self.rules = rules
        self.max_grapheme = max(len(g) for g in rules)

    def token(self, token: str) -> list[str]:
        if token in self.lexicon:
            return list(self.lexicon[token])
        phones: list[str] = []
        i = 0
        while i < len(token):
            match = None
            for width in range(min(self.max_grapheme, len(token) - i), 0, -1):
                grapheme = token[i:i + width]
                if grapheme in self.rules:
                    match = grapheme
                    break
            if match is None:
                i += 1  # unmatched symbol contributes nothing
                continue
            phones.extend(self.rules[match][1])
            i += len(match)
        return phones

    def word(self, word: LetterWord | str) -> PhonemeSequence:
        text = word.symbols if isinstance(word, LetterWord) else word
        tokens = text.split()
        out: list[str] = []
        for idx, tok in enumerate(tokens):
            if idx:
                out.append(BOUNDARY)
            out.extend(self.token(tok))
        return out


@lru_cache(maxsize=None)
def g2p_converter() -> G2P:
    return G2P()


def g2p(word: LetterWord | str) -> PhonemeSequence:
    """Deterministic pronunciation of a letter string; empty input -> []."""
    return g2p_converter().word(word)


def strip_boundaries(seq: PhonemeSequence) -> list[str]:
    return [p for p in seq if p != BOUNDARY]
