"""The two dissimilarity objectives.

Chinese: mean of tanh-normalized per-character embedding distances, bounded
in [0,1). English: minimum-cost alignment of phoneme sequences where
deletions and insertions cost 1 and substituting p for q costs twice their
phoneme distance, normalized by the combined length; bounded in [0,1].
"""
from __future__ import annotations

import math

from .embedding import character_distance
from .errors import BothEmpty, LengthMismatch, UnknownPhoneme
from .params import DistanceConfig
from .phonemes import BOUNDARY, PhonemeInventory, PhonemeSequence, inventory
from .pinyin import ChineseWord


def chinese_dist(w1: ChineseWord, w2: ChineseWord,
                 cfg: DistanceConfig = DistanceConfig()) -> float:
    if len(w1) != len(w2):
        raise LengthMismatch(f"{len(w1)} vs {len(w2)} characters")
    total = 0.0
    for a, b in zip(w1.syllables, w2.syllables):
        total += math.tanh(character_distance(a, b, cfg.tone_penalty) / cfg.normalizer)
    return total / len(w1)


def _cost_row(inv: PhonemeInventory, a: str, w2: PhonemeSequence,
              cols: list[int | None], space_cost: float) -> list[float]:
    """Twice the cost of substituting ``a`` for each symbol of ``w2`` (whose
    inventory columns are ``cols``, None for a boundary or an unknown
    symbol). An unknown symbol raises ``UnknownPhoneme`` at the first pair
    that needs its distance, naming ``a`` first."""
    i = None if a == BOUNDARY else inv.index.get(a)
    row = None if i is None else inv.rows[i]
    if row is not None and None not in cols:
        # every pair is a phoneme pair; the diagonal of the rows is 0.0
        return [2.0 * row[j] for j in cols]
    costs = []
    for b, j in zip(w2, cols):
        if a == b:
            cost = 0.0
        elif a == BOUNDARY or b == BOUNDARY:
            cost = space_cost
        elif row is None:
            raise UnknownPhoneme(a)
        elif j is None:
            raise UnknownPhoneme(b)
        else:
            cost = row[j]
        costs.append(2.0 * cost)
    return costs


def english_dist(w1: PhonemeSequence, w2: PhonemeSequence,
                 cfg: DistanceConfig = DistanceConfig()) -> float:
    """Minimum (deletions + insertions + 2 * substitution distances) / (m+n).
    Each cell takes the first least of the substitution, deletion and
    insertion paths, as ``min`` did."""
    m, n = len(w1), len(w2)
    if m + n == 0:
        raise BothEmpty("cannot compare two empty sequences")
    inv = inventory()
    cols = [None if b == BOUNDARY else inv.index.get(b) for b in w2]
    prev = [float(j) for j in range(n + 1)]
    for i in range(1, m + 1):
        costs = _cost_row(inv, w1[i - 1], w2, cols, cfg.space_cost)
        left = float(i)
        cur = [left]
        for diag, up, cost in zip(prev, prev[1:], costs):
            best = diag + cost
            up += 1.0
            left += 1.0
            if up < best:
                best = up
            if left < best:
                best = left
            left = best
            cur.append(best)
        prev = cur
    return prev[n] / (m + n)


def levenshtein_dist(s1, s2) -> float:
    """Plain uniform-cost edit distance over symbols, normalized by m+n.

    Baseline for the separation report; substitution costs 2 so the value is
    comparable with the phoneme-weighted objective.
    """
    m, n = len(s1), len(s2)
    if m + n == 0:
        raise BothEmpty("cannot compare two empty sequences")
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            sub = prev[j - 1] + (0 if s1[i - 1] == s2[j - 1] else 2)
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[n] / (m + n)
