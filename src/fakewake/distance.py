"""The two dissimilarity objectives, and the search's ``objective``.

Chinese: mean of tanh-normalized per-character embedding distances, bounded
in [0,1). English: minimum-cost alignment of phoneme sequences where
deletions and insertions cost 1 and substituting p for q costs twice their
phoneme distance, normalized by the combined length; bounded in [0,1].
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from .embedding import character_distance
from .errors import BothEmpty, LengthMismatch, UnknownPhoneme
from .params import DistanceConfig
from .phonemes import BOUNDARY, LetterWord, PhonemeSequence, g2p, inventory
from .pinyin import ChineseWord, parse_pinyin

if TYPE_CHECKING:
    import numpy as np


def chinese_dist(w1: ChineseWord, w2: ChineseWord,
                 cfg: DistanceConfig = DistanceConfig()) -> float:
    if len(w1) != len(w2):
        raise LengthMismatch(f"{len(w1)} vs {len(w2)} characters")
    total = 0.0
    for a, b in zip(w1.syllables, w2.syllables):
        total += math.tanh(character_distance(a, b, cfg.tone_penalty) / cfg.normalizer)
    return total / len(w1)


def _cost_row(inv, a: str, w2: PhonemeSequence,
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


def _alignment(m: int, n: int, cost_rows) -> float:
    """Minimum (deletions + insertions + substitution costs) / (m + n) of
    aligning an m-symbol sequence with an n-symbol one, where row i of
    ``cost_rows`` (read one row at a time, as the table reaches it) holds
    the costs of substituting symbol i for each of the n. Each cell takes
    the first least of the substitution, deletion and insertion paths, as
    ``min`` did."""
    if m + n == 0:
        raise BothEmpty("cannot compare two empty sequences")
    prev = [float(j) for j in range(n + 1)]
    for i, costs in enumerate(cost_rows, 1):
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


def english_dist(w1: PhonemeSequence, w2: PhonemeSequence,
                 cfg: DistanceConfig = DistanceConfig()) -> float:
    """Minimum (deletions + insertions + 2 * substitution distances) / (m+n)."""
    inv = inventory()
    cols = [None if b == BOUNDARY else inv.index.get(b) for b in w2]
    space = cfg.space_cost
    return _alignment(len(w1), len(w2),
                      (_cost_row(inv, a, w2, cols, space) for a in w1))


def objective(target: str, language: str,
              cfg: DistanceConfig) -> Callable[[str], float]:
    """``text -> dissimilarity`` to ``target``, parsed once here: the
    ``chinese_dist`` or ``english_dist`` (of pronunciations) of the text and
    the target. Text that does not parse raises ``ParseFailure``."""
    if language == "zh":
        wake = parse_pinyin(target)
        return lambda text: chinese_dist(parse_pinyin(text), wake, cfg)
    wake = g2p(LetterWord(target))
    return lambda text: english_dist(g2p(LetterWord(text)), wake, cfg)


def levenshtein_many(seqs: Sequence[Sequence],
                     target: Sequence) -> np.ndarray:
    """Plain uniform-cost edit distance of each sequence to ``target``,
    normalized by the combined length: the baseline of the separation
    report. Substitution costs 2, so the value is comparable with the
    phoneme-weighted objective. A pair of empty sequences raises
    ``BothEmpty``.

    One table for all the sequences: each cell of row i takes the same
    additions and comparisons as in ``_alignment``, for every sequence at
    once, and a sequence's value is read at its last row. Every cell holds
    a whole number, so each sum is exact."""
    import numpy as np

    n = len(target)
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    if n == 0 and not lengths.all():
        raise BothEmpty("cannot compare two empty sequences")
    # symbols as codes, equal where the symbols are: the target's distinct
    # ones 0, 1, ..., any other -1
    code = {sym: k for k, sym in enumerate(dict.fromkeys(target))}
    want = np.array([code[sym] for sym in target], dtype=np.int64)
    width = int(lengths.max(initial=0))
    symbols = np.full((len(seqs), width), -1, dtype=np.int64)
    symbols[np.arange(width) < lengths[:, None]] = [
        code.get(sym, -1) for s in seqs for sym in s]
    prev = np.tile(np.arange(n + 1, dtype=float), (len(seqs), 1))
    cur = np.empty_like(prev)
    last = np.where(lengths == 0, float(n), 0.0)
    for i in range(1, width + 1):
        # best = diag + cost, then the up path if it is smaller
        best = np.where(symbols[:, i - 1, None] == want, 0.0, 2.0)
        best += prev[:, :-1]
        np.minimum(best, prev[:, 1:] + 1.0, out=best)
        cur[:, 0] = i
        for j in range(1, n + 1):   # then the left path
            np.minimum(best[:, j - 1], cur[:, j - 1] + 1.0, out=cur[:, j])
        ends = lengths == i
        last[ends] = cur[ends, n]
        prev, cur = cur, prev
    return last / (lengths + n)
