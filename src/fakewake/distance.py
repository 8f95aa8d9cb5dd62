"""The two dissimilarity objectives, and the search's ``objective``.

Chinese: mean of tanh-normalized per-character embedding distances, bounded
in [0,1). English: minimum-cost alignment of phoneme sequences where
deletions and insertions cost 1 and substituting p for q costs twice their
phoneme distance, normalized by the combined length; bounded in [0,1].

``objective`` scores a list of texts, as the search does once per
generation. For English, two or more pronunciations share one alignment
table (``_alignments``) with one cost row per distinct phoneme, and every
cell takes the per-pair ``_alignment``'s additions and comparisons, so each
value has the same bits; ``levenshtein_many`` runs the same table with 0/2
cost rows. Only ``_alignments`` imports numpy, so a one-text call, such as
the ``dist`` command, takes the per-pair path and loads no numpy.
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


def english_many(seqs: Sequence[PhonemeSequence], w2: PhonemeSequence,
                 cfg: DistanceConfig = DistanceConfig()) -> list[float]:
    """``[english_dist(w1, w2, cfg) for w1 in seqs]``: the same floats, and
    the error of the first sequence that has one. Two or more sequences
    share one table (``_alignments``) with one cost row per distinct
    symbol; one or none take the per-pair path, which loads no numpy."""
    if len(seqs) < 2:
        return [english_dist(w1, w2, cfg) for w1 in seqs]
    inv = inventory()
    cols = [None if b == BOUNDARY else inv.index.get(b) for b in w2]
    code = _codes(seqs)
    rows, faults = [], {}
    for a in code:
        try:
            rows.append(_cost_row(inv, a, w2, cols, cfg.space_cost))
        except UnknownPhoneme as exc:
            faults[a] = exc
    if faults:   # english_dist raises at the first symbol that has one
        raise faults[next(a for w1 in seqs for a in w1 if a in faults)]
    return _alignments(seqs, len(w2), code, rows).tolist()


def objective(target: str, language: str,
              cfg: DistanceConfig) -> Callable[[Sequence[str]], list[float]]:
    """``texts -> [dissimilarity to target of each text]``, the target
    parsed once here: the ``chinese_dist`` or ``english_dist`` (of
    pronunciations, through ``english_many``) of each text and the target.
    Text that does not parse raises ``ParseFailure``."""
    if language == "zh":
        wake = parse_pinyin(target)
        return lambda texts: [chinese_dist(parse_pinyin(text), wake, cfg)
                              for text in texts]
    wake = g2p(LetterWord(target))
    return lambda texts: english_many(
        [g2p(LetterWord(text)) for text in texts], wake, cfg)


def _codes(seqs: Sequence[Sequence]) -> dict:
    """Each distinct symbol of ``seqs`` -> 0, 1, ..., in order of first
    appearance."""
    return {a: k for k, a in enumerate(dict.fromkeys(
        a for s in seqs for a in s))}


def _alignments(seqs: Sequence[Sequence], n: int, code: dict,
                cost_rows) -> np.ndarray:
    """``_alignment`` of each of ``seqs`` with one n-symbol sequence, as a
    float64 array: ``code`` (of ``_codes``) maps every symbol of ``seqs``
    to its row of ``cost_rows``, the n costs of substituting it for each
    symbol. An empty sequence raises ``BothEmpty`` where n is 0.

    One table for all the sequences: each cell of row i takes the same
    additions and comparisons as in ``_alignment``, for every sequence at
    once, and a sequence's value is read at its last row."""
    import numpy as np

    costs = np.array(cost_rows, dtype=float).reshape(len(code), n)
    count = len(seqs)
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    if n == 0 and not lengths.all():
        raise BothEmpty("cannot compare two empty sequences")
    width = int(lengths.max(initial=0))
    symbols = np.zeros((width, count), dtype=np.intp)
    symbols.T[np.arange(width) < lengths[:, None]] = [
        code[a] for s in seqs for a in s]
    # subs[i][j]: the cost of substituting each sequence's symbol i for
    # symbol j; prev and cur: two rows of the table, one cell per line
    subs = costs.T.take(symbols, axis=1).transpose(1, 0, 2)
    prev = np.repeat(np.arange(n + 1, dtype=float)[:, None], count, axis=1)
    cur = np.empty_like(prev)
    prev_cells, cur_cells = list(prev), list(cur)
    up, step = np.empty((n, count)), np.empty(count)
    # ends[i]: the last cell of row i, a value for the sequences of length i
    ends = np.empty((width + 1, count))
    ends[0] = n
    for i in range(1, width + 1):
        # best = diag + cost, then the up path if it is smaller
        best = subs[i - 1]
        best += prev[:-1]
        np.minimum(best, np.add(prev[1:], 1.0, out=up), out=best)
        left = cur_cells[0]
        left.fill(i)
        for cost, cell in zip(best, cur_cells[1:]):   # then the left path
            left = np.minimum(cost, np.add(left, 1.0, out=step), out=cell)
        ends[i] = left
        prev, cur = cur, prev
        prev_cells, cur_cells = cur_cells, prev_cells
    return ends[lengths, np.arange(count)] / (lengths + n)


def levenshtein_many(seqs: Sequence[Sequence],
                     target: Sequence) -> np.ndarray:
    """Plain uniform-cost edit distance of each sequence to ``target``,
    normalized by the combined length: the baseline of the separation
    report. Substitution costs 2, so the value is comparable with the
    phoneme-weighted objective. A pair of empty sequences raises
    ``BothEmpty``.

    ``_alignments`` with cost rows of 0.0 where the symbols are equal and
    2.0 elsewhere: every cell holds a whole number, so each sum is
    exact."""
    code = _codes(seqs)
    return _alignments(seqs, len(target), code,
                       [[0.0 if a == b else 2.0 for b in target]
                        for a in code])
