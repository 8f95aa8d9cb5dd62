"""Feature-distance tables of phonetic units, the phoneme inventory, and
letter-to-phoneme conversion.

The inventory is a general-American set of 39 symbols with ternary
articulatory features (+1 present / 0 unmarked / -1 absent); its
``FeatureTable`` and those of the pinyin initials and finals (built in
``embedding``) hold every pairwise feature distance. Conversion is
lexicon-first with a rule fallback so any letter string gets a deterministic
pronunciation. Word boundaries are kept as ``BOUNDARY`` markers.
``G2P.read`` is the one reading of a text: ``g2p`` reads phonemes through it
and ``embedding`` the pieces of its word lists, each from a run table. The
tables of ``data_dir()`` are read on first use, and what is built from them
is held until ``dataio.clear_tables()``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from operator import mul, sub

from .dataio import check_symbols, read_table, table_memo
from .errors import ParseFailure

BOUNDARY = " "

ALPHABET = "abcdefghijklmnopqrstuvwxyz" + BOUNDARY
_ALPHABET_SET = frozenset(ALPHABET)


@dataclass(frozen=True)
class LetterWord:
    """A candidate word over the 27-symbol alphabet (a-z and space)."""

    symbols: str

    def __post_init__(self):
        if not self.symbols:
            raise ParseFailure("a letter word needs at least one symbol")
        bad = set(self.symbols) - _ALPHABET_SET
        if bad:
            raise ParseFailure(f"symbols outside a-z/space: {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.symbols)


# A phoneme sequence is a list of inventory symbols, possibly containing
# BOUNDARY markers between tokens.
PhonemeSequence = list


class FeatureTable:
    """One unit kind's symbols and every pairwise feature distance: the
    weighted Hamming distance between ternary feature rows, normalized to
    [0, 1].

    ``index`` maps each symbol to its position among the (symbol, features)
    ``rows``, and ``rows[index[p]][index[q]]`` becomes the distance between
    p and q. Features and weights are integers, as ``read_table`` gives
    them, so each distance is one exact integer sum of |x - y| * w over
    the features, divided once by 2 * sum(w): the same double as numpy's
    ``|x - y| / 2.0 @ w / sum(w)``, bit for bit."""

    def __init__(self, rows, weights):
        self.index = {sym: i for i, (sym, _) in enumerate(rows)}
        feats = [values for _, values in rows]
        scale = 2 * sum(weights)
        # the upper triangle, mirrored; the diagonal stays 0.0
        self.rows: list[list[float]] = [[0.0] * len(feats) for _ in feats]
        for i, x in enumerate(feats):
            row = self.rows[i]
            for j in range(i + 1, len(feats)):
                gap = sum(map(mul, map(abs, map(sub, x, feats[j])), weights))
                row[j] = self.rows[j][i] = gap / scale


@table_memo
def inventory() -> FeatureTable:
    """The phoneme table of ``phoneme_features.tsv``, in symbol order."""
    rows, weights = read_table("phoneme_features.tsv", str, weighted=True)
    return FeatureTable(sorted(rows), weights.get(None, ()))


class G2P:
    """Lexicon lookup with longest-match rule fallback.

    Outside the lexicon a token is read left to right by one compiled
    pattern: every rule grapheme in an alternation, longest first, then a
    one-character catch-all. The first alternative that matches at a
    position is the longest rule grapheme there; a character no rule starts
    with is consumed by the catch-all and contributes nothing."""

    def __init__(self):
        self.lexicon = dict(read_table("lexicon.tsv", str, str.split)[0])
        rows, _ = read_table("g2p_rules.tsv", str, str.split, int, key=(0, 2))
        for name, runs in (("lexicon.tsv", self.lexicon.values()),
                           ("g2p_rules.tsv", (r[1] for r in rows))):
            check_symbols("phoneme", (p for run in runs for p in run), name,
                          inventory().index, "phoneme_features.tsv")
        self.rules = rules = {}   # grapheme -> (priority, phones)
        for grapheme, phones, priority in rows:   # the lowest priority wins
            rules[grapheme] = min(rules.get(grapheme, (priority, phones)),
                                  (priority, phones))
        graphemes = sorted(rules, key=lambda g: (-len(g), g))
        self._pattern = re.compile(
            "|".join([*map(re.escape, graphemes), "(?s:.)"]))
        self.phone_runs = self.runs(tuple)

    def runs(self, run):
        """A run table for ``read``: ``run`` of the phoneme tuple of each
        lexicon token, of each rule grapheme and of the word boundary."""
        graphemes = {g: run(tuple(phones))
                     for g, (_, phones) in self.rules.items()}
        graphemes[BOUNDARY] = run((BOUNDARY,))
        return ({token: run(tuple(phones))
                 for token, phones in self.lexicon.items()}, graphemes)

    def read(self, text: str, table, add) -> None:
        """Pass ``add`` the runs of ``text``'s pronunciation from ``table``
        (see ``runs``), in order: per whitespace-separated token its
        lexicon entry, or else each pattern match that has a run, and the
        boundary between tokens."""
        tokens, graphemes = table
        findall = self._pattern.findall
        for k, token in enumerate(text.split()):
            if k:
                add(graphemes[BOUNDARY])
            run = tokens.get(token)
            if run is not None:
                add(run)
                continue
            for match in findall(token):
                run = graphemes.get(match)
                if run is not None:
                    add(run)


@table_memo
def g2p_converter() -> G2P:
    return G2P()


def g2p(word: LetterWord | str) -> PhonemeSequence:
    """Deterministic pronunciation of a letter string; empty input -> []."""
    converter = g2p_converter()
    phones: PhonemeSequence = []
    converter.read(word.symbols if isinstance(word, LetterWord) else word,
                   converter.phone_runs, phones.extend)
    return phones

