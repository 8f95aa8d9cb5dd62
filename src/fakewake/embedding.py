"""2-D unit embeddings via classical multidimensional scaling, the feature
encoding used by all classifiers, the per-character distance for the
Chinese objective, and ``read_words``, the one reading of word texts as
their units and pronunciations (``parse_text`` reads one text with it).
Each language's reader tables are built once per process: the ``G2P`` run
table of English ``Piece``s on the first read, and a syllable's piece on
its spelling's first parse.

Initial/final coordinates are scaled by ``UNIT_SCALE`` so character distances
land in the working range of the tanh normalization (constant A = 100);
phoneme coordinates stay at the natural scale of their [0,1] distances.

Parsing words needs no numpy: only the functions that make arrays
(``mds_embed``, ``EmbeddingTable.unit_vectors`` and ``unit_gap``,
``encode_rows``) import it.
"""
from __future__ import annotations

import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from .dataio import check_rows, check_symbols, read_tsv, read_weight_rows
from .errors import ParseFailure, TooManyUnits, UnknownSyllable
from .phonemes import (ALPHABET, BOUNDARY, FeatureTable, LetterWord,
                       g2p_converter, inventory)
from .pinyin import (UNIT_KINDS, ChineseWord, Syllable, parse_syllable,
                     unit_tables)

if TYPE_CHECKING:
    import numpy as np

UNIT_SCALE = 25.0

_SIGN_TOL = 1e-12


def mds_embed(dist) -> np.ndarray:
    """Classical MDS of a symmetric distance matrix (an array or a list of
    rows) into k x 2 coordinates.

    Double centering followed by the top-2 eigenpairs, coordinates scaled by
    the square root of each eigenvalue. Dimensions with non-positive
    eigenvalues degenerate to zero columns. Column signs are fixed so the
    first nonzero coordinate of each dimension is nonnegative.
    """
    import numpy as np

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
    units. The vectors are derived on first use; the rest needs no numpy."""

    def __init__(self):
        symbols = {kind: [] for kind in UNIT_KINDS}
        features = {kind: [] for kind in UNIT_KINDS}
        rows = read_tsv("pinyin_unit_features.tsv")
        check_rows("pinyin_unit_features.tsv", rows, kinds=UNIT_KINDS)
        for kind, symbol, *values in rows:
            symbols[kind].append(symbol)
            features[kind].append(values)
        weight_rows = read_weight_rows("pinyin_unit_features.tsv")
        self.tables: dict[str, FeatureTable] = {
            kind: FeatureTable(symbols[kind], features[kind], weights[1:])
            for kind, weights in zip(symbols, weight_rows)}
        units = unit_tables()
        for kind, index in (("initial", units.initial_index),
                            ("final", units.final_index)):
            check_symbols(kind, index, "pinyin_units.tsv",
                          self.tables[kind].index, "pinyin_unit_features.tsv")
        self.tables["phoneme"] = inventory()

        # each (kind, symbol) unit's row of ``unit_vectors``, row 0 the
        # zero padding
        self.unit_row: dict[tuple[str, str], int] = {}
        for kind, table in self.tables.items():
            for sym in table.index:
                self.unit_row[kind, sym] = len(self.unit_row) + 1

    @cached_property
    def unit_vectors(self) -> np.ndarray:
        """Every unit's 2-D vector stacked into one table, in the order of
        ``unit_row``, after a zero row; MDS runs on the first use."""
        import numpy as np

        stacked = [np.zeros((1, 2))]
        for kind, table in self.tables.items():
            vectors = mds_embed(table.rows)
            stacked.append(vectors if kind == "phoneme"
                           else vectors * UNIT_SCALE)
        return np.concatenate(stacked)

    def unit_vec(self, kind: str, symbol: str) -> np.ndarray:
        return self.unit_vectors[self.unit_row[kind, symbol]]

    def unit_gap(self, kind: str, a: str, b: str) -> float:
        """Embedding distance between same-kind units."""
        import numpy as np

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
    the phonemes ``parse_text`` reads for English."""
    if isinstance(word, LetterWord):
        return parse_text(word.symbols, "en")[0]
    table = unit_tables()
    units = []
    for syl in word.syllables:
        units.append(("initial", table.initial_by_index[syl.initial]))
        units.append(("final", table.final_by_index[syl.final]))
    return units


def parse_text(text: str, language: str) -> tuple[list[tuple[str, str]],
                                                  list[str]]:
    """A word given as text, parsed once (``read_words`` of that one text):
    its units (``word_units``) and its pronunciation, the sequence the
    edit-distance baseline compares (the g2p phonemes with word boundaries
    for English, the syllables for Chinese). Text that does not parse
    raises ``ParseFailure`` naming it."""
    [(_, pieces)] = read_words((text,), language)
    if isinstance(pieces, ParseFailure):
        raise pieces
    return ([unit for piece in pieces for unit in piece.units],
            [phone for piece in pieces for phone in piece.phones])


class Piece:
    """A run of a pronunciation that reads the same in every word: one rule
    grapheme's or lexicon token's phonemes, a word boundary, or one
    syllable. ``phones`` is its part of the pronunciation, ``units`` its
    units and ``rows`` their rows of ``EmbeddingTable.unit_vectors``."""

    __slots__ = ("phones", "units", "rows")

    def __init__(self, phones: tuple[str, ...],
                 units: tuple[tuple[str, str], ...]):
        unit_row = embedding_table().unit_row
        self.phones, self.units = phones, units
        self.rows = tuple(unit_row[unit] for unit in units)


@lru_cache(maxsize=None)
def _letter_pieces():
    """The ``G2P`` run table of ``Piece``s: a run's phonemes, without the
    word boundary, are its units."""
    return g2p_converter().runs(lambda phones: Piece(phones, tuple(
        ("phoneme", p) for p in phones if p != BOUNDARY)))


@lru_cache(maxsize=None)
def _syllable(part: str) -> Piece:
    """The piece of one syllable spelling; one that does not parse raises,
    on every call, as ``parse_syllable`` does."""
    return Piece((part,), tuple(word_units(
        ChineseWord((parse_syllable(part),)))))


_LETTERS = re.compile(f"[{re.escape(ALPHABET)}]+")


def _read(text: str, language: str) -> list[Piece]:
    """One text's pieces; text that does not parse raises ``ParseFailure``."""
    if language == "zh":
        parts = text.split()
        if not parts:
            raise UnknownSyllable("empty pinyin text")
        return [_syllable(part) for part in parts]
    if not _LETTERS.fullmatch(text):
        LetterWord(text)   # raises for a symbol outside a-z/space or ""
    pieces: list[Piece] = []
    g2p_converter().read(text, _letter_pieces(), pieces.append)
    return pieces


def read_words(texts: Iterable[str], language: str,
               ) -> Iterator[tuple[str, list[Piece] | ParseFailure]]:
    """Every text of a list read in turn: yields each text with its
    pieces, whose phones, units and rows, joined in order, are its
    pronunciation, its units and their rows; or with a ``ParseFailure``
    naming the text.

    Each rule grapheme, lexicon token and syllable spelling that parses is
    one ``Piece`` per process: the English ones are built on the first
    English read, a syllable's on its spelling's first parse; a failure is
    not memoised. ``texts`` is read lazily, one text at a time."""
    for text in texts:
        try:
            pieces = _read(text, language)
        except ParseFailure as exc:
            pieces = ParseFailure(
                f"{text!r} does not parse as {language}: {exc}")
            pieces.__cause__ = exc
        yield text, pieces


def encode_rows(words: Iterable[Sequence[int]], slots: int) -> np.ndarray:
    """The feature matrix of a word list given by the rows of each word's
    units in ``EmbeddingTable.unit_vectors``: row i holds the 2-D
    embeddings of word i's units concatenated in order, zero-padded to
    2 * slots values. Raises ``TooManyUnits`` at the first word with more
    than ``slots`` units. ``words`` is read once, so it can be a generator
    that parses each word as it is needed."""
    import numpy as np

    # two bytes per slot (a row past 65535 raises OverflowError): a list
    # of Python ints left the process larger after each command
    rows = array("H")
    zeros = bytes(2 * slots)
    count = 0
    for word in words:
        units = len(word)
        if units > slots:
            raise TooManyUnits(f"{units} units exceed {slots} slots")
        rows.extend(word)
        rows.frombytes(zeros[2 * units:])
        count += 1
    gathered = embedding_table().unit_vectors[
        np.frombuffer(rows, dtype=np.uint16)]
    return gathered.reshape(count, 2 * slots)


def encode_units(words: Iterable[list[tuple[str, str]]],
                 slots: int) -> np.ndarray:
    """The feature matrix of a word list given by each word's units (see
    ``encode_rows``)."""
    unit_row = embedding_table().unit_row
    return encode_rows(([unit_row[unit] for unit in units]
                        for units in words), slots)


def encode_features(word: ChineseWord | LetterWord, slots: int) -> np.ndarray:
    """The feature vector of one word (see ``encode_units``)."""
    return encode_units([word_units(word)], slots)[0]
