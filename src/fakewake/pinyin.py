"""Mandarin syllable machinery: unit inventories, parsing, validation.

A syllable is an (initial, final, tone) triple over the shipped inventories:
24 initial values (index 0 is the zero initial ``-``), 37 finals in
lexicographic order, and tones 1-4. The written forms treat ``y``/``w`` as
initials and use ``v`` for ``ü``.

The tables of ``data_dir()`` are read on first use and held, with every
memo built from them, until ``dataio.clear_tables()``. Both directions
between text and triples are memoised, filled lazily on first use, because
a run parses and renders the same few hundred syllables tens of thousands
of times. ``render_units`` is keyed on the triple, so it holds at most
24 x 37 x 4 entries. ``parse_syllable`` is keyed on the text as given, so it
holds one entry per distinct spelling in the input (digit or diacritic
tone, case, NFC or NFD); each entry maps to the one shared frozen
``Syllable``. Neither caches a failure: an invalid triple or a bad spelling
raises on every call. ``embedding`` memoises each parsed spelling's piece
by the same rule.
"""
from __future__ import annotations

import unicodedata
from dataclasses import dataclass

from .dataio import (check_symbols, data_dir, data_path, read_table,
                     table_memo)
from .errors import ConfigError, InvalidCombination, UnknownSyllable

ZERO_INITIAL = "-"
# the kinds of the unit tables' rows
UNIT_KINDS = ("initial", "final")

_TONE_MARKS = {
    "̄": 1,  # macron
    "́": 2,  # acute
    "̌": 3,  # caron
    "̀": 4,  # grave
}


@dataclass(frozen=True)
class Syllable:
    """One character's pronunciation as inventory indices."""

    initial: int
    final: int
    tone: int

    def __post_init__(self):
        table = unit_tables()
        if self.initial not in table.initial_by_index:
            raise UnknownSyllable(f"initial index out of range: {self.initial}")
        if self.final not in table.final_by_index:
            raise UnknownSyllable(f"final index out of range: {self.final}")
        if self.tone not in (1, 2, 3, 4):
            raise UnknownSyllable(f"tone out of range: {self.tone}")
        if not is_valid_pair(self.initial, self.final):
            raise InvalidCombination(
                f"unpronounceable syllable: "
                f"{table.initial_by_index[self.initial]}+{table.final_by_index[self.final]}"
            )


@dataclass(frozen=True)
class ChineseWord:
    syllables: tuple[Syllable, ...]

    def __post_init__(self):
        if not self.syllables:
            raise UnknownSyllable("a Chinese word needs at least one syllable")

    def __len__(self) -> int:
        return len(self.syllables)


class UnitTables:
    """Index <-> symbol maps for initials and finals, each unique per kind
    and one unbroken run of indices, plus the gene ranges and the validity
    set."""

    def __init__(self):
        rows, _ = read_table("pinyin_units.tsv", UNIT_KINDS, int, str,
                             key=[(0, 1), (0, 2)])
        self.initial_by_index, self.final_by_index = (
            {idx: sym for k, idx, sym in rows if k == kind}
            for kind in UNIT_KINDS)
        self.initial_index, self.final_index = (
            {s: i for i, s in by_index.items()}
            for by_index in (self.initial_by_index, self.final_by_index))
        # (lowest, highest) value of the initial, final and tone genes
        runs = sorted(self.initial_by_index), sorted(self.final_by_index)
        for kind, run in zip(UNIT_KINDS, runs):
            if not run or run != list(range(run[0], run[-1] + 1)):
                path = data_path("pinyin_units.tsv")
                raise ConfigError(f"{kind} indices of {path} are not one "
                                  f"unbroken run")
        self.gene_ranges = (*((run[0], run[-1]) for run in runs), (1, 4))
        pairs, _ = read_table("pinyin_validity.tsv", str, str, key=(0, 1))
        for kind, column, index in (("initial", 0, self.initial_index),
                                    ("final", 1, self.final_index)):
            check_symbols(kind, (pair[column] for pair in pairs),
                          "pinyin_validity.tsv", index, "pinyin_units.tsv")
        self.valid_pairs = frozenset(
            (self.initial_index[ini], self.final_index[fin])
            for ini, fin in pairs)
        # valid finals per initial, ascending index (repair tie-break order)
        self.finals_for_initial: dict[int, tuple[int, ...]] = {
            i: tuple(sorted(f for ini, f in self.valid_pairs if ini == i))
            for i in self.initial_by_index}
        for i, finals in self.finals_for_initial.items():
            if not finals:   # repair would have no final to choose
                raise ConfigError(
                    f"initial {self.initial_by_index[i]!r} of "
                    f"{data_path('pinyin_units.tsv')} is in no pair of "
                    f"{data_path('pinyin_validity.tsv')}")


@table_memo
def unit_tables() -> UnitTables:
    return UnitTables()


def is_valid_pair(initial: int, final: int) -> bool:
    return (initial, final) in unit_tables().valid_pairs


def _strip_tone(syllable: str) -> tuple[str, int | None]:
    """Remove the tone diacritic or trailing digit; return (base, tone)."""
    digit = None
    if syllable and syllable[-1] in "1234":
        digit = int(syllable[-1])
        syllable = syllable[:-1]
    tone = None
    base = []
    for ch in unicodedata.normalize("NFD", syllable):
        if ch in _TONE_MARKS:
            if tone is not None:
                raise UnknownSyllable(f"two tone marks in {syllable!r}")
            tone = _TONE_MARKS[ch]
        elif ch == "̈":  # diaeresis: ü -> v
            if not base or base[-1] != "u":
                raise UnknownSyllable(f"stray diaeresis in {syllable!r}")
            base[-1] = "v"
        else:
            base.append(ch)
    if digit is not None and tone is not None:
        raise UnknownSyllable(f"both digit and diacritic tone in {syllable!r}")
    return "".join(base), digit if digit is not None else tone


def _split_units(base: str) -> tuple[int, int]:
    """Decompose a toneless syllable into (initial index, final index)."""
    table = unit_tables()
    for ini, rest in ((base[:2], base[2:]), (base[:1], base[1:]),
                      (ZERO_INITIAL, base)):   # no final is blank
        if ini in table.initial_index and rest in table.final_index:
            return table.initial_index[ini], table.final_index[rest]
    raise UnknownSyllable(f"cannot decompose syllable {base!r}")


@table_memo
def parse_syllable(text: str) -> Syllable:
    base, tone = _strip_tone(text.strip().lower())
    if tone is None:
        raise UnknownSyllable(f"no tone mark on {text!r}")
    if not base:
        raise UnknownSyllable("empty syllable")
    initial, final = _split_units(base)
    if not is_valid_pair(initial, final):
        raise InvalidCombination(f"unpronounceable syllable: {text!r} (no "
                                 f"pair of {data_dir()}/pinyin_validity.tsv)")
    return Syllable(initial, final, tone)


def parse_pinyin(text: str) -> ChineseWord:
    """Parse whitespace-separated tone-marked pinyin into a word."""
    parts = text.split()
    if not parts:
        raise UnknownSyllable("empty pinyin text")
    return ChineseWord(tuple(parse_syllable(p) for p in parts))


# Tone mark goes on a/e if present, on the o of "ou", else on the last vowel.
_MARKS = {tone: mark for mark, tone in _TONE_MARKS.items()}


def _mark_tone(base: str, tone: int) -> str:
    pos = None
    for target in ("a", "e"):
        if target in base:
            pos = base.index(target)
            break
    if pos is None and "ou" in base:
        pos = base.index("o")
    if pos is None:
        for i in range(len(base) - 1, -1, -1):
            if base[i] in "aeiouü":
                pos = i
                break
    if pos is None:
        return base
    marked = base[:pos + 1] + _MARKS[tone] + base[pos + 1:]
    return unicodedata.normalize("NFC", marked)


@table_memo
def render_units(initial: int, final: int, tone: int) -> str:
    """Tone-marked spelling of the syllable (initial, final, tone); raises
    like ``Syllable`` on an out-of-range or unpronounceable triple."""
    Syllable(initial, final, tone)   # validates the triple
    table = unit_tables()
    ini = table.initial_by_index[initial]
    base = ("" if ini == ZERO_INITIAL else ini) + table.final_by_index[final]
    return _mark_tone(base.replace("v", "ü"), tone)


def render_syllable(s: Syllable) -> str:
    return render_units(s.initial, s.final, s.tone)
