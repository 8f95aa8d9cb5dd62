"""Mandarin syllable machinery: unit inventories, parsing, validation.

A syllable is an (initial, final, tone) triple over the shipped inventories:
24 initial values (index 0 is the zero initial ``-``), 37 finals in
lexicographic order, and tones 1-4. The written forms treat ``y``/``w`` as
initials and use ``v`` for ``ü``.

Both directions between text and triples are memoised, filled lazily on
first use, because a run parses and renders the same few hundred syllables
tens of thousands of times. ``render_units`` is keyed on the triple, so it
holds at most 24 x 37 x 4 entries. ``parse_syllable`` is keyed on the text as
given, so it holds one entry per distinct spelling in the input (digit or
diacritic tone, case, NFC or NFD); each entry maps to the one shared frozen
``Syllable``. Neither caches a failure: an invalid triple or a bad spelling
raises on every call. ``embedding`` memoises each parsed spelling's piece
by the same rule.
"""
from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import lru_cache

from .dataio import check_rows, check_symbols, read_tsv
from .errors import InvalidCombination, UnknownSyllable

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
    """Index <-> symbol maps for initials and finals plus the validity set."""

    def __init__(self):
        initials: dict[int, str] = {}
        finals: dict[int, str] = {}
        rows = read_tsv("pinyin_units.tsv")
        check_rows("pinyin_units.tsv", rows, width=3, kinds=UNIT_KINDS)
        for kind, idx, sym in rows:
            (initials if kind == "initial" else finals)[int(idx)] = sym
        self.initial_by_index = initials
        self.final_by_index = finals
        self.initial_index = {s: i for i, s in initials.items()}
        self.final_index = {s: i for i, s in finals.items()}
        pairs = read_tsv("pinyin_validity.tsv")
        for kind, column, index in (("initial", 0, self.initial_index),
                                    ("final", 1, self.final_index)):
            check_symbols(kind, (pair[column] for pair in pairs),
                          "pinyin_validity.tsv", index, "pinyin_units.tsv")
        self.valid_pairs = frozenset(
            (self.initial_index[ini], self.final_index[fin])
            for ini, fin in pairs
        )
        # valid finals per initial, ascending index (repair tie-break order)
        self.finals_for_initial: dict[int, tuple[int, ...]] = {}
        for i in initials:
            self.finals_for_initial[i] = tuple(
                sorted(f for (ini, f) in self.valid_pairs if ini == i)
            )


@lru_cache(maxsize=None)
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
    candidates = []
    if len(base) > 2 and base[:2] in table.initial_index:
        candidates.append((base[:2], base[2:]))
    if len(base) > 1 and base[:1] in table.initial_index:
        candidates.append((base[:1], base[1:]))
    candidates.append((ZERO_INITIAL, base))
    for ini, rest in candidates:
        if rest in table.final_index:
            return table.initial_index[ini], table.final_index[rest]
    raise UnknownSyllable(f"cannot decompose syllable {base!r}")


@lru_cache(maxsize=None)
def parse_syllable(text: str) -> Syllable:
    base, tone = _strip_tone(text.strip().lower())
    if tone is None:
        raise UnknownSyllable(f"no tone mark on {text!r}")
    if not base:
        raise UnknownSyllable("empty syllable")
    initial, final = _split_units(base)
    if not is_valid_pair(initial, final):
        raise InvalidCombination(f"unpronounceable syllable: {text!r}")
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


@lru_cache(maxsize=None)
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
