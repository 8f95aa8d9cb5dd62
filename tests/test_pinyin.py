import itertools
import unicodedata

import pytest

from fakewake.errors import InvalidCombination, UnknownSyllable
from fakewake.pinyin import (ChineseWord, Syllable, is_valid_pair,
                             parse_pinyin, parse_syllable, render_syllable,
                             render_units, unit_tables)

T = unit_tables()


def render_word(word):
    """The word's syllables rendered one by one, joined by spaces."""
    return " ".join(render_syllable(s) for s in word.syllables)


def units(syllable):
    return (T.initial_by_index[syllable.initial],
            T.final_by_index[syllable.final], syllable.tone)


def test_parse_xiao():
    word = parse_pinyin("xiǎo")
    assert units(word.syllables[0]) == ("x", "iao", 3)


def test_parse_zero_initial():
    word = parse_pinyin("ài")
    assert units(word.syllables[0]) == ("-", "ai", 4)


def test_parse_invalid_combination():
    with pytest.raises(InvalidCombination):
        parse_pinyin("xāng")


def test_parse_tone_digits():
    assert units(parse_syllable("xiao3")) == ("x", "iao", 3)
    assert units(parse_syllable("ti1")) == ("t", "i", 1)


def test_parse_umlaut_forms():
    assert units(parse_syllable("lǜ")) == ("l", "v", 4)
    assert units(parse_syllable("nve4")) == ("n", "ve", 4)


def test_missing_tone_rejected():
    with pytest.raises(UnknownSyllable):
        parse_syllable("xiao")


def test_garbage_rejected():
    with pytest.raises(UnknownSyllable):
        parse_syllable("xyz1")


def test_validate_pairs():
    assert is_valid_pair(T.initial_index["x"], T.final_index["iao"])
    assert not is_valid_pair(T.initial_index["x"], T.final_index["ang"])
    assert is_valid_pair(0, T.final_index["ai"])


def test_validate_out_of_range():
    assert not is_valid_pair(99, 1)
    with pytest.raises(UnknownSyllable):
        Syllable(99, 1, 1)


def test_inventory_sizes():
    assert len(T.initial_by_index) == 24   # 23 initials plus the zero initial
    assert len(T.final_by_index) == 37
    assert set(T.final_by_index) == set(range(1, 38))


def test_every_valid_pair_parses():
    for ini, fin in sorted(T.valid_pairs):
        syl = Syllable(ini, fin, 1)
        word = ChineseWord((syl,))
        assert parse_pinyin(render_word(word)) == word


def test_known_wake_words_parse():
    for text in ("xiǎo dù xiǎo dù", "xiǎo ài tóng xué",
                 "tiān māo jīng líng", "jiǔ sì èr líng"):
        word = parse_pinyin(text)
        assert len(word) == 4
        assert render_word(word) == text


def test_invalid_syllable_object():
    with pytest.raises(InvalidCombination):
        Syllable(T.initial_index["x"], T.final_index["ang"], 1)


def test_empty_input():
    with pytest.raises(UnknownSyllable):
        parse_pinyin("   ")


ALL_TRIPLES = list(itertools.product(range(24), range(1, 38), range(1, 5)))


def test_render_memo_matches_uncached_path_on_every_triple():
    """Every valid triple renders the same with and without the memo, and
    its rendering parses back to it, so a Mandarin genome's text determines
    its syllables."""
    uncached = render_units.__wrapped__
    for triple in ALL_TRIPLES:
        if triple[:2] in T.valid_pairs:
            text = uncached(*triple)
            for _ in range(2):   # a miss, then a hit
                assert render_units(*triple) == text
            assert render_syllable(Syllable(*triple)) == text
            assert parse_syllable(text) == Syllable(*triple)
            assert parse_pinyin(text).syllables == (Syllable(*triple),)
        else:
            for _ in range(3):
                with pytest.raises(InvalidCombination):
                    render_units(*triple)


@pytest.mark.parametrize("triple", [(24, 1, 1), (0, 0, 1), (0, 38, 1),
                                    (1, 1, 0), (1, 1, 5)])
def test_render_out_of_range_raises_every_call(triple):
    for _ in range(3):
        with pytest.raises(UnknownSyllable):
            render_units(*triple)


def _spellings(triple):
    """Equivalent written forms of one valid syllable."""
    ini, fin, tone = triple
    canonical = render_units(*triple)
    base = ("" if T.initial_by_index[ini] == "-"
            else T.initial_by_index[ini]) + T.final_by_index[fin]
    return canonical, [
        base + str(tone),
        base.replace("v", "ü") + str(tone),
        (base + str(tone)).upper(),
        canonical.upper(),
        unicodedata.normalize("NFD", canonical),
        unicodedata.normalize("NFD", canonical.upper()),
        f"  {canonical}\t",
        f" {base}{tone} ",
    ]


def test_equivalent_spellings_parse_to_the_canonical_syllable():
    for triple in ALL_TRIPLES:
        if triple[:2] not in T.valid_pairs:
            continue
        canonical, forms = _spellings(triple)
        expected = parse_syllable(canonical)
        assert expected == Syllable(*triple)
        for form in forms:
            assert parse_syllable.__wrapped__(form) == expected, form
            assert parse_syllable(form) == expected, form
            assert parse_syllable(form) is parse_syllable(form)


@pytest.mark.parametrize("text, error", [
    ("xāng", InvalidCombination),
    ("xang1", InvalidCombination),
    ("xiao", UnknownSyllable),
    ("xyz1", UnknownSyllable),
    ("3", UnknownSyllable),
    ("xiǎo3", UnknownSyllable),
])
def test_bad_spelling_raises_every_call(text, error):
    for _ in range(3):
        with pytest.raises(error):
            parse_syllable(text)
        with pytest.raises(error):
            parse_pinyin(f"xiǎo {text} dù")
