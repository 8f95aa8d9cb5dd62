import pytest
from hypothesis import given, settings, strategies as st

from fakewake.dataio import data_path
from fakewake.distance import english_dist
from fakewake.embedding import parse_text, read_words
from fakewake.errors import ParseFailure, UnknownPhoneme
from fakewake.phonemes import (ALPHABET, BOUNDARY, G2P, FeatureTable,
                               LetterWord, g2p, g2p_converter, inventory)
from tests.conftest import raw_rows, raw_weight_rows
from tests.reference import (bits, pattern_word, table_distance,
                             table_symbols, weighted_hamming)

INV = inventory()


SYMBOLS = table_symbols(INV)


def test_inventory_size():
    assert len(SYMBOLS) == 39


def test_distance_identity():
    for sym in SYMBOLS:
        assert table_distance(INV, sym, sym) == 0.0


@given(st.sampled_from(SYMBOLS), st.sampled_from(SYMBOLS))
def test_distance_symmetric_bounded(p, q):
    d = table_distance(INV, p, q)
    assert d == table_distance(INV, q, p)
    assert 0.0 <= d <= 1.0


def test_distance_maximal_for_opposite_vectors():
    # vectors at +1 and -1 on every feature are at distance exactly 1
    weights = [int(w) for w in raw_weight_rows("phoneme_features.tsv")[0]]
    gaps = [1.0] * len(weights)
    assert sum(w * g for w, g in zip(weights, gaps)) / sum(weights) == 1.0
    opposite = FeatureTable([("p", [1] * len(weights)),
                             ("q", [-1] * len(weights))], weights)
    assert table_distance(opposite, "p", "q") == 1.0


def test_rows_equal_the_numpy_matrix():
    rows = sorted(raw_rows("phoneme_features.tsv"), key=lambda row: row[0])
    weights = raw_weight_rows("phoneme_features.tsv")[0]
    assert bits(INV.rows) == bits(weighted_hamming([row[1:] for row in rows],
                                             weights))


@settings(max_examples=300)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n),
             min_size=1, max_size=12),
    st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))))
def test_rows_equal_the_numpy_matrix_on_random_tables(table):
    features, weights = table
    symbols = [f"s{i}" for i in range(len(features))]
    rows = FeatureTable(list(zip(symbols, features)), weights).rows
    assert bits(rows) == bits(weighted_hamming(features, weights))


def test_voicing_smaller_than_class_change():
    assert 0 < table_distance(INV, "S", "Z") < table_distance(INV, "S", "AA")


def test_unknown_phoneme():
    with pytest.raises(UnknownPhoneme, match="QQ"):
        english_dist(["S"], ["QQ"])


def test_g2p_empty():
    assert g2p("") == []


def test_g2p_lexicon_words():
    assert g2p("alexa") == ["AH", "L", "EH", "K", "S", "AH"]
    assert g2p("hey siri") == ["HH", "EY", BOUNDARY, "S", "IH", "R", "IY"]


def test_g2p_fallback_by_hand():
    # i->IH, l->L, e->EH, k->K, s->S, ur->ER per the shipped rule file
    assert g2p("ileksur") == ["IH", "L", "EH", "K", "S", "ER"]
    # x expands to two phonemes
    assert g2p("xo") == ["K", "S", "AA"]


def test_g2p_longest_match_wins():
    # "sh" digraph beats s+h
    assert g2p("sha") == ["SH", "AE"]


def test_g2p_deterministic():
    words = ["blorp", "qixta", "greeting ahoy"]
    for w in words:
        assert g2p(w) == g2p(w)


def test_letterword_validation():
    with pytest.raises(ParseFailure):
        LetterWord("")
    with pytest.raises(ParseFailure):
        LetterWord("héllo")
    assert len(LetterWord("hey siri")) == 8


def test_all_rules_emit_known_phonemes():
    conv = g2p_converter()
    for grapheme, (_, phones) in conv.rules.items():
        for p in phones:
            assert p in INV.index, (grapheme, p)
    for token, phones in conv.lexicon.items():
        for p in phones:
            assert p in INV.index, (token, p)


def test_single_letters_all_covered():
    conv = g2p_converter()
    for letter in "abcdefghijklmnopqrstuvwxyz":
        assert letter in conv.rules


def test_cost_rows_are_the_distance_matrix():
    for p in SYMBOLS:
        row = INV.rows[INV.index[p]]
        assert row[INV.index[p]] == 0.0
        for q in SYMBOLS:
            assert type(row[INV.index[q]]) is float
            assert row[INV.index[q]] == table_distance(INV, p, q)


# ------------------------------------------------ per-word references
# The width loop is g2p before the compiled pattern: at each position, try
# the rule graphemes by width from the longest rule down; a character no
# rule matches contributes nothing. The package's readers must reproduce
# it and ``pattern_word`` exactly.

def width_loop_token(conv, token):
    if token in conv.lexicon:
        return list(conv.lexicon[token])
    max_grapheme = max(len(g) for g in conv.rules)
    phones = []
    i = 0
    while i < len(token):
        match = None
        for width in range(min(max_grapheme, len(token) - i), 0, -1):
            grapheme = token[i:i + width]
            if grapheme in conv.rules:
                match = grapheme
                break
        if match is None:
            i += 1
            continue
        phones.extend(conv.rules[match][1])
        i += len(match)
    return phones


def width_loop_word(conv, text):
    return pattern_word(conv, text, width_loop_token)


def read_phones(conv, text):
    """``G2P.read`` of ``text`` through the converter's phoneme table."""
    phones = []
    conv.read(text, conv.phone_runs, phones.extend)
    return phones


def read_pronunciations(texts):
    """Each text's pronunciation as ``read_words`` and ``parse_text`` give
    it, or None where it does not parse."""
    out = []
    for text, pieces in read_words(texts, "en"):
        if isinstance(pieces, ParseFailure):
            out.append(None)
            continue
        spoken = [p for piece in pieces for p in piece.phones]
        assert parse_text(text, "en")[1] == spoken
        out.append(spoken)
    return out


@pytest.fixture(scope="module")
def rules_only():
    """A converter that reads every token by the rules."""
    conv = G2P()
    conv.lexicon = {}
    conv.phone_runs = conv.runs(tuple)
    return conv


def test_token_equals_width_loop_on_lexicon_and_collective(rules_only):
    conv = g2p_converter()
    tokens = set(conv.lexicon)
    with open(data_path("collective.txt"), encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    for line in lines:
        tokens.update(line.split())
    texts = sorted(tokens) + lines
    expected = [width_loop_word(conv, text) for text in texts]
    assert [pattern_word(conv, text) for text in texts] == expected
    assert [g2p(text) for text in texts] == expected
    assert read_pronunciations(texts) == [
        phones if text else None for text, phones in zip(texts, expected)]
    for text in texts:
        assert read_phones(rules_only, text) == \
            width_loop_word(rules_only, text), text
    for line in lines[:500]:
        if line:
            assert g2p(line) == g2p(LetterWord(line))


@settings(max_examples=300)
@given(st.text(alphabet=ALPHABET, max_size=24))
def test_token_equals_width_loop_on_letter_strings(rules_only, text):
    assert read_phones(rules_only, text) == width_loop_word(rules_only, text)
    expected = width_loop_word(g2p_converter(), text)
    assert g2p(text) == expected
    assert read_pronunciations([text]) == [expected if text else None]


def test_token_skips_characters_no_rule_starts():
    """``g2p`` reads any string; a character no rule starts with reads as
    nothing."""
    conv = g2p_converter()
    for text in ("a-b", "ab3c", "x\ny", "é", ""):
        assert g2p(text) == width_loop_word(conv, text)
