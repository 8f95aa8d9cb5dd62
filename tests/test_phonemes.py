import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fakewake.dataio import data_path, read_tsv, read_weight_rows
from fakewake.errors import ParseFailure, UnknownPhoneme
from fakewake.phonemes import (ALPHABET, BOUNDARY, G2P, FeatureTable,
                               LetterWord, g2p, g2p_converter, inventory)

INV = inventory()
SYMBOLS = INV.symbols()


def test_inventory_size():
    assert len(SYMBOLS) == 39


def test_distance_identity():
    for sym in SYMBOLS:
        assert INV.distance(sym, sym) == 0.0


@given(st.sampled_from(SYMBOLS), st.sampled_from(SYMBOLS))
def test_distance_symmetric_bounded(p, q):
    d = INV.distance(p, q)
    assert d == INV.distance(q, p)
    assert 0.0 <= d <= 1.0


def test_distance_maximal_for_opposite_vectors():
    # vectors at +1 and -1 on every feature are at distance exactly 1
    weights = INV.weights
    gaps = [1.0] * len(weights)
    assert sum(w * g for w, g in zip(weights, gaps)) / sum(weights) == 1.0
    opposite = FeatureTable(["p", "q"], [[1] * len(weights),
                                         [-1] * len(weights)], weights)
    assert opposite.distance("p", "q") == 1.0


def numpy_rows(features, weights) -> list[list[float]]:
    """The distance matrix as numpy computed it when the table held one."""
    m = np.asarray([[int(v) for v in row] for row in features], dtype=float)
    w = np.array([float(x) for x in weights])
    return (np.abs(m[:, None] - m[None]) / 2.0 @ w / w.sum()).tolist()


def bits(rows) -> list[list[str]]:
    """Each value's exact bits, so that 0.0 and -0.0 differ."""
    return [[value.hex() for value in row] for row in rows]


def test_rows_equal_the_numpy_matrix():
    rows = sorted(read_tsv("phoneme_features.tsv"), key=lambda row: row[0])
    weights = read_weight_rows("phoneme_features.tsv")[0]
    assert bits(INV.rows) == bits(numpy_rows([row[1:] for row in rows],
                                             weights))


@settings(max_examples=300)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n),
             min_size=1, max_size=12),
    st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))))
def test_rows_equal_the_numpy_matrix_on_random_tables(table):
    features, weights = table
    symbols = [f"s{i}" for i in range(len(features))]
    rows = FeatureTable(symbols, features, weights).rows
    assert bits(rows) == bits(numpy_rows(features, weights))


def test_voicing_smaller_than_class_change():
    assert 0 < INV.distance("S", "Z") < INV.distance("S", "AA")


def test_unknown_phoneme():
    with pytest.raises(UnknownPhoneme):
        INV.distance("S", "QQ")


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
            assert row[INV.index[q]] == INV.distance(p, q)


# ------------------------------------------------ width-loop reference
# G2P.token before the compiled pattern: at each position, try the rule
# graphemes by width from the longest rule down; a character no rule
# matches contributes nothing. The pattern must reproduce it exactly.

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


@pytest.fixture(scope="module")
def rules_only():
    """A converter that reads every token by the rules."""
    conv = G2P()
    conv.lexicon = {}
    return conv


def test_token_equals_width_loop_on_lexicon_and_collective(rules_only):
    conv = g2p_converter()
    tokens = set(conv.lexicon)
    with open(data_path("collective.txt"), encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    for line in lines:
        tokens.update(line.split())
    for token in sorted(tokens) + lines:
        assert conv.token(token) == width_loop_token(conv, token), token
        assert rules_only.token(token) == \
            width_loop_token(rules_only, token), token
    for line in lines[:500]:
        if line:
            assert g2p(line) == g2p(LetterWord(line))


@settings(max_examples=300)
@given(st.text(alphabet=ALPHABET, max_size=24))
def test_token_equals_width_loop_on_letter_strings(rules_only, text):
    assert rules_only.token(text) == width_loop_token(rules_only, text)
    for token in text.split():
        assert g2p_converter().token(token) == \
            width_loop_token(g2p_converter(), token)


def test_token_skips_characters_no_rule_starts():
    conv = g2p_converter()
    for text in ("a-b", "ab3c", "x\ny", "é", ""):
        assert conv.token(text) == width_loop_token(conv, text)
