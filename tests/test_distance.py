import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fakewake.distance import (DistanceConfig, chinese_dist, english_dist,
                               english_many, levenshtein_many, objective)
from fakewake.embedding import character_distance
from fakewake.errors import (BothEmpty, LengthMismatch, ParseFailure,
                             UnknownPhoneme)
from fakewake.genome import (ChineseGenome, decode_text, random_genome,
                             repair_chinese)
from fakewake.phonemes import BOUNDARY, g2p, inventory
from fakewake.pinyin import parse_pinyin, unit_tables
from tests.reference import (brute_force_english, decode_chinese,
                             loop_english, loop_levenshtein, table_distance,
                             table_symbols)

SYMS = table_symbols(inventory())


seq = st.lists(st.sampled_from(SYMS + [BOUNDARY]), min_size=0, max_size=6)


@given(seq, seq)
@settings(max_examples=60, deadline=None)
def test_english_matches_brute_force(w1, w2):
    if not w1 and not w2:
        return
    assert english_dist(w1, w2) == pytest.approx(brute_force_english(w1, w2),
                                                 abs=1e-12)


@given(seq, seq)
@settings(max_examples=60, deadline=None)
def test_english_symmetric_bounded(w1, w2):
    if not w1 and not w2:
        return
    d = english_dist(w1, w2)
    assert d == pytest.approx(english_dist(w2, w1), abs=1e-12)
    assert 0.0 <= d <= 1.0


@given(seq, seq, st.sampled_from(SYMS))
@settings(max_examples=60, deadline=None)
def test_english_append_monotone(w1, w2, p):
    """Appending the same phoneme to both never increases the numerator."""
    if not w1 and not w2:
        return
    before = english_dist(w1, w2) * (len(w1) + len(w2))
    after = english_dist(w1 + [p], w2 + [p]) * (len(w1) + len(w2) + 2)
    assert after <= before + 1e-12


def outcome(fn):
    """``fn()``'s float, or each of its floats, as hex, so that -0.0 and 0.0
    differ, or its error."""
    try:
        value = fn()
    except (BothEmpty, UnknownPhoneme) as exc:
        return (type(exc).__name__, str(exc))
    return value.hex() if isinstance(value, float) else [v.hex()
                                                         for v in value]


seq_with_unknown = st.lists(st.sampled_from(SYMS + [BOUNDARY, "QQ", "XX"]),
                            max_size=7)


@given(seq_with_unknown, seq_with_unknown, st.sampled_from([1.0, 0.5, 0.3]))
@settings(max_examples=300, deadline=None)
def test_english_equals_per_cell_loop(w1, w2, space_cost):
    assume(w1 or w2)
    cfg = DistanceConfig(space_cost=space_cost)
    assert outcome(lambda: english_dist(w1, w2, cfg)) == \
        outcome(lambda: loop_english(w1, w2, cfg))


def test_english_unknown_phoneme_in_either_sequence():
    known = g2p("alexa")
    for w1, w2 in ((known + ["QQ"], known), (known, ["QQ"] + known),
                   (["QQ", BOUNDARY], ["K"]), (["K"], [BOUNDARY, "QQ"]),
                   # the first pair that needs a distance names w1's
                   # symbol before w2's
                   (["QQ"], ["XX"]), (["K", "XX"], ["QQ"])):
        with pytest.raises(UnknownPhoneme) as exc:
            english_dist(w1, w2)
        assert str(exc.value) == "QQ"
    # an unknown symbol is only looked up against a different one
    assert english_dist(["QQ"], ["QQ"]) == 0.0
    assert english_dist(["QQ"], [BOUNDARY], DistanceConfig(space_cost=0.3)) \
        == 0.3


def test_english_identity():
    seq = g2p("alexa")
    assert english_dist(seq, seq) == 0.0


def test_english_single_deletion():
    assert english_dist(["K"], []) == 1.0


def test_english_substitution_arithmetic():
    d = table_distance(inventory(), "S", "Z")
    assert english_dist(["S"], ["Z"]) == pytest.approx(min(2 * d, 2.0) / 2)


def test_english_space_cost():
    cfg = DistanceConfig(space_cost=1.0)
    assert english_dist([BOUNDARY], ["K"], cfg) == pytest.approx(1.0)


def test_english_both_empty():
    with pytest.raises(BothEmpty):
        english_dist([], [])


def test_chinese_identity():
    w = parse_pinyin("xiǎo dù xiǎo dù")
    assert chinese_dist(w, w) == 0.0


def test_chinese_single_character_formula():
    w1 = parse_pinyin("xiǎo dù xiǎo dù")
    w2 = parse_pinyin("xiǎo dū xiǎo dù")
    d = character_distance(w1.syllables[1], w2.syllables[1])
    assert chinese_dist(w1, w2) == pytest.approx(math.tanh(d / 100.0) / 4)


def test_chinese_orderings_match_embedding():
    base = parse_pinyin("xiǎo dù xiǎo dù")
    far = parse_pinyin("xiǎo lǒng xiǎo lǒng")
    near = parse_pinyin("xiǎo dū xiǎo dū")
    assert chinese_dist(base, far) > chinese_dist(base, near) > 0


def test_chinese_length_mismatch():
    with pytest.raises(LengthMismatch):
        chinese_dist(parse_pinyin("xiǎo dù"), parse_pinyin("xiǎo"))


def test_chinese_symmetric_bounded_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g1 = random_genome(ChineseGenome, 12, rng)
        g2 = random_genome(ChineseGenome, 12, rng)
        w1, w2 = decode_chinese(g1), decode_chinese(g2)
        d = chinese_dist(w1, w2)
        assert d == pytest.approx(chinese_dist(w2, w1), abs=1e-12)
        assert 0.0 <= d < 1.0


def chinese_genes(characters):
    """Genes of ``characters`` characters, each gene drawn from its range."""
    triple = st.tuples(*(st.integers(lo, hi)
                         for lo, hi in unit_tables().gene_ranges))
    return st.lists(triple, min_size=characters, max_size=characters).map(
        lambda triples: [gene for t in triples for gene in t])


@given(st.data(), st.integers(1, 6),
       st.floats(1.0, 200.0), st.floats(0.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_chinese_dist_of_the_decoded_text_equals_the_genome_word(
        data, characters, normalizer, tone_penalty):
    """The search may score a Mandarin candidate from its text: parsing
    the text of a repaired genome gives the genome's own syllables, so the
    distance to any wake word is the same float."""
    genes = chinese_genes(characters)
    g = repair_chinese(ChineseGenome(data.draw(genes)))
    wake = repair_chinese(ChineseGenome(data.draw(genes)))
    cfg = DistanceConfig(normalizer=normalizer, tone_penalty=tone_penalty)
    parsed = parse_pinyin(decode_text(g))
    assert parsed == decode_chinese(g)
    assert chinese_dist(parsed, decode_chinese(wake), cfg) == \
        chinese_dist(decode_chinese(g), decode_chinese(wake), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        DistanceConfig(normalizer=0.0)
    with pytest.raises(ValueError):
        DistanceConfig(space_cost=0.0)
    with pytest.raises(ValueError):
        DistanceConfig(space_cost=1.5)


lev_seq = st.lists(st.sampled_from(SYMS[:5] + [BOUNDARY, "xiǎo", "dù"]),
                   max_size=9) | st.text(alphabet="ab ", max_size=9)


@given(lev_seq, lev_seq)
@settings(max_examples=300, deadline=None)
@example([], [])
@example([], [BOUNDARY])
@example([BOUNDARY, BOUNDARY], [])
@example("", "")
def test_levenshtein_equals_the_integer_recurrence(s1, s2):
    """One pair scores as the loop, whose cells are whole numbers."""
    assert outcome(lambda: levenshtein_many([s1], s2)) == \
        outcome(lambda: [loop_levenshtein(s1, s2)])


@given(st.lists(lev_seq, max_size=8), lev_seq)
@settings(max_examples=300, deadline=None)
@example([], [])
@example([[]], [])
@example([[], [BOUNDARY]], [])
@example([[BOUNDARY], []], [BOUNDARY])
@example([[BOUNDARY, "dù"], ["dù", BOUNDARY, BOUNDARY]], [BOUNDARY, "dù"])
@example(["ab ", "", " ba"], "a b")
def test_levenshtein_many_equals_the_scalar_baseline(seqs, target):
    """Bit for bit, as a float64 array, and the same ``BothEmpty`` when some
    sequence and the target are both empty."""
    assert outcome(lambda: levenshtein_many(seqs, target)) == \
        outcome(lambda: [loop_levenshtein(s, target) for s in seqs])


def test_levenshtein_baseline():
    assert levenshtein_many(["abc", "abd"], "abc").tolist() == \
        [0.0, pytest.approx(2 / 6)]
    assert levenshtein_many([], "").shape == (0,)
    with pytest.raises(BothEmpty):
        levenshtein_many(["a", ""], "")


english_words = st.text("abcdefghijklmnopqrstuvwxyz ", min_size=1,
                        max_size=12).filter(str.strip)


@given(english_words, english_words, st.sampled_from([1.0, 0.5]))
@settings(max_examples=100, deadline=None)
@example("alexa", "ileksur", 1.0)
@example("hey siri", "hay  sorry ", 0.5)
def test_english_objective_is_english_dist_of_g2p(text, target, space_cost):
    cfg = DistanceConfig(space_cost=space_cost)
    assert objective(target, "en", cfg)([text]) == \
        [english_dist(g2p(text), g2p(target), cfg)]


# pronunciations that are empty, boundary-only, end in a boundary or hold
# a symbol outside the inventory
pronunciation = st.lists(st.sampled_from(SYMS[:12] + [BOUNDARY, "QQ"]),
                         max_size=7) | st.sampled_from(
    [[], [BOUNDARY], [BOUNDARY, BOUNDARY], ["K", BOUNDARY], ["QQ"]])


def with_repeats(items, max_size=12):
    """Lists of up to ``max_size`` of ``items``, often repeating one."""
    return st.lists(items, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool) | items,
                              max_size=max_size))


@given(with_repeats(pronunciation), pronunciation,
       st.sampled_from([1.0, 0.5, 0.3]))
@settings(max_examples=300, deadline=None)
@example([], g2p("alexa"), 1.0)
@example([["K"], []], [], 1.0)
@example([[], ["K"]], [], 0.3)
@example([["K", "AH"], ["K", "QQ", "XX"], ["XX"]], g2p("alexa"), 1.0)
@example([["K"], [BOUNDARY], ["QQ"]], ["QQ", "K"], 0.5)
@example([[BOUNDARY, BOUNDARY], ["K", BOUNDARY], [], ["K"], ["K"]],
         ["K", BOUNDARY, "AH"], 0.3)
def test_english_many_equals_the_per_pair_reference(seqs, target,
                                                    space_cost):
    """0-12 pronunciations score bit for bit as ``english_dist`` of each
    with the target, through the one table, and raise the per-pair loop's
    first error: the same ``UnknownPhoneme``, naming the same symbol, or
    ``BothEmpty``."""
    cfg = DistanceConfig(space_cost=space_cost)
    assert outcome(lambda: english_many(seqs, target, cfg)) == \
        outcome(lambda: [english_dist(s, target, cfg) for s in seqs])


@given(with_repeats(english_words), english_words,
       st.sampled_from([1.0, 0.5, 0.3]))
@settings(max_examples=100, deadline=None)
@example(["alexa", "ileksur", "alexa"], "alexa", 1.0)
def test_english_objective_of_a_list_is_english_dist_of_each(
        texts, target, space_cost):
    """The search's call: a generation's texts, repeats among them."""
    cfg = DistanceConfig(space_cost=space_cost)
    assert outcome(lambda: objective(target, "en", cfg)(texts)) == \
        outcome(lambda: [english_dist(g2p(t), g2p(target), cfg)
                               for t in texts])


@given(st.data(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_chinese_objective_is_chinese_dist_of_parses(data, characters):
    genes = chinese_genes(characters)
    text, target = (decode_text(repair_chinese(ChineseGenome(data.draw(genes))))
                    for _ in range(2))
    cfg = DistanceConfig(normalizer=data.draw(st.sampled_from([100.0, 7.0])))
    assert objective(target, "zh", cfg)([text]) == \
        [chinese_dist(parse_pinyin(text), parse_pinyin(target), cfg)]


@pytest.mark.parametrize("language, target, text", [
    ("en", "alexa", "al3xa"),
    ("en", "alexa", ""),
    ("en", "alexa", "Alexa"),
    ("en", "al3xa", "alexa"),
    ("zh", "xiǎo dù", "xāng dù"),
    ("zh", "xiǎo dù", " "),
    ("zh", "xiǎo", "xiao"),
])
def test_objective_raises_parse_failure_on_invalid_text(language, target,
                                                       text):
    """Invalid text raises, whether it is the scored text or the target,
    which is parsed when the objective is built."""
    with pytest.raises(ParseFailure):
        objective(target, language, DistanceConfig())([text])
