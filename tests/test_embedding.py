import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fakewake.dataio import data_dir, data_path
from fakewake import embedding
from fakewake.embedding import (UNIT_SCALE, character_distance,
                                embedding_table, encode_features,
                                encode_units, mds_embed, parse_text,
                                read_words, word_units)
from fakewake.errors import ParseFailure, TooManyUnits
from fakewake.phonemes import (ALPHABET, BOUNDARY, LetterWord,
                               g2p_converter, inventory)
from fakewake.explain import parse_words
from fakewake.pinyin import (Syllable, parse_pinyin, render_syllable,
                             render_units, unit_tables)
from tests.conftest import raw_rows, raw_weight_rows, tables_from
from tests.test_phonemes import (bits, numpy_rows, pattern_word,
                                 table_distance, table_symbols)


def test_mds_identical_points():
    coords = mds_embed(np.zeros((4, 4)))
    assert coords.shape == (4, 2)
    assert np.allclose(coords, coords[0])


def test_mds_equilateral_triangle():
    dist = np.ones((3, 3)) - np.eye(3)
    coords = mds_embed(dist)
    gaps = [np.linalg.norm(coords[i] - coords[j])
            for i in range(3) for j in range(i + 1, 3)]
    assert np.allclose(gaps, gaps[0])
    assert np.allclose(gaps[0], 1.0)


def test_mds_exact_for_planar_config():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(6, 2))
    dist = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    coords = mds_embed(dist)
    rebuilt = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
    assert np.allclose(rebuilt, dist, atol=1e-9)


def test_mds_sign_convention_deterministic():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(8, 3))
    dist = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    a = mds_embed(dist)
    b = mds_embed(dist.copy())
    assert np.array_equal(a, b)
    for dim in range(2):
        col = a[:, dim]
        nonzero = col[np.abs(col) > 1e-12]
        if nonzero.size:
            assert nonzero[0] > 0


def test_mds_degenerate_pads_zero():
    # two points: one positive eigenvalue, second dimension collapses to zero
    dist = np.array([[0.0, 2.0], [2.0, 0.0]])
    coords = mds_embed(dist)
    assert np.allclose(coords[:, 1], 0.0)
    assert pytest.approx(abs(coords[0, 0] - coords[1, 0])) == 2.0


def test_mds_rejects_asymmetric():
    with pytest.raises(ValueError):
        mds_embed(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_phoneme_embedding_correlation():
    emb = embedding_table()
    inv = inventory()
    syms = table_symbols(inv)
    dist = np.array([[table_distance(inv, a, b) for b in syms]
                     for a in syms])
    coords = np.array([emb.unit_vec("phoneme", s) for s in syms])
    rebuilt = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
    upper = np.triu_indices(len(syms), k=1)
    r = np.corrcoef(dist[upper], rebuilt[upper])[0, 1]
    assert r >= 0.7


def test_every_unit_embedded():
    emb = embedding_table()
    assert len(emb.tables["initial"].index) == 24
    assert len(emb.tables["final"].index) == 37
    assert len(emb.tables["phoneme"].index) == 39
    for kind, table in emb.tables.items():
        for sym in table.index:
            assert emb.unit_vec(kind, sym).shape == (2,)


def test_encode_features_chinese_shape():
    word = parse_pinyin("xiǎo dù xiǎo dù")
    feats = encode_features(word, 8)
    assert feats.shape == (16,)
    assert np.any(feats != 0)


def test_encode_features_zero_word():
    feats = encode_features(LetterWord(" "), 3)
    assert feats.shape == (6,)
    assert np.all(feats == 0)


def test_encode_features_padding_trailing():
    feats = encode_features(LetterWord("alexa"), 8)
    assert feats.shape == (16,)
    assert np.all(feats[12:] == 0)      # 6 phonemes fill 12 slots
    assert np.all(feats[:12] != 0)


def test_encode_features_too_many_units():
    with pytest.raises(TooManyUnits):
        encode_features(LetterWord("alexa"), 2)


# ------------------------------------------------ per-word reference
# encode_features' body before the batch encoder: one zero vector per word,
# filled a unit at a time. The batch encoder must reproduce it byte for byte.

def per_word_encoding(word, slots):
    units = word_units(word)
    if len(units) > slots:
        raise TooManyUnits(f"{len(units)} units exceed {slots} slots")
    emb = embedding_table()
    out = np.zeros(2 * slots)
    for i, (kind, sym) in enumerate(units):
        out[2 * i:2 * i + 2] = emb.unit_vec(kind, sym)
    return out


def english_words(count=400):
    with open(data_path("collective.txt"), encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    return [LetterWord(w) for w in lines[:count]
            + ["alexa", "hey siri", " ", "  a  b "]]


def chinese_words(count=200, syllables=4):
    pairs = sorted(unit_tables().valid_pairs)
    rng = np.random.default_rng(4)
    words = []
    for _ in range(count):
        n = int(rng.integers(1, syllables + 1))
        picks = rng.integers(len(pairs), size=n)
        words.append(parse_pinyin(" ".join(
            render_syllable(Syllable(*pairs[k], int(rng.integers(1, 5))))
            for k in picks)))
    return words


@pytest.mark.parametrize("language, slots", [("en", 20), ("en", 14),
                                             ("zh", 8), ("zh", 11)])
def test_batch_encoder_equals_per_word_encoding(language, slots):
    words = english_words() if language == "en" else chinese_words()
    words = [w for w in words if len(word_units(w)) <= slots]
    matrix = encode_units([word_units(w) for w in words], slots)
    assert matrix.shape == (len(words), 2 * slots)
    assert matrix.dtype == np.float64
    for word, row in zip(words, matrix):
        expected = per_word_encoding(word, slots).tobytes()
        assert row.tobytes() == expected
        assert encode_features(word, slots).tobytes() == expected


def test_batch_encoder_pads_and_encodes_the_all_space_word():
    words = [LetterWord(" "), LetterWord("kit"), LetterWord("   ")]
    matrix = encode_units([word_units(w) for w in words], 4)
    assert matrix.shape == (3, 8)
    assert matrix[[0, 2]].tobytes() == np.zeros((2, 8)).tobytes()
    assert np.all(matrix[1, 6:] == 0) and np.all(matrix[1, :6] != 0)
    assert matrix[1].tobytes() == per_word_encoding(words[1], 4).tobytes()


def test_batch_encoder_of_no_words():
    assert encode_units([], 5).shape == (0, 10)


def test_batch_encoder_too_many_units_at_the_same_word():
    words = [LetterWord(w) for w in ("kit", "mop", "alexa", "alexander")]
    with pytest.raises(TooManyUnits) as batch:
        encode_units([word_units(w) for w in words], 5)
    first = next(w for w in words if len(word_units(w)) > 5)
    with pytest.raises(TooManyUnits) as single:
        per_word_encoding(first, 5)
    assert str(batch.value) == str(single.value) == "6 units exceed 5 slots"
    assert len(word_units(words[-1])) > 6


def test_word_units_chinese_excludes_tone():
    word = parse_pinyin("xiǎo dù")
    assert word_units(word) == [("initial", "x"), ("final", "iao"),
                                ("initial", "d"), ("final", "u")]


def test_character_distance_tone_penalty():
    a = parse_pinyin("dù").syllables[0]
    b = parse_pinyin("dū").syllables[0]
    assert character_distance(a, b, tone_penalty=1.0) == pytest.approx(1.0)
    assert character_distance(a, b, tone_penalty=0.5) == pytest.approx(0.5)
    assert character_distance(a, a) == 0.0


def test_character_distance_memo_is_bit_identical(reference):
    pairs = sorted(unit_tables().valid_pairs)
    rng = np.random.default_rng(12)
    for _ in range(3000):
        (ia, fa), (ib, fb) = (pairs[i] for i in rng.integers(len(pairs), size=2))
        a, b = Syllable(ia, fa, 1), Syllable(ib, fb, int(rng.integers(1, 3)))
        d = reference_character_distance(reference, a, b, 0.7)
        assert character_distance(a, b, 0.7) == d
        assert character_distance(a, b, 0.7) == d


def test_unit_feature_distance_bounds():
    emb = embedding_table()
    assert emb.unit_feature_distance("initial", "x", "x") == 0.0
    d = emb.unit_feature_distance("final", "a", "an")
    d2 = emb.unit_feature_distance("final", "a", "o")
    assert 0 < d < d2 <= 1.0


# ------------------------------------------------ per-kind table reference
# EmbeddingTable's build before the one unit table: per kind, a symbol ->
# vector dict and an (index, distance matrix) pair, each filled by its own
# loop. The unit table must reproduce every vector and distance bit for bit.

def pairwise_distances(feats, weights):
    """Weighted Hamming distances between feature rows, a pair at a time."""
    dist = np.zeros((len(feats), len(feats)))
    for i in range(len(feats)):
        for j in range(i + 1, len(feats)):
            gaps = np.abs(feats[i] - feats[j]) / 2.0
            dist[i, j] = dist[j, i] = float(np.dot(weights, gaps)
                                            / weights.sum())
    return dist


def per_kind_tables():
    """kind -> (symbol -> vector, symbol -> index, distance matrix)."""
    symbols = {"initial": [], "final": []}
    features = {"initial": [], "final": []}
    for row in raw_rows("pinyin_unit_features.tsv"):
        kind = "initial" if row[0] == "initial" else "final"
        symbols[kind].append(row[1])
        features[kind].append(np.array([int(v) for v in row[2:]],
                                       dtype=float))
    weight_rows = raw_weight_rows("pinyin_unit_features.tsv")
    tables = {}
    for kind, weights in zip(("initial", "final"), weight_rows):
        weights = np.array([float(w) for w in weights[1:]])
        syms = symbols[kind]
        dist = pairwise_distances(features[kind], weights)
        vectors = {s: v * UNIT_SCALE for s, v in zip(syms, mds_embed(dist))}
        tables[kind] = vectors, {s: i for i, s in enumerate(syms)}, dist
    # phonemes in symbol order, whatever the order of the file's rows
    rows = sorted(raw_rows("phoneme_features.tsv"), key=lambda row: row[0])
    syms = [row[0] for row in rows]
    feats = [np.array([int(v) for v in row[1:]], dtype=float) for row in rows]
    weights = np.array([float(w) for w in
                        raw_weight_rows("phoneme_features.tsv")[0]])
    dist = pairwise_distances(feats, weights)
    tables["phoneme"] = ({s: v for s, v in zip(syms, mds_embed(dist))},
                         {s: i for i, s in enumerate(syms)}, dist)
    return tables


@pytest.fixture(scope="module")
def reference():
    return per_kind_tables()


def test_unit_feature_rows_equal_the_numpy_matrix():
    symbols = {"initial": [], "final": []}
    features = {"initial": [], "final": []}
    for row in raw_rows("pinyin_unit_features.tsv"):
        kind = "initial" if row[0] == "initial" else "final"
        symbols[kind].append(row[1])
        features[kind].append(row[2:])
    weight_rows = raw_weight_rows("pinyin_unit_features.tsv")
    emb = embedding_table()
    for kind, weights in zip(("initial", "final"), weight_rows):
        table = emb.tables[kind]
        assert list(table.index) == symbols[kind]
        assert bits(table.rows) == bits(numpy_rows(features[kind],
                                                   weights[1:]))
    assert emb.tables["phoneme"] is inventory()


def test_unit_table_equals_the_per_kind_build(reference):
    emb = embedding_table()
    assert emb.unit_vectors.shape == (101, 2)
    assert emb.unit_vectors[0].tobytes() == np.zeros(2).tobytes()
    for kind, (vectors, index, dist) in reference.items():
        assert [s for k, s in emb.unit_row if k == kind] == list(vectors)
        for a, vec in vectors.items():
            assert emb.unit_vec(kind, a).tobytes() == vec.tobytes()
            assert emb.unit_vectors[emb.unit_row[kind, a]].tobytes() == \
                vec.tobytes()
            for b, other in vectors.items():
                assert emb.unit_feature_distance(kind, a, b) == \
                    float(dist[index[a], index[b]])
                assert emb.unit_gap(kind, a, b) == \
                    float(np.linalg.norm(vec - other))


def test_phoneme_row_order_does_not_matter(tmp_path):
    """The phoneme table and its embedding come out the same when the
    feature file lists the phonemes in reverse order."""
    syms = table_symbols(inventory())
    distances = {(p, q): table_distance(inventory(), p, q)
                 for p in syms for q in syms}
    vectors = {p: embedding_table().unit_vec("phoneme", p).tobytes()
               for p in syms}
    alt = tmp_path / "data"
    shutil.copytree(data_dir(), alt)
    table = alt / "phoneme_features.tsv"
    lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
    comments = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines if line.strip()
            and not line.startswith("#")]
    table.write_text("".join(comments + rows[::-1]), encoding="utf-8")
    with tables_from(alt):
        assert [row[0] for row in raw_rows("phoneme_features.tsv")] == \
            syms[::-1]
        assert list(inventory().index) == syms
        for (p, q), d in distances.items():
            assert table_distance(inventory(), p, q) == d
        for p, vec in vectors.items():
            assert embedding_table().unit_vec("phoneme", p).tobytes() == vec


def reference_character_distance(reference, a, b, tone_penalty):
    tables = unit_tables()
    initials, finals = reference["initial"][0], reference["final"][0]
    d = float(np.linalg.norm(initials[tables.initial_by_index[a.initial]]
                             - initials[tables.initial_by_index[b.initial]]))
    d += float(np.linalg.norm(finals[tables.final_by_index[a.final]]
                              - finals[tables.final_by_index[b.final]]))
    if a.tone != b.tone:
        d += tone_penalty
    return d


def test_character_distance_equals_the_per_kind_build(reference):
    """Every initial pair and every pair of the finals that some initial
    takes, each in a valid syllable."""
    pairs = sorted(unit_tables().valid_pairs)
    final_of, initial_of = {}, {}
    for ini, fin in pairs:
        final_of.setdefault(ini, fin)
        initial_of.setdefault(fin, ini)
    assert len(final_of) == 24 and len(initial_of) == 34
    cases = [((ia, final_of[ia]), (ib, final_of[ib]))
             for ia in final_of for ib in final_of]
    cases += [((initial_of[fa], fa), (initial_of[fb], fb))
              for fa in initial_of for fb in initial_of]
    for (ia, fa), (ib, fb) in cases:
        for tone, penalty in ((1, 1.0), (3, 0.7)):
            a, b = Syllable(ia, fa, 1), Syllable(ib, fb, tone)
            expected = reference_character_distance(reference, a, b, penalty)
            assert character_distance(a, b, penalty) == expected


# pinyin letters, tone marks (precomposed and combining), digits and space
PINYIN_LIKE = ("abcdefghijklmnopqrstuvwxyzüāáǎàēéěèīíǐìōóǒòūúǔùǖǘǚǜ"
               "\u0304\u0301\u030c\u0300\u0308012345 \t")


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet=PINYIN_LIKE)
       | st.text(alphabet=ALPHABET + "A1-"))
def test_parse_text_fails_only_with_parse_failure(text):
    """Any text either parses or raises ``ParseFailure`` naming it, in
    both languages."""
    for language in ("en", "zh"):
        try:
            parse_text(text, language)
        except ParseFailure as exc:
            assert repr(text) in str(exc)


# ------------------------------------------------ batch reader
# read_words and parse_words against one parse_text per text

LEXICON = [token for token, _ in raw_rows("lexicon.tsv")]
SYLLABLES = sorted({render_units(ini, fin, tone)
                    for ini, fin in sorted(unit_tables().valid_pairs)[::7]
                    for tone in (1, 3, 4)})

english_text = (
    st.text(alphabet=ALPHABET, max_size=12)
    | st.text(alphabet=ALPHABET + "A1\t", max_size=8)
    | st.lists(st.sampled_from(LEXICON + ["alexa", "qu", "tion", "eigh"]),
               max_size=3).map(" ".join))
chinese_text = (
    st.lists(st.sampled_from(SYLLABLES + ["xiao", "ni3", "DU4", "qqq1",
                                          "nǚ", "ǎ"]),
             max_size=4).map(" ".join)
    | st.text(alphabet=PINYIN_LIKE, max_size=10))
some_text = english_text | chinese_text


def per_word_read(text, language):
    """``parse_text`` before ``read_words``: the per-word English reader
    (``pattern_word``) or ``parse_pinyin``, then each unit's row; or the
    failure's type and message."""
    try:
        if language == "zh":
            tables = unit_tables()
            units = [unit for syl in parse_pinyin(text).syllables
                     for unit in (("initial",
                                   tables.initial_by_index[syl.initial]),
                                  ("final", tables.final_by_index[syl.final]))]
            spoken = [render_syllable(syl)
                      for syl in parse_pinyin(text).syllables]
        else:
            spoken = pattern_word(g2p_converter(), LetterWord(text).symbols)
            units = [("phoneme", p) for p in spoken if p != BOUNDARY]
    except ParseFailure as exc:
        return ParseFailure, f"{text!r} does not parse as {language}: {exc}"
    unit_row = embedding_table().unit_row
    return units, spoken, [unit_row[unit] for unit in units]


def scalar_read(text, language):
    try:
        units, spoken = parse_text(text, language)
    except ParseFailure as exc:
        return type(exc), str(exc)
    unit_row = embedding_table().unit_row
    return units, spoken, [unit_row[unit] for unit in units]


def batch_read(pieces):
    if isinstance(pieces, ParseFailure):
        return type(pieces), str(pieces)
    return ([u for piece in pieces for u in piece.units],
            [p for piece in pieces for p in piece.phones],
            [r for piece in pieces for r in piece.rows])


@settings(max_examples=300, deadline=None)
@given(st.lists(some_text, max_size=12), st.sampled_from(["en", "zh"]))
@example(["", " ", "  a  b ", "Alexa", "a1", "a\tb", "alexa", "alexa"],
         "en")
@example(["", "   ", "xiǎo dù", "xiao du", "xiǎo\tdù", "xiǎo qqq1",
          "ni3"], "zh")
def test_read_words_equals_parse_text(texts, language):
    """Every text, repeated texts included: ``read_words`` and
    ``parse_text`` give the units, pronunciation and unit rows of the
    per-word reader, or the same ``ParseFailure`` message."""
    read = list(read_words(iter(texts), language))
    assert [text for text, _ in read] == texts
    for text, pieces in read:
        expected = per_word_read(text, language)
        assert batch_read(pieces) == expected
        assert scalar_read(text, language) == expected


def test_reading_again_builds_no_piece(monkeypatch):
    """Each language's pieces are built once until ``clear_tables()``:
    reading words a second time, as a list or one text at a time, builds
    none."""
    words = {"en": ["alexa", "hey siri", "kitten", "qu tion eigh"],
             "zh": ["xiǎo dù", "nǐ hǎo", "ni3 hao3"]}
    first = {language: list(read_words(texts, language))
             for language, texts in words.items()}
    built = []
    init = embedding.Piece.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(embedding.Piece, "__init__", counted)
    for language, texts in words.items():
        again = list(read_words(texts, language))
        assert [[p.phones for p in pieces] for _, pieces in again] == \
            [[p.phones for p in pieces] for _, pieces in first[language]]
        for text in texts:
            parse_text(text, language)
    assert built == []


@pytest.mark.parametrize("text", ["xiǎo qqq1", "xiao", "xiǎo dǚ", ""])
def test_bad_syllable_fails_alike_on_every_call(text):
    """A text that does not parse is not memoised: every call raises
    (``parse_text``) or yields (``read_words``) the same failure."""
    messages = set()
    for _ in range(3):
        with pytest.raises(ParseFailure) as failure:
            parse_text(text, "zh")
        messages.add(str(failure.value))
        [(_, pieces)] = read_words([text], "zh")
        assert isinstance(pieces, ParseFailure)
        messages.add(str(pieces))
    assert messages == {per_word_read(text, "zh")[1]}


@settings(max_examples=200, deadline=None)
@given(st.lists(some_text, max_size=10), st.sampled_from(["en", "zh"]))
@example(["alexa", "Alexa", "a1"], "en")
@example(["xiǎo dù", "", "xiao"], "zh")
def test_parse_words_equals_per_text_parse(texts, language):
    """The dataset ``parse_text`` and ``encode_units`` give, or the
    ``ParseFailure`` of the first text that does not parse."""
    slots = 40
    try:
        parsed = [parse_text(text, language) for text in texts]
    except ParseFailure as exc:
        with pytest.raises(ParseFailure) as batch:
            parse_words(texts, language, slots, 1)
        assert str(batch.value) == str(exc)
        return
    dataset = parse_words(texts, language, slots, 1)
    assert dataset.texts == texts
    assert dataset.units == [units for units, _ in parsed]
    assert dataset.pronunciations == [spoken for _, spoken in parsed]
    expected = encode_units([units for units, _ in parsed], slots)
    assert dataset.features.tobytes() == expected.tobytes()
    assert dataset.features.shape == (len(texts), 2 * slots)
    assert dataset.labels.tolist() == [1] * len(texts)


def test_parse_words_too_many_units_after_every_parse():
    """Parsing comes first: a bad text later in the list wins over a word
    too long for the slots; without one, the encoder's ``TooManyUnits``."""
    with pytest.raises(ParseFailure, match="'Kit'"):
        parse_words(["alexander", "Kit"], "en", 5, 0)
    with pytest.raises(TooManyUnits, match="exceed 5 slots"):
        parse_words(["kit", "alexander"], "en", 5, 0)
