import numpy as np
import pytest

from fakewake.dataio import data_path
from fakewake.errors import (EmptyCollective, EmptyFuzzySet, EmptyTestSet,
                             ParseFailure)
from fakewake.embedding import encode_units
from fakewake.explain import (ArchiveWords, Dataset, RankedUnit,
                              build_dataset, default_slots, explain_archive,
                              parse_text, rank_decisive_units)
from fakewake.gbdt import GBDTParams, TreeEnsemble, train_gbdt
from fakewake.mitigate import (DETECTOR_PARAMS, assemble_triple, evaluate,
                               fuzzy_rate, load_collective,
                               screening_coverage, strengthen,
                               synthesize_conventional, train_original,
                               word_key)
from fakewake.params import MitigateConfig
from tests.test_explain import make_archive

SLOTS = default_slots("en", "alexa")
BLOCK = MitigateConfig()


def units(text, language="en"):
    return parse_text(text, language)[0]


def synthesize(block=BLOCK, seed=0):
    return synthesize_conventional("alexa", "en", SLOTS, block, seed=seed)


def test_synthesize_shapes_and_split():
    conv = synthesize()
    # ceil(3 * 296 / 4) and ceil(3 * 399 / 4)
    assert conv.train.count(1) == 222 and conv.test.count(1) == 74
    assert conv.train.count(0) == 300 and conv.test.count(0) == 99
    for part in (conv.train, conv.test):
        assert part.features.shape == (len(part), 2 * SLOTS)
        assert len(part.texts) == len(part.labels) == len(part)


def test_synthesize_zero_jitter_identical_positives():
    conv = synthesize(MitigateConfig(jitter=0.0))
    pos = np.concatenate([part.features[part.labels == 1]
                          for part in (conv.train, conv.test)])
    for row in pos[1:]:
        assert np.array_equal(row, pos[0])


def test_synthesize_jitter_only_occupied_slots():
    conv = synthesize()
    pos = conv.train.features[conv.train.labels == 1]
    assert np.all(pos[:, 12:] == 0.0)    # alexa has 6 units = 12 features


def test_synthesize_draws_no_spelling_of_the_wake_word():
    """No negative is the wake word, however the wake word is spelled: a
    drawn ``nǐ`` is ``ni3``, so it is drawn again (seed 0 draws it
    twice)."""
    conv = synthesize_conventional("ni3", "zh", 2, MitigateConfig(
        n_pos=8, n_neg=3000), seed=0)
    negatives = [text for part in (conv.train, conv.test)
                 for text in part.take(part.labels == 0).texts]
    assert len(negatives) == 3000
    assert "nǐ" not in negatives


def test_synthesize_deterministic():
    a = synthesize(seed=5)
    b = synthesize(seed=5)
    for x, y in ((a.train, b.train), (a.test, b.test)):
        assert x.texts == y.texts
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)


def test_synthesize_minimums():
    """The block rejects class sizes too small to split and jitter."""
    with pytest.raises(ValueError):
        MitigateConfig(n_pos=4)


class StubModel:
    """Fixed-response detector standing in for a TreeEnsemble."""

    def __init__(self, accept):
        self.accept = accept

    def predict(self, features):
        return np.full(len(features), int(self.accept))


def labelled(words, labels):
    """Words with all-zero feature rows and the given labels."""
    return Dataset(list(words), np.zeros((len(words), 4)),
                   np.array(labels, dtype=int))


TEST_SET = labelled(["alexa", "alexa", "mop", "nib", "tor"], [1, 1, 0, 0, 0])


def test_evaluate_perfect_model():
    class Perfect:
        def predict(self, features):
            return (features.sum(axis=1) > 0).astype(int)

    rows = Dataset(["p", "n"], np.array([[1.0, 1.0], [0.0, 0.0]]),
                   np.array([1, 0]))
    report = evaluate(Perfect(), rows)
    assert report.false_positive_rate == 0.0
    assert report.false_negative_rate == 0.0
    assert report.accuracy == 1.0


def test_evaluate_always_accept():
    report = evaluate(StubModel(True), TEST_SET)
    assert report.false_positive_rate == 1.0
    assert report.false_negative_rate == 0.0
    assert report.accuracy == pytest.approx(2 / 5)


def test_evaluate_accuracy_identity():
    report = evaluate(StubModel(False), TEST_SET)
    n, fp, fn = len(TEST_SET), 0, 2
    assert report.accuracy == pytest.approx(1 - (fp + fn) / n)


def test_evaluate_needs_both_classes():
    with pytest.raises(EmptyTestSet):
        evaluate(StubModel(True), labelled([], []))
    with pytest.raises(EmptyTestSet):
        evaluate(StubModel(True), labelled(["a"], [1]))


def test_fuzzy_rate_trivial_models():
    collective = labelled(["a", "b", "c"], [0, 0, 0])
    assert fuzzy_rate(StubModel(False), collective) == 0.0
    assert fuzzy_rate(StubModel(True), collective) == 1.0
    with pytest.raises(EmptyCollective):
        fuzzy_rate(StubModel(True), labelled([], []))


def test_strengthen_requires_fuzzy():
    with pytest.raises(EmptyFuzzySet):
        strengthen(labelled([], []), labelled(["a", "b"], [1, 0]))


def test_load_collective_skips_unencodable(tmp_path):
    path = tmp_path / "collective.txt"
    path.write_text("good\nxxxxxxxxxxxxxxxxxxxxxx\nHello\ndon't\nfine\n")
    rows = load_collective("en", SLOTS, path=path)
    assert rows.texts == ["good", "fine"]
    assert rows.labels.tolist() == [0, 0]


def test_load_collective_empty(tmp_path):
    path = tmp_path / "collective.txt"
    path.write_text("\n")
    with pytest.raises(EmptyCollective):
        load_collective("en", SLOTS, path=path)


def test_load_collective_zh_skips_unparseable_lines(tmp_path):
    path = tmp_path / "collective.txt"
    path.write_text("aaeksa\nxiǎo dù\nhello world\nnǐ hǎo\n", encoding="utf-8")
    rows = load_collective("zh", 4, path=path)
    assert rows.texts == ["xiǎo dù", "nǐ hǎo"]


def test_load_collective_zh_english_only_is_empty(tmp_path):
    path = tmp_path / "collective.txt"
    path.write_text("aaeksa\nhello\nworld\n", encoding="utf-8")
    with pytest.raises(EmptyCollective):
        load_collective("zh", 4, path=path)


@pytest.mark.parametrize("language, lines, limit, kept", [
    ("zh", ["nǐ hǎo", "ni3 hao3", "nǐ  hǎo"], None, ["nǐ hǎo"]),
    ("zh", ["ni3 hao3", "nǐ hǎo", "xiǎo dù"], None, ["ni3 hao3", "xiǎo dù"]),
    ("zh", ["nǐ hǎo", "ni3 hao3", "xiǎo dù"], 2, ["nǐ hǎo"]),
    ("en", ["a b", "a  b"], None, ["a b"]),
    ("en", ["a b", "a  b", "kit"], 2, ["a b"])])
def test_load_collective_keeps_one_spelling_per_word(tmp_path, language,
                                                     lines, limit, kept):
    """A word spelled twice in the collective is one row, its first
    spelling; a repeat counts towards ``limit`` as a known word does."""
    slots = 4 if language == "zh" else SLOTS
    path = tmp_path / "collective.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = load_collective(language, slots, limit=limit, path=path)
    assert rows.texts == kept
    expected = encode_units([units(w, language) for w in kept], slots)
    assert np.array_equal(rows.features, expected)


def per_line_collective(path, language, slots, limit=None):
    """load_collective before the batch reader: one ``parse_text`` per
    stripped non-blank line, skipping what does not parse or fit and, of
    the first ``limit`` lines that do, each repeat of a word."""
    texts, parsed, keys = [], [], set()
    usable = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if not word:
                continue
            try:
                word_units, spoken = parse_text(word, language)
            except ParseFailure:
                continue
            if len(word_units) > slots:
                continue
            usable += 1
            key = word_key(word, spoken, language)
            if key not in keys:
                keys.add(key)
                texts.append(word)
                parsed.append(word_units)
            if usable == limit:
                break
    return texts, encode_units(parsed, slots)


CRAFTED = ("\r\n  kit \r\n\nHello\n\tmop\t\nfoo bar\nfoo\tbar\n"
           "xxxxxxxxxxxxxxxxxxxxxx\nxiǎo dù\r\n nǐ hǎo \nxiao du\nqqq1\n"
           "xiǎo\tdù\nNǏ HǍO\n hǎo\nkit\n \nalexa\ndon't\n")


@pytest.mark.parametrize("language, slots", [("en", SLOTS), ("en", 6),
                                             ("zh", 4), ("zh", 2)])
@pytest.mark.parametrize("limit", [None, 3])
@pytest.mark.parametrize("copies", [1, 4, 1024])
def test_load_collective_equals_the_per_line_reference(
        tmp_path, language, slots, limit, copies):
    """Blank lines, CRLF, surrounding spaces, tabs, uppercase, words too
    long for the slots, bad syllables and ``limit``, in ``copies`` copies
    of the file: a repeated line reads the same word from the warm memos,
    so it is dropped."""
    path = tmp_path / "collective.txt"
    path.write_bytes((CRAFTED * copies).encode("utf-8"))
    texts, features = per_line_collective(path, language, slots, limit)
    assert texts
    rows = load_collective(language, slots, limit=limit, path=path)
    assert rows.texts == texts
    assert rows.features.tobytes() == features.tobytes()
    assert rows.features.shape == features.shape
    assert rows.labels.tolist() == [0] * len(texts)


@pytest.mark.parametrize("limit", [None, 700])
def test_load_collective_bundled_equals_the_per_line_reference(limit):
    path = data_path("collective.txt")
    texts, features = per_line_collective(path, "en", SLOTS, limit)
    rows = load_collective("en", SLOTS, limit=limit)
    assert rows.texts == texts
    assert rows.features.tobytes() == features.tobytes()
    assert len(texts) == (limit or 5600)


def ranked_units(symbols):
    return [RankedUnit(sym, "phoneme", 10.0 - i, 5)
            for i, sym in enumerate(symbols)]


def test_screening_coverage_monotone_and_full():
    words = [units(w) for w in ("kit", "tok", "mop", "fun")]
    ranked = ranked_units(["K", "M", "F", "T", "AA", "IH", "AH", "N", "P", "UH"])
    values = [screening_coverage(words, ranked, n)
              for n in range(1, len(ranked) + 1)]
    assert values == sorted(values)
    assert values[-1] == 1.0
    assert screening_coverage(words, ranked, 1) == pytest.approx(2 / 4)
    assert screening_coverage(words, [], 1) == 0.0
    assert screening_coverage([], ranked, 1) == 0.0


def test_screening_symbol_at_any_position():
    ranked = ranked_units(["K"])
    assert screening_coverage([units("akka")], ranked, 1) == 1.0
    assert screening_coverage([units("mom")], ranked, 1) == 0.0


def test_should_escalate():
    """The screening decision for one word: escalate iff it holds a top-n
    decisive unit."""
    ranked = ranked_units(["K"])
    assert screening_coverage([units("kit")], ranked, 1) == 1.0
    assert screening_coverage([units("mom")], ranked, 1) == 0.0


def test_screening_coverage_keeps_kind_and_symbol():
    """A word's unit list counts for a top unit of the same kind and
    symbol; a unit of another kind with the same symbol does not."""
    kit, zh = units("kit"), units("xiǎo dù xiǎo dù", "zh")
    assert kit == [("phoneme", "K"), ("phoneme", "IH"), ("phoneme", "T")]
    for word, kind, symbol in ((kit, "phoneme", "K"), (zh, "final", "iao"),
                               (zh, "initial", "d")):
        for other in ("phoneme", "initial", "final"):
            ranked = [RankedUnit(symbol, other, 1.0, 1)]
            assert screening_coverage([word], ranked, 1) == \
                (1.0 if other == kind else 0.0)


def test_assemble_triple_drops_known_words(tmp_path):
    """The collective loses the wake word, the fuzzy words and the
    conventional words; the rest keep their file order and encodings."""
    words = ArchiveWords(make_archive(["kaf", "kef"], ["mop"]), SLOTS)
    conv = synthesize(seed=3)
    made = next(text for text in conv.train.take(conv.train.labels == 0).texts
                if text == text.strip())
    fresh = ["tiger", "banana", "mop", "pillow"]
    assert not {*fresh} & {*conv.train.texts, *conv.test.texts}
    path = tmp_path / "collective.txt"
    path.write_text("\n".join(["tiger", "alexa", "banana", "kaf", made,
                               "mop", "pillow"]) + "\n")

    triple = assemble_triple(
        words, MitigateConfig(collective_path=str(path)), seed=3)
    assert sorted(triple.fuzzy.texts) == ["kaf", "kef"]
    assert triple.fuzzy.labels.tolist() == [0, 0]
    assert triple.collective.texts == fresh
    assert len(triple.collective) == len(fresh)
    expected = encode_units([units(w) for w in fresh], SLOTS)
    assert np.array_equal(triple.collective.features, expected)
    assert triple.collective.labels.tolist() == [0] * len(fresh)


@pytest.mark.parametrize("language, wake_word, fuzzy, lines, kept", [
    ("zh", "xiao3 du4", "xiǎo tù",
     ["xiǎo dù", "XIAO3  DU4", "xiao3 tu4", "xiǎo\ttù", "xiāo dù",
      "nǐ  hǎo", "xiao3 du3"],
     ["xiāo dù", "nǐ  hǎo", "xiao3 du3"]),
    ("en", "alexa", "ka f",
     ["ka  f", "alexa", "kaf", "ka fa"], ["kaf", "ka fa"])])
def test_assemble_triple_drops_known_words_however_spelled(
        tmp_path, language, wake_word, fuzzy, lines, kept):
    """The collective drops a known word in any spelling: a Mandarin word
    by its syllables, tone included, an English one by its letters with
    single spaces. Every other word keeps its file's spelling."""
    archive = make_archive([fuzzy], [], language)
    archive.wake_word = wake_word
    slots = default_slots(language, wake_word)
    path = tmp_path / "collective.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    triple = assemble_triple(
        ArchiveWords(archive, slots), MitigateConfig(
            n_pos=8, n_neg=8, collective_path=str(path)), seed=1)
    assert triple.collective.texts == kept
    expected = encode_units([units(w, language) for w in kept], slots)
    assert np.array_equal(triple.collective.features, expected)


def test_closed_loop_mitigation(fixture_archive):
    triple = assemble_triple(ArchiveWords(fixture_archive, SLOTS), BLOCK,
                             seed=7)
    conv, fuzzy, collective = (triple.conventional, triple.fuzzy,
                               triple.collective)
    original = train_original(conv.train)
    strengthened = strengthen(fuzzy, conv.train)

    fr_original = fuzzy_rate(original, collective)
    fr_strengthened = fuzzy_rate(strengthened, collective)
    assert fr_original > 0.0
    assert fr_strengthened < fr_original

    report_o = evaluate(original, conv.test, fr_original)
    report_s = evaluate(strengthened, conv.test, fr_strengthened)
    assert report_o.accuracy >= 0.95
    assert report_s.accuracy >= report_o.accuracy - 0.01

    high = fuzzy.take([fixture_archive.candidates[text].objectives.wake_rate
                       >= 0.8 for text in fuzzy.texts])
    rejected = int(np.sum(strengthened.predict(high.features) == 0))
    assert rejected / len(high) >= 0.97
