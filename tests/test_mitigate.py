import numpy as np
import pytest

from fakewake.errors import (EmptyCollective, EmptyFuzzySet, EmptyTestSet)
from fakewake.explain import (ArchiveWords, RankedUnit, build_dataset,
                              default_slots, explain_archive, parse_text,
                              rank_decisive_units)
from fakewake.gbdt import GBDTParams, TreeEnsemble, train_gbdt
from fakewake.mitigate import (DETECTOR_PARAMS, WordSample, evaluate,
                               fuzzy_rate, fuzzy_word_samples,
                               load_collective, screening_coverage,
                               should_escalate, strengthen,
                               synthesize_conventional, train_original,
                               unit_set)

SLOTS = default_slots("en", "alexa")


def units(text, language="en"):
    return parse_text(text, language)[0]


def test_synthesize_shapes_and_split():
    conv = synthesize_conventional("alexa", "en", SLOTS, seed=0)
    train_pos = [s for s in conv.train if s.label == 1]
    train_neg = [s for s in conv.train if s.label == 0]
    test_pos = [s for s in conv.test if s.label == 1]
    test_neg = [s for s in conv.test if s.label == 0]
    assert len(train_pos) == 222 and len(test_pos) == 74     # ceil(3*296/4)
    assert len(train_neg) == 300 and len(test_neg) == 99     # ceil(3*399/4)
    for s in conv.train + conv.test:
        assert s.features.shape == (2 * SLOTS,)


def test_synthesize_zero_jitter_identical_positives():
    conv = synthesize_conventional("alexa", "en", SLOTS, jitter=0.0, seed=0)
    pos = [s.features for s in conv.train + conv.test if s.label == 1]
    for row in pos[1:]:
        assert np.array_equal(row, pos[0])


def test_synthesize_jitter_only_occupied_slots():
    conv = synthesize_conventional("alexa", "en", SLOTS, seed=0)
    pos = [s.features for s in conv.train if s.label == 1]
    for row in pos:
        assert np.all(row[12:] == 0.0)    # alexa has 6 units = 12 features


def test_synthesize_deterministic():
    a = synthesize_conventional("alexa", "en", SLOTS, seed=5)
    b = synthesize_conventional("alexa", "en", SLOTS, seed=5)
    for x, y in zip(a.train + a.test, b.train + b.test):
        assert x.word == y.word and np.array_equal(x.features, y.features)


def test_synthesize_minimums():
    with pytest.raises(ValueError):
        synthesize_conventional("alexa", "en", SLOTS, n_pos=4)


class StubModel:
    """Fixed-response detector standing in for a TreeEnsemble."""

    def __init__(self, accept):
        self.accept = accept

    def predict(self, features, threshold=0.5):
        return np.full(len(features), int(self.accept))


def sample(word, label):
    return WordSample(word, np.zeros(4), label)


TEST_SET = [sample("alexa", 1), sample("alexa", 1),
            sample("mop", 0), sample("nib", 0), sample("tor", 0)]


def test_evaluate_perfect_model():
    class Perfect:
        def predict(self, features, threshold=0.5):
            return (features.sum(axis=1) > 0).astype(int)

    rows = [WordSample("p", np.ones(2), 1), WordSample("n", np.zeros(2), 0)]
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
        evaluate(StubModel(True), [])
    with pytest.raises(EmptyTestSet):
        evaluate(StubModel(True), [sample("a", 1)])


def test_fuzzy_rate_trivial_models():
    collective = [sample(w, 0) for w in ("a", "b", "c")]
    assert fuzzy_rate(StubModel(False), collective) == 0.0
    assert fuzzy_rate(StubModel(True), collective) == 1.0
    with pytest.raises(EmptyCollective):
        fuzzy_rate(StubModel(True), [])


def test_strengthen_requires_fuzzy():
    with pytest.raises(EmptyFuzzySet):
        strengthen([], [sample("a", 1), sample("b", 0)])


def test_load_collective_skips_unencodable(tmp_path):
    path = tmp_path / "collective.txt"
    path.write_text("good\nxxxxxxxxxxxxxxxxxxxxxx\nfine\n")
    rows = load_collective("en", SLOTS, path=path)
    assert [r.word for r in rows] == ["good", "fine"]


def test_load_collective_empty(tmp_path):
    path = tmp_path / "collective.txt"
    path.write_text("\n")
    with pytest.raises(EmptyCollective):
        load_collective("en", SLOTS, path=path)


def test_load_collective_zh_skips_unparseable_lines(tmp_path):
    path = tmp_path / "collective.txt"
    path.write_text("aaeksa\nxiǎo dù\nhello world\nnǐ hǎo\n", encoding="utf-8")
    rows = load_collective("zh", 4, path=path)
    assert [r.word for r in rows] == ["xiǎo dù", "nǐ hǎo"]


def test_load_collective_zh_english_only_is_empty(tmp_path):
    path = tmp_path / "collective.txt"
    path.write_text("aaeksa\nhello\nworld\n", encoding="utf-8")
    with pytest.raises(EmptyCollective):
        load_collective("zh", 4, path=path)


def ranked_units(symbols):
    return [RankedUnit(sym, "phoneme", 10.0 - i, 5)
            for i, sym in enumerate(symbols)]


def test_screening_coverage_monotone_and_full():
    words = [unit_set(units(w)) for w in ("kit", "tok", "mop", "fun")]
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
    assert screening_coverage([unit_set(units("akka"))], ranked, 1) == 1.0
    assert screening_coverage([unit_set(units("mom"))], ranked, 1) == 0.0


def test_should_escalate():
    ranked = ranked_units(["K"])
    assert should_escalate(unit_set(units("kit")), ranked, 1)
    assert not should_escalate(unit_set(units("mom")), ranked, 1)


def test_unit_set_keeps_kind_and_symbol():
    assert unit_set(units("kit")) == {("phoneme", "K"), ("phoneme", "IH"),
                                     ("phoneme", "T")}
    zh = unit_set(units("xiǎo dù xiǎo dù", "zh"))
    assert ("final", "iao") in zh and ("initial", "d") in zh


def test_closed_loop_mitigation(fixture_archive):
    conv = synthesize_conventional("alexa", "en", SLOTS, seed=7)
    original = train_original(conv.train)
    fuzzy = fuzzy_word_samples(ArchiveWords(fixture_archive, SLOTS))
    strengthened = strengthen(fuzzy, conv.train)
    collective = load_collective("en", SLOTS)
    known = {s.word for s in conv.train} | {s.word for s in conv.test} | \
        {s.word for s in fuzzy}
    collective = [s for s in collective if s.word not in known]

    fr_original = fuzzy_rate(original, collective)
    fr_strengthened = fuzzy_rate(strengthened, collective)
    assert fr_original > 0.0
    assert fr_strengthened < fr_original

    report_o = evaluate(original, conv.test, fr_original)
    report_s = evaluate(strengthened, conv.test, fr_strengthened)
    assert report_o.accuracy >= 0.95
    assert report_s.accuracy >= report_o.accuracy - 0.01

    high = [s for s in fuzzy
            if fixture_archive.candidates[s.word].objectives.wake_rate >= 0.8]
    rejected = sum(1 for s in high if strengthened.predict(s.features) == 0)
    assert rejected / len(high) >= 0.97
