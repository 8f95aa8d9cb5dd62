import numpy as np
import pytest

from fakewake.errors import (EmptyClass, NoPositiveContributions,
                             TooFewSamples)
from fakewake.evolve import EvaluatedWord, FuzzyArchive, FuzzyCandidate, Objectives
from fakewake.explain import (Dataset, WordSample, UnitRef, build_dataset,
                              cross_validate, decisive_factors, default_slots,
                              explain_archive, group_factors,
                              rank_decisive_units, unit_map)
from fakewake.gbdt import GBDTParams, train_gbdt
from fakewake.phonemes import LetterWord
from fakewake.treeshap import ShapExplanation


def make_archive(fuzzy, rejected, language="en"):
    archive = FuzzyArchive(wake_word="alexa", language=language, seed=0,
                           config={}, oracle_spec="sim")
    for i, word in enumerate(fuzzy):
        archive.candidates[word] = FuzzyCandidate(
            word, (1,), Objectives(0.9, 0.01 * (i + 1)), 1)
    for word in rejected:
        archive.rejected[word] = EvaluatedWord(word, 0.0, 0.3, 1)
    return archive


def test_build_dataset_preserves_labels():
    archive = make_archive(["kaf", "kef"], ["mop", "nip"])
    ds = build_dataset(archive, slots=8)
    assert len(ds.samples) == 4
    assert ds.count(1) == 2 and ds.count(0) == 2
    assert ds.features.shape == (4, 16)


def test_build_dataset_caps_ratio():
    fuzzy = [f"ka{c}" for c in "bdfgm"]
    rejected = [f"{a}o{b}" for a in "bcdfglmnprstvz" for b in "bdgklmnprstz"][:100]
    archive = make_archive(fuzzy, rejected)
    ds = build_dataset(archive, slots=8, seed=1)
    assert ds.count(1) == 5
    assert ds.count(0) == 15


def test_build_dataset_caps_positives_too():
    fuzzy = [f"ka{c}" for c in "bdfgmlnprstvz"][:12]
    archive = make_archive(fuzzy, ["mop"])
    ds = build_dataset(archive, slots=8, seed=1)
    assert ds.count(0) == 1
    assert ds.count(1) == 3


def test_build_dataset_requires_both_classes():
    with pytest.raises(EmptyClass):
        build_dataset(make_archive(["kaf"], []), slots=8)
    with pytest.raises(EmptyClass):
        build_dataset(make_archive([], ["mop"]), slots=8)


def test_default_slots():
    assert default_slots("zh", "xiǎo dù xiǎo dù") == 8
    assert default_slots("en", "alexa") == 14


def test_cross_validate_separable():
    rng = np.random.default_rng(0)
    samples = []
    for i in range(30):
        samples.append(WordSample(f"p{i}", rng.normal(3.0, 0.2, 4), 1))
        samples.append(WordSample(f"n{i}", rng.normal(-3.0, 0.2, 4), 0))
    assert cross_validate(Dataset(samples),
                          GBDTParams(n_trees=10), folds=10, seed=0) == 1.0


def test_cross_validate_too_few():
    samples = [WordSample("a", np.zeros(2), 1)] * 5 + \
              [WordSample("b", np.ones(2), 0)] * 5
    with pytest.raises(TooFewSamples):
        cross_validate(Dataset(samples), folds=10)


def test_cross_validate_deterministic():
    rng = np.random.default_rng(1)
    samples = [WordSample(str(i), rng.normal(size=3),
                          int(rng.random() < 0.5)) for i in range(60)]
    labels = [s.label for s in samples]
    if len(set(labels)) == 1 or min(labels.count(0), labels.count(1)) < 10:
        pytest.skip("unlucky draw")
    ds = Dataset(samples)
    assert cross_validate(ds, folds=10, seed=3) == \
        cross_validate(ds, folds=10, seed=3)


def explanation(phi):
    phi = np.asarray(phi, dtype=float)
    return ShapExplanation(contributions=phi, base_value=0.0,
                           margin=float(phi.sum()))


def units_for(n):
    return [UnitRef("phoneme", f"U{i}", i) for i in range(n)]


def test_decisive_prefix_example():
    # features 0..3 with positive contributions 0.5 0.3 0.1 0.1
    fs = decisive_factors(explanation([0.5, 0.3, 0.1, 0.1]), units_for(2),
                          beta=0.8)
    assert fs.feature_indices == (0, 1)


def test_decisive_beta_one_takes_all_positive():
    fs = decisive_factors(explanation([0.5, 0.3, -0.2, 0.1]), units_for(2),
                          beta=1.0)
    assert fs.feature_indices == (0, 1, 3)


def test_decisive_prefix_minimality():
    rng = np.random.default_rng(0)
    for _ in range(50):
        phi = rng.normal(size=10)
        if not np.any(phi > 0):
            continue
        fs = decisive_factors(explanation(phi), units_for(5), beta=0.8)
        total = phi[phi > 0].sum()
        share = phi[list(fs.feature_indices)].sum() / total
        assert share >= 0.8
        if len(fs.feature_indices) > 1:
            drop = phi[list(fs.feature_indices[:-1])].sum() / total
            assert drop < 0.8


def test_decisive_unit_aggregation():
    # both features of unit 0 in the decisive set: contributions summed
    fs = decisive_factors(explanation([0.6, 0.35, 0.05, 0.0]), units_for(2),
                          beta=0.9)
    assert fs.factors[0].unit.position == 0
    assert fs.factors[0].contribution == pytest.approx(0.95)


def test_decisive_requires_positive():
    with pytest.raises(NoPositiveContributions):
        decisive_factors(explanation([-0.5, -0.1, 0.0]), units_for(2))


def test_unit_map_positions():
    refs = unit_map(LetterWord("alexa"))
    assert [r.symbol for r in refs] == ["AH", "L", "EH", "K", "S", "AH"]
    assert [r.position for r in refs] == list(range(6))


def grouped_set(word, factors):
    from fakewake.explain import DecisiveFactorSet

    fs = DecisiveFactorSet(word=word, factors=factors, beta=0.8,
                           feature_indices=())
    return fs


def test_group_factors_identical_unit_high():
    from fakewake.explain import DecisiveFactor

    wake = LetterWord("alexa")
    fs = grouped_set("kalexa", [
        DecisiveFactor(UnitRef("phoneme", "AH", 0), 1.0),   # same as wake
        DecisiveFactor(UnitRef("phoneme", "K", 3), 2.0),    # same as wake
    ])
    grouping = group_factors([fs], wake)
    assert all(e.group.value == "high" for e in grouping.entries)


def test_group_factors_all_equal_differences_high():
    from fakewake.explain import DecisiveFactor

    wake = LetterWord("alexa")
    sets = [grouped_set(w, [DecisiveFactor(UnitRef("phoneme", "IY", 0), 1.0)])
            for w in ("a", "b", "c")]
    grouping = group_factors(sets, wake)
    assert grouping.spread == 0.0
    assert all(e.group.value == "high" for e in grouping.entries)


def test_group_factors_past_wake_word_low():
    from fakewake.explain import DecisiveFactor

    wake = LetterWord("alexa")
    fs = grouped_set("longword", [DecisiveFactor(UnitRef("phoneme", "K", 11), 1.0)])
    grouping = group_factors([fs], wake)
    assert grouping.entries[0].group.value == "low"
    assert grouping.entries[0].difference is None


def test_rank_decisive_units_orders_by_contribution():
    from fakewake.explain import DecisiveFactor

    sets = [
        grouped_set("w1", [DecisiveFactor(UnitRef("phoneme", "K", 3), 2.0),
                           DecisiveFactor(UnitRef("phoneme", "S", 4), 0.5)]),
        grouped_set("w2", [DecisiveFactor(UnitRef("phoneme", "K", 2), 1.5)]),
    ]
    ranked = rank_decisive_units(sets)
    assert ranked[0].symbol == "K"
    assert ranked[0].contribution == pytest.approx(3.5)
    assert ranked[0].words == 2
    assert ranked[1].symbol == "S"


def test_explain_archive_closed_loop(fixture_archive):
    slots = default_slots("en", "alexa")
    ds = build_dataset(fixture_archive, slots, seed=7)
    model = train_gbdt(ds.features, ds.labels)
    sets = explain_archive(fixture_archive, model, slots)
    assert sets
    ranked = rank_decisive_units(sets)
    assert ranked[0].symbol == "K"    # the simulator's hidden heavy unit


def test_explain_archive_passes_beta(fixture_archive):
    slots = default_slots("en", "alexa")
    ds = build_dataset(fixture_archive, slots, seed=7)
    model = train_gbdt(ds.features, ds.labels, GBDTParams(n_trees=20))
    sets = explain_archive(fixture_archive, model, slots, beta=1.0)
    assert sets
    assert all(fs.beta == 1.0 for fs in sets)


def test_dissimilarity_separation(fixture_archive):
    """Non-fuzzy words score higher dissimilarity (1 - confidence)."""
    slots = default_slots("en", "alexa")
    ds = build_dataset(fixture_archive, slots, seed=7)
    labels = ds.labels
    split = len(labels) // 2
    train = np.arange(len(labels)) % 2 == 0
    model = train_gbdt(ds.features[train], labels[train])
    fuzzy_scores, nonfuzzy_scores = [], []
    for row, label in zip(ds.features[~train], labels[~train]):
        score = 1.0 - model.predict_proba(row)
        (fuzzy_scores if label == 1 else nonfuzzy_scores).append(score)
    assert np.median(nonfuzzy_scores) > np.median(fuzzy_scores)
