"""End-to-end search, explanation, and screening on a Mandarin wake word."""
import numpy as np
import pytest

from fakewake.distance import DistanceConfig
from fakewake.evolve import EvolveConfig, run
from fakewake.explain import (ArchiveWords, build_dataset, cross_validate, default_slots,
                              explain_archive, group_factors, parse_text,
                              rank_decisive_units)
from fakewake.gbdt import train_gbdt
from fakewake.genome import VariationConfig, encode_chinese
from fakewake.mitigate import screening_coverage
from fakewake.oracle import SimulatedDetector
from fakewake.pinyin import parse_pinyin

WAKE = "xiǎo dù xiǎo dù"
# heavy weight on the first "iao" final (unit index 1 of x/iao/d/u pairs)
WEIGHTS = (0.05, 0.6, 0.05, 0.05, 0.05, 0.05, 0.05, 0.1)


@pytest.fixture(scope="module")
def zh_archive():
    detector = SimulatedDetector(target=WAKE, language="zh",
                                 unit_weights=WEIGHTS, seed=2024)
    wake = encode_chinese(parse_pinyin(WAKE))
    return run(wake, WAKE, detector,
               EvolveConfig(population_size=60, generations=25, trials=10),
               VariationConfig(), DistanceConfig(), seed=9)


def test_zh_detector_scores():
    detector = SimulatedDetector(target=WAKE, language="zh",
                                 unit_weights=WEIGHTS, seed=2024)
    assert detector.score(WAKE) == pytest.approx(1.0)
    assert detector.query(WAKE, 10) >= 9
    assert detector.score("tiān māo jīng líng") < 0.5


def test_zh_archive_contents(zh_archive):
    assert len(zh_archive.candidates) >= 10
    for cand in zh_archive.candidates.values():
        word = parse_pinyin(cand.word)     # rendered text parses back
        assert len(word) == 4
        assert cand.objectives.dissimilarity > 0


def test_zh_decisive_units_recover_heavy_final(zh_archive):
    slots = default_slots("zh", WAKE)
    assert slots == 8
    zh_words = ArchiveWords(zh_archive, slots)
    dataset = build_dataset(zh_words, seed=9)
    model = train_gbdt(dataset.features, dataset.labels)
    accuracy = cross_validate(dataset, folds=5, seed=9)
    assert accuracy >= 0.8
    sets = explain_archive(zh_words, model)
    ranked = rank_decisive_units(sets)
    assert ranked, "no decisive units extracted"
    top3 = {(u.kind, u.symbol) for u in ranked[:3]}
    assert ("final", "iao") in top3

    grouping = group_factors(sets, parse_text(WAKE, "zh")[0])
    assert grouping.entries
    groups = {e.group.value for e in grouping.entries}
    assert groups <= {"high", "medium", "low"}

    coverage = [screening_coverage(zh_words.fuzzy.units, ranked, n)
                for n in (1, 2, 3)]
    assert coverage == sorted(coverage)
    assert coverage[-1] >= 0.8
