"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.
"""
import time

import numpy as np
import pytest

from fakewake.distance import chinese_dist, english_dist
from fakewake.evolve import Objectives, non_dominated_front
from fakewake.explain import (ArchiveWords, build_dataset, cross_validate,
                              default_slots, explain_archive,
                              rank_decisive_units)
from fakewake.gbdt import train_gbdt
from fakewake.genome import ChineseGenome, random_genome
from fakewake.mitigate import (assemble_triple, evaluate, fuzzy_rate,
                               screening_coverage, strengthen,
                               train_original)
from fakewake.params import MitigateConfig
from fakewake.phonemes import BOUNDARY, inventory
from fakewake.treeshap import shap_values
from tests.conftest import random_ensemble, run_search
from tests.reference import (base_value, brute_force_english,
                             brute_force_front, brute_force_shap,
                             decode_chinese, run_stages, table_symbols)

SLOTS = default_slots("en", "alexa")


def report(number, name, ok, details):
    line = f"CRITERION {number} {name}: {'PASS' if ok else 'FAIL'} ({details})"
    print(line)
    assert ok, line


# --------------------------------------------------------------- criterion 1

def test_criterion_1_distance_correctness():
    rng = np.random.default_rng(101)
    symbols = table_symbols(inventory()) + [BOUNDARY]
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(0, 7))
        n = int(rng.integers(0 if m else 1, 7))
        w1 = [symbols[i] for i in rng.integers(len(symbols), size=m)]
        w2 = [symbols[i] for i in rng.integers(len(symbols), size=n)]
        got = english_dist(w1, w2)
        want = brute_force_english(w1, w2)
        worst = max(worst, abs(got - want))
    english_exact = worst <= 1e-12

    chinese_ok = True
    for _ in range(1000):
        g1 = random_genome(ChineseGenome, 12, rng)
        g2 = random_genome(ChineseGenome, 12, rng)
        w1, w2 = decode_chinese(g1), decode_chinese(g2)
        d, d_t = chinese_dist(w1, w2), chinese_dist(w2, w1)
        chinese_ok &= abs(d - d_t) <= 1e-12 and 0.0 <= d < 1.0
    elapsed = time.perf_counter() - start
    report(1, "distance-correctness",
           english_exact and chinese_ok and elapsed < 5.0,
           f"en max err {worst:.2e}, zh symmetry/bounds ok={chinese_ok}, "
           f"{elapsed:.2f}s < 5s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_pareto_correctness():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    all_equal = True
    for pop in range(100):
        # mix of continuous and tied coordinates so tie handling is exercised
        if pop % 2:
            wake = rng.integers(0, 11, size=200) / 10.0
            diss = rng.integers(0, 11, size=200) / 10.0
        else:
            wake = rng.random(200)
            diss = rng.random(200)
        objs = [Objectives(float(a), float(b)) for a, b in zip(wake, diss)]
        got = non_dominated_front(objs)
        want = brute_force_front(objs)
        all_equal &= got == want
    elapsed = time.perf_counter() - start
    report(2, "pareto-correctness", all_equal and elapsed < 2.0,
           f"100 populations of 200 exact={all_equal}, {elapsed:.2f}s < 2s")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_shapley_exactness():
    rng = np.random.default_rng(303)
    worst_shap = worst_identity = 0.0
    for _ in range(50):
        ensemble = random_ensemble(rng)
        x = rng.normal(size=ensemble.n_features)
        phi = shap_values(ensemble, x[None])[0]
        expected = brute_force_shap(ensemble, x)
        worst_shap = max(worst_shap, float(np.max(np.abs(phi - expected))))
        worst_identity = max(worst_identity,
                             abs(base_value(ensemble) + phi.sum()
                                 - ensemble.margin(x[None])[0]))
    report(3, "shapley-exactness",
           worst_shap <= 1e-9 and worst_identity <= 1e-9,
           f"max |shap err| {worst_shap:.2e}, max identity err "
           f"{worst_identity:.2e}, both <= 1e-9")


# ------------------------------------------------------- criteria 4 through 8

@pytest.fixture(scope="module")
def desk_run():
    start = time.perf_counter()
    archive = run_search(7, 1007, population_size=100, generations=50,
                         trials=10)
    elapsed = time.perf_counter() - start
    return archive, elapsed


def test_criterion_4_generation_desk_scale(desk_run):
    archive, elapsed = desk_run
    high = [c for c in archive.candidates.values()
            if c.objectives.wake_rate >= 0.8]
    words = {c.word for c in high}
    report(4, "generation-at-desk-scale",
           len(words) >= 20 and elapsed < 60.0,
           f"{len(words)} distinct words with wake rate >= 0.8 "
           f"(need 20), {elapsed:.1f}s < 60s single-threaded")


def test_criterion_5_proxy_classifier(desk_run):
    archive, _ = desk_run
    dataset = build_dataset(ArchiveWords(archive, SLOTS), seed=7)
    accuracy = cross_validate(dataset, folds=10, seed=7)
    report(5, "proxy-classifier", accuracy >= 0.80,
           f"10-fold cv accuracy {accuracy:.4f} >= 0.80 "
           f"(reference accuracy band 85.68-94.52%)")


def test_criterion_6_closed_loop_explanation():
    hits = 0
    for seed in range(1, 11):
        words = ArchiveWords(run_search(seed, 1000 + seed), SLOTS)
        dataset = build_dataset(words, seed=seed)
        model = train_gbdt(dataset.features, dataset.labels)
        ranked = rank_decisive_units(explain_archive(words, model, beta=0.8))
        top3 = [u.symbol for u in ranked[:3]]
        hits += "K" in top3
    report(6, "closed-loop-explanation", hits >= 8,
           f"max-weight unit K in top-3 decisive units in {hits}/10 seeds "
           f"(need >= 8)")


@pytest.fixture(scope="module")
def mitigation_run(desk_run):
    archive, _ = desk_run
    start = time.perf_counter()
    triple = assemble_triple(ArchiveWords(archive, SLOTS),
                             MitigateConfig(), seed=7)
    conventional, fuzzy, collective = (triple.conventional, triple.fuzzy,
                                       triple.collective)
    original = train_original(conventional.train)
    strengthened = strengthen(fuzzy, conventional.train)
    fr_original = fuzzy_rate(original, collective)
    fr_strengthened = fuzzy_rate(strengthened, collective)
    report_original = evaluate(original, conventional.test, fr_original)
    report_strengthened = evaluate(strengthened, conventional.test,
                                   fr_strengthened)
    elapsed = time.perf_counter() - start
    return dict(archive=archive, fuzzy=fuzzy, strengthened=strengthened,
                fr_original=fr_original, fr_strengthened=fr_strengthened,
                report_original=report_original,
                report_strengthened=report_strengthened, elapsed=elapsed)


def test_criterion_7_mitigation(mitigation_run):
    m = mitigation_run
    archive = m["archive"]
    high = m["fuzzy"].take([archive.candidates[text].objectives.wake_rate
                            >= 0.8 for text in m["fuzzy"].texts])
    rejected = int(np.sum(m["strengthened"].predict(high.features) == 0)) \
        / len(high)
    ratio_ok = (m["fr_original"] > 0
                and m["fr_strengthened"] <= 0.2 * m["fr_original"])
    acc_ok = (m["report_strengthened"].accuracy
              >= m["report_original"].accuracy - 0.01)
    report(7, "mitigation",
           ratio_ok and acc_ok and rejected >= 0.97 and m["elapsed"] < 30.0,
           f"fuzzy rate {m['fr_original']:.4f} -> {m['fr_strengthened']:.4f} "
           f"(ratio {m['fr_strengthened'] / m['fr_original']:.2f} <= 0.2), "
           f"accuracy {m['report_original'].accuracy:.4f} -> "
           f"{m['report_strengthened'].accuracy:.4f}, high-rate rejected "
           f"{rejected:.3f} >= 0.97, {m['elapsed']:.1f}s < 30s")


def test_criterion_8_screening_coverage(desk_run):
    archive, _ = desk_run
    fixture = ArchiveWords(archive, SLOTS)
    dataset = build_dataset(fixture, seed=7)
    model = train_gbdt(dataset.features, dataset.labels)
    ranked = rank_decisive_units(explain_archive(fixture, model))
    top3 = screening_coverage(fixture.fuzzy.units, ranked, 3)

    monotone = True
    for seed in (7, 8, 9):   # several corpora, including the fixture
        corpus = run_search(seed, 1000 + seed) if seed != 7 else archive
        corpus_words = ArchiveWords(corpus, SLOTS)
        ds = build_dataset(corpus_words, seed=seed)
        proxy = train_gbdt(ds.features, ds.labels)
        corpus_ranked = rank_decisive_units(
            explain_archive(corpus_words, proxy))
        series = [screening_coverage(corpus_words.fuzzy.units,
                                     corpus_ranked, n)
                  for n in range(1, 8)]
        monotone &= series == sorted(series)
    report(8, "screening-coverage", top3 >= 0.90 and monotone,
           f"fixture top-3 coverage {top3:.3f} >= 0.90, "
           f"coverage monotone in n on all corpora={monotone}")


# --------------------------------------------------------------- criterion 9

# the outputs compared, by their path under the run's root
OUTPUTS = ("generate/archive.json", "generate/summary.tsv",
           "explain/model.json", "explain/explain_report.json",
           "explain/factors.tsv", "explain/grouping.tsv",
           "mitigate/mitigation_report.json", "mitigate/mitigation_report.txt",
           "mitigate/detector_original.json",
           "mitigate/detector_strengthened.json")


def test_criterion_9_determinism(fixture_config, tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    for root in runs:
        assert set(run_stages(fixture_config, root).values()) == {0}
    mismatched = [name for name in OUTPUTS
                  if (runs[0] / name).read_bytes()
                  != (runs[1] / name).read_bytes()]
    report(9, "determinism", not mismatched,
           "byte-identical archive, summary, model, reports and detectors"
           if not mismatched else f"files differ: {mismatched}")
