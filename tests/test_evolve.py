import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fakewake.distance import DistanceConfig
from fakewake.errors import BelowFuzzyThreshold, OracleFailure
from fakewake.archive import Bucket, bucket
from fakewake.evolve import (EvolveConfig, FuzzyArchive, Objectives,
                             non_dominated_front, run)
from fakewake.genome import VariationConfig, decode_text, encode_english
from fakewake.oracle import wake_counts
from tests.conftest import make_detector, run_search


def dominates(a, b):
    """Strict Pareto dominance under maximization."""
    ge = a.wake_rate >= b.wake_rate and a.dissimilarity >= b.dissimilarity
    gt = a.wake_rate > b.wake_rate or a.dissimilarity > b.dissimilarity
    return ge and gt


def brute_force_front(objectives):
    out = []
    for i, a in enumerate(objectives):
        if not any(dominates(b, a) for j, b in enumerate(objectives) if j != i):
            out.append(i)
    return out


def test_dominates_examples():
    assert dominates(Objectives(0.9, 0.3), Objectives(0.5, 0.1))
    assert not dominates(Objectives(0.9, 0.1), Objectives(0.5, 0.3))
    assert not dominates(Objectives(0.5, 0.2), Objectives(0.5, 0.2))


def test_front_simple():
    objs = [Objectives(1, 2), Objectives(2, 1), Objectives(0, 0)]
    assert non_dominated_front(objs) == [0, 1]


def test_front_all_equal():
    objs = [Objectives(0.5, 0.5)] * 4
    assert non_dominated_front(objs) == [0, 1, 2, 3]


def test_front_empty_rejected():
    with pytest.raises(ValueError):
        non_dominated_front([])


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_front_matches_brute_force(points):
    objs = [Objectives(float(a), float(b)) for a, b in points]
    assert non_dominated_front(objs) == sorted(brute_force_front(objs))


def test_front_order_independent():
    rng = np.random.default_rng(0)
    objs = [Objectives(float(a), float(b))
            for a, b in rng.integers(0, 4, size=(30, 2))]
    base = {objs[i] for i in non_dominated_front(objs)}
    perm = list(rng.permutation(len(objs)))
    shuffled = [objs[i] for i in perm]
    again = {shuffled[i] for i in non_dominated_front(shuffled)}
    assert base == again


def test_bucket_boundaries():
    assert bucket(0.3) is Bucket.LOW
    assert bucket(0.4) is Bucket.MEDIUM
    assert bucket(0.7) is Bucket.MEDIUM
    assert bucket(0.8) is Bucket.HIGH
    assert bucket(1.0) is Bucket.HIGH
    assert bucket(0.1) is Bucket.LOW


def test_bucket_below_threshold():
    with pytest.raises(BelowFuzzyThreshold):
        bucket(0.0)
    with pytest.raises(BelowFuzzyThreshold):
        bucket(0.04)


class ConstantOracle:
    def __init__(self, value):
        self.value = value
        self.queries = 0

    def query(self, word, trials=1):
        self.queries += trials
        return trials if self.value else 0


def small_run(oracle, seed=3, **kwargs):
    cfg = dict(population_size=12, generations=4, trials=5)
    cfg.update(kwargs)
    wake = encode_english("alexa", 7)
    return run(wake, "alexa", oracle, EvolveConfig(**cfg), VariationConfig(),
               DistanceConfig(), seed=seed)


def test_always_true_archives_everything_but_wake_word():
    archive = small_run(ConstantOracle(True))
    assert archive.candidates
    assert "alexa" not in archive.candidates     # dissimilarity 0
    for cand in archive.candidates.values():
        assert cand.objectives.wake_rate == 1.0
        assert cand.objectives.dissimilarity > 0


def test_always_false_archives_nothing():
    archive = small_run(ConstantOracle(False))
    assert not archive.candidates
    assert archive.rejected


def test_memoization_query_budget():
    oracle = ConstantOracle(True)
    archive = small_run(oracle)
    distinct = len(archive.candidates) + len(archive.rejected) + 1  # + wake word
    assert oracle.queries == archive.query_count
    assert oracle.queries <= distinct * 5


def test_run_deterministic():
    a = run_search(seed=11, detector_seed=50, population_size=20,
                   generations=5, trials=5)
    b = run_search(seed=11, detector_seed=50, population_size=20,
                   generations=5, trials=5)
    assert a.to_json() == b.to_json()


class FlakyOracle:
    """Fails after a fixed number of trials."""

    def __init__(self, budget):
        self.budget = budget

    def query(self, word, trials=1):
        self.budget -= trials
        if self.budget < 0:
            raise OracleFailure("budget exhausted")
        return trials


def test_oracle_failure_preserves_partial_archive():
    with pytest.raises(OracleFailure) as excinfo:
        small_run(FlakyOracle(30), generations=6)
    partial = excinfo.value.partial_archive
    assert partial is not None
    assert partial.candidates      # first generation archived something


class QueriedWords(FlakyOracle):
    """A FlakyOracle that never fails and records the words it is asked."""

    def __init__(self):
        super().__init__(10**9)
        self.words = []

    def query(self, word, trials=1):
        self.words.append(word)
        return super().query(word, trials)


@functools.cache
def uninterrupted_flaky_run():
    """The run that the budgets below cut short: its archive JSON, the words
    it queried in order, and its query_count after each generation."""
    oracle = QueriedWords()
    archive = small_run(oracle, generations=6)
    counts = [0] + [small_run(QueriedWords(), generations=g).query_count
                    for g in range(1, 7)]
    return archive.to_json(), oracle.words, counts


@settings(max_examples=25, deadline=None)
@given(budget=st.integers(1, 150))
@example(budget=29)
@example(budget=61)
@example(budget=97)
def test_oracle_failure_partial_archive_is_exact(budget):
    with pytest.raises(OracleFailure) as excinfo:
        small_run(FlakyOracle(budget), generations=6)
    partial = excinfo.value.partial_archive.to_json()
    full, queried, counts = uninterrupted_flaky_run()
    assert counts[-1] > 150
    # every word that finished its 5 trials counts; the failed one does not
    done = budget // 5
    assert partial["run"]["query_count"] == 5 * done
    assert partial["run"]["generations_run"] == max(
        g for g, n in enumerate(counts) if n <= 5 * done)
    # exactly the words evaluated before the failure, as the full run has them
    evaluated = set(queried[:done])
    for key in ("candidates", "rejected"):
        assert partial[key] == [c for c in full[key]
                                if c["word"] in evaluated]


class InterruptingOracle(FlakyOracle):
    """Raises ``KeyboardInterrupt`` where ``FlakyOracle`` fails."""

    def query(self, word, trials=1):
        try:
            return super().query(word, trials)
        except OracleFailure:
            raise KeyboardInterrupt from None


@settings(max_examples=25, deadline=None)
@given(budget=st.integers(1, 150))
@example(budget=29)
@example(budget=97)
def test_interrupt_partial_archive_equals_the_oracle_failure_one(budget):
    """An interrupt at a query leaves the archive that an oracle failure
    at the same query leaves."""
    with pytest.raises(OracleFailure) as failure:
        small_run(FlakyOracle(budget), generations=6)
    with pytest.raises(KeyboardInterrupt) as interrupt:
        small_run(InterruptingOracle(budget), generations=6)
    assert interrupt.value.partial_archive.to_json() == \
        failure.value.partial_archive.to_json()


class QueryOnly:
    """Exposes only ``query``, so the search queries word by word."""

    def __init__(self, oracle):
        self.query = oracle.query


@pytest.mark.parametrize("seed", [1, 4, 21])
def test_batched_search_equals_per_word_search(seed):
    def search(wrap):
        detector = make_detector()
        return run(encode_english("alexa", 7), "alexa", wrap(detector),
                   EvolveConfig(population_size=16, generations=5, trials=5),
                   VariationConfig(), DistanceConfig(), seed=seed)

    batched = search(lambda d: d)
    assert batched.to_json() == search(QueryOnly).to_json()


class VowelOracle:
    """Wakes on every trial of a vowel; records the words it is asked."""

    def __init__(self):
        self.words = []

    def query(self, word, trials=1):
        self.words.append(word)
        return trials if word in {"a", "e", "i", "o", "u"} else 0


@pytest.mark.parametrize("seed", [2, 6, 8])
def test_one_letter_search_never_queries_the_empty_word(monkeypatch, seed):
    """A one-gene English genome is all spaces when its gene is the space,
    and decodes to "". That word is scored (0, 0) without a query: the
    oracle is asked each nonempty word once, and the query count is the
    trials of exactly the words it was asked."""
    import fakewake.evolve as evolve_mod

    empty = []

    def spy(genome):
        text = decode_text(genome)
        if not text:
            empty.append(genome)
        return text

    monkeypatch.setattr(evolve_mod, "decode_text", spy)
    oracle = VowelOracle()
    archive = run(encode_english("a", 1), "a", oracle,
                  EvolveConfig(population_size=12, generations=6, trials=3),
                  VariationConfig(), DistanceConfig(), seed=seed)
    assert empty                      # the seed does reach an empty word
    assert "" not in oracle.words
    assert len(oracle.words) == len(set(oracle.words))
    assert archive.query_count == 3 * len(oracle.words)
    assert archive.candidates
    assert "" not in archive.candidates and "" not in archive.rejected


def test_archive_roundtrip(tmp_path):
    archive = small_run(ConstantOracle(True))
    path = tmp_path / "archive.json"
    archive.save(path)
    loaded = FuzzyArchive.load(path)
    assert loaded.to_json() == archive.to_json()


def test_archive_sorted_by_dissimilarity():
    archive = small_run(ConstantOracle(True))
    cands = archive.sorted_candidates()
    gaps = [c.objectives.dissimilarity for c in cands]
    assert gaps == sorted(gaps, reverse=True)


def test_candidate_invariants(fixture_archive):
    assert len(fixture_archive.candidates) >= 20
    for cand in fixture_archive.candidates.values():
        assert cand.objectives.wake_rate >= 0.1
        assert cand.objectives.dissimilarity > 0
        assert cand.word
    words = [c.word for c in fixture_archive.candidates.values()]
    assert len(words) == len(set(words))


def test_config_validation():
    with pytest.raises(ValueError):
        EvolveConfig(population_size=3)
    with pytest.raises(ValueError):
        EvolveConfig(generations=0)
    with pytest.raises(ValueError):
        EvolveConfig(trials=0)


def test_run_with_front_verification(monkeypatch):
    import fakewake.evolve as evolve_mod

    calls = []

    def checked_front(objectives):
        front = non_dominated_front(objectives)
        assert front == sorted(brute_force_front(objectives))
        calls.append(len(front))
        return front

    monkeypatch.setattr(evolve_mod, "non_dominated_front", checked_front)
    archive = run_search(seed=13, detector_seed=60, population_size=16,
                         generations=5, trials=5)
    assert archive.generations_run == 5
    assert len(calls) == 5


def test_each_archived_word_is_recorded_once(monkeypatch):
    """On the fixture search every archived or rejected word's record is
    built exactly once, when the oracle answers it."""
    import fakewake.evolve as evolve_mod

    built = {"candidates": 0, "rejected": 0}

    def counting(cls, key):
        def build(*args):
            built[key] += 1
            return cls(*args)
        return build

    monkeypatch.setattr(evolve_mod, "FuzzyCandidate",
                        counting(evolve_mod.FuzzyCandidate, "candidates"))
    monkeypatch.setattr(evolve_mod, "EvaluatedWord",
                        counting(evolve_mod.EvaluatedWord, "rejected"))
    archive = run_search()
    assert built == {"candidates": 295, "rejected": 388}
    assert len(archive.candidates) == 295 and len(archive.rejected) == 388


@settings(max_examples=30, deadline=None)
@given(population=st.integers(4, 12), generations=st.integers(1, 5),
       trials=st.integers(1, 5), seed=st.integers(0, 10**6),
       detector_seed=st.integers(0, 10**6), batched=st.booleans())
def test_archive_generation_is_the_generation_first_sent(
        population, generations, trials, seed, detector_seed, batched):
    """Each archived and rejected word carries the generation in which the
    search first sent it to the oracle, by ``query_many`` or word by word,
    and a candidate's genome decodes to its word."""
    import fakewake.evolve as evolve_mod

    sent = []      # the words of each generation's oracle call

    def recording(oracle, words, trials):
        sent.append(list(words))
        return wake_counts(oracle, words, trials)

    detector = make_detector(detector_seed)
    with mock.patch.object(evolve_mod, "wake_counts", recording):
        archive = run(encode_english("alexa", 7), "alexa",
                      detector if batched else QueryOnly(detector),
                      EvolveConfig(population_size=population,
                                   generations=generations, trials=trials),
                      VariationConfig(), DistanceConfig(), seed=seed)
    first_sent = {}
    for generation, words in enumerate(sent, start=1):
        for word in words:
            assert word not in first_sent
            first_sent[word] = generation
    assert len(sent) == archive.generations_run == generations
    for word, cand in archive.candidates.items():
        assert cand.generation_found == first_sent[word]
        assert decode_text(cand.genome) == word
    for word, rejected in archive.rejected.items():
        assert rejected.generation == first_sent[word]
