import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fakewake.distance import DistanceConfig
from fakewake.errors import BelowFuzzyThreshold, OracleFailure
from fakewake.evolve import (Bucket, EvolveConfig, FuzzyArchive, Objectives,
                             bucket, dominates, non_dominated_front, run)
from fakewake.genome import VariationConfig, encode_english
from tests.conftest import run_search


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
    base = {tuple(objs[i].as_tuple()) for i in non_dominated_front(objs)}
    perm = list(rng.permutation(len(objs)))
    shuffled = [objs[i] for i in perm]
    again = {tuple(shuffled[i].as_tuple())
             for i in non_dominated_front(shuffled)}
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

    def query(self, word):
        self.queries += 1
        return self.value


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
    """Fails after a fixed number of queries."""

    def __init__(self, budget):
        self.budget = budget

    def query(self, word):
        self.budget -= 1
        if self.budget < 0:
            raise OracleFailure("budget exhausted")
        return True


def test_oracle_failure_preserves_partial_archive():
    with pytest.raises(OracleFailure) as excinfo:
        small_run(FlakyOracle(30), generations=6)
    partial = excinfo.value.partial_archive
    assert partial is not None
    assert partial.candidates      # first generation archived something


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


def test_run_with_front_verification(monkeypatch):
    import fakewake.evolve as evolve_mod

    monkeypatch.setattr(evolve_mod, "VERIFY_FRONT", True)
    archive = run_search(seed=13, detector_seed=60, population_size=16,
                         generations=5, trials=5)
    assert archive.generations_run == 5
