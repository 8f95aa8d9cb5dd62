import math
import random
import shlex
import sys
import textwrap
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fakewake.distance import DistanceConfig
from fakewake.embedding import embedding_table, word_units
from fakewake.errors import (OracleFailure, OracleTimeout, ParseFailure,
                             ProtocolError)
from fakewake.evolve import EvolveConfig, run
from fakewake.genome import VariationConfig, encode_english
from fakewake.oracle import (_INC_LO, _SQ_LO, ExternalOracle,
                             SimulatedDetector, _lcg_int, _lcg_lanes,
                             _trial_seed, build_oracle, default_rng_random,
                             first_random)
from fakewake.params import OracleConfig
from fakewake.phonemes import LetterWord
from fakewake.pinyin import parse_pinyin


def always(reply):
    """An exec oracle that answers every line with ``reply``."""
    return closing(ExternalOracle(
        f"{sys.executable} -c 'import sys\nfor _ in sys.stdin: "
        f"print({reply}, flush=True)'", timeout=5.0))


def test_wake_rate_always_true():
    with always(1) as oracle:
        assert list(oracle.query_many(["alexa", "lexa"], 10)) == [10, 10]


def test_wake_rate_always_false():
    with always(0) as oracle:
        assert list(oracle.query_many(["alexa"], 10)) == [0]


def logistic(z):
    return 1.0 / (1.0 + math.exp(-z))


def test_detector_self_score():
    det = SimulatedDetector(target="alexa", seed=1)
    assert det.score("alexa") == pytest.approx(1.0)
    assert det.wake_probability("alexa") == pytest.approx(
        logistic((1.0 - 0.7) / 0.05))


def test_detector_self_rate_high():
    det = SimulatedDetector(target="alexa", seed=1)
    assert det.query("alexa", 10) >= 9


def test_detector_max_weight_unit_closed_form():
    weights = (0.08, 0.08, 0.08, 0.6, 0.08, 0.08)
    det = SimulatedDetector(target="alexa", unit_weights=weights, seed=1,
                            substitution_floor=1.0)
    # fourth phoneme is K, all others mismatch fully under a floor of 1
    score = det.score("th th th k")
    assert score == pytest.approx(0.6 * 1.0)


def test_detector_missing_units_contribute_zero():
    det = SimulatedDetector(target="alexa", seed=1)
    # single-phoneme word matches only position 0 at best
    assert det.score("u") <= 1 / 6 + 1e-9


def test_detector_reproducible_any_interleaving():
    a = SimulatedDetector(target="alexa", seed=99)
    b = SimulatedDetector(target="alexa", seed=99)
    words = ["alexa", "ileksur", "alexa", "blorp", "alexa", "ileksur"]
    seq_a = [a.query(w) for w in words]
    # query b grouped by word instead; per-word trial outcomes must agree
    grouped = {w: [b.query(w) for _ in range(words.count(w))]
               for w in sorted(set(words))}
    rebuilt, seen = [], {}
    for w in words:
        idx = seen.get(w, 0)
        rebuilt.append(grouped[w][idx])
        seen[w] = idx + 1
    assert seq_a == rebuilt


def test_detector_decisive_ground_truth():
    """Mismatching the heavy unit hurts strictly more than the lightest."""
    weights = (0.08, 0.08, 0.08, 0.6, 0.08, 0.08)
    det = SimulatedDetector(target="alexa", unit_weights=weights, seed=1)
    emb = embedding_table()
    floor = det.substitution_floor
    units = [sym for _, sym in det._target_units]
    # closed-form scores: perfect except one substituted unit
    def score_missing(idx, sub):
        dist = max(emb.unit_feature_distance("phoneme", units[idx], sub), floor)
        return 1.0 - weights[idx] * dist

    heavy = score_missing(3, "TH")
    light = score_missing(1, "TH")
    assert logistic((heavy - 0.7) / 0.05) < logistic((light - 0.7) / 0.05)


def test_detector_wake_probability_monotone_in_similarity():
    """Weakly raising every per-unit similarity never lowers wake odds."""
    det = SimulatedDetector(target="alexa", seed=1)
    nested = ["th th th th th th", "th th th k", "al th xth",
              "alex th", "aleksa", "alexa"]
    probs = [det.wake_probability(w) for w in nested]
    scores = [det.score(w) for w in nested]
    assert scores == sorted(scores)
    assert probs == sorted(probs)


def test_detector_weight_validation():
    """The detector checks the weight count, which needs its target; the
    block checks the sum."""
    with pytest.raises(ValueError):
        SimulatedDetector(target="alexa", unit_weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        OracleConfig(unit_weights=[0.5, 0.2, 0.1, 0.1, 0.05, 0.2])


def test_detector_parse_failure():
    det = SimulatedDetector(target="xiǎo dù", language="zh", seed=1)
    for _ in range(2):               # a failed word is not cached
        with pytest.raises(ParseFailure):
            det.query("not pinyin", 3)
    assert "not pinyin" not in det._trial_counts


def test_detector_english_parse_rules():
    """A symbol outside a-z and space fails to parse, and the word is not
    cached; an empty word, or one of spaces alone, has no units."""
    det = SimulatedDetector(target="alexa", seed=1)
    for word in ["Alexa", "alexa!"]:
        for _ in range(2):
            with pytest.raises(ParseFailure):
                det.query(word, 3)
        assert word not in det._trial_counts
    assert det.score("") == 0.0
    assert det.score("   ") == 0.0
    with pytest.raises(ParseFailure):
        SimulatedDetector(target="")


@settings(max_examples=60, deadline=None)
@given(word=st.sampled_from(["aleksa", "alehsa", "alexu", "th th th k"]),
       splits=st.lists(st.integers(1, 7), min_size=1, max_size=6))
def test_detector_batch_equals_single_trials(word, splits):
    total = sum(splits)
    single = SimulatedDetector(target="alexa", seed=5)
    outcomes = [single.query(word) for _ in range(total)]
    # the per-trial draws the detector has always made
    prob = single.wake_probability(word)
    assert outcomes == [
        int(np.random.default_rng(_trial_seed(5, word, t)).random() < prob)
        for t in range(total)]
    assert SimulatedDetector(target="alexa", seed=5).query(word, total) \
        == sum(outcomes)
    split = SimulatedDetector(target="alexa", seed=5)
    start = 0
    for n in splits:
        assert split.query(word, n) == sum(outcomes[start:start + n])
        start += n


def test_detector_scores_each_word_once(monkeypatch):
    scored = []
    score = SimulatedDetector.score
    monkeypatch.setattr(SimulatedDetector, "score",
                        lambda self, word: scored.append(word)
                        or score(self, word))
    det = SimulatedDetector(target="alexa", seed=1)
    for word in ["alexa", "alehsa", "alexa", "alehsa", "alexa"]:
        det.query(word, 3)
        det.query(word)
    assert sorted(scored) == ["alehsa", "alexa"]


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_SEEDS),
                min_size=1, max_size=48))
@example(EDGE_SEEDS)
@example([])
def test_default_rng_random_matches_numpy(seeds):
    assert default_rng_random(seeds).tolist() == \
        [np.random.default_rng(s).random() for s in seeds]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_SEEDS),
                min_size=1, max_size=48))
@example(EDGE_SEEDS)
def test_first_random_matches_numpy(seeds):
    draws = [first_random(s) for s in seeds]
    assert draws == [np.random.default_rng(s).random() for s in seeds]
    assert draws == default_rng_random(seeds).tolist()


def test_first_random_matches_the_batch_draw_on_many_seeds():
    """The scalar draw, the vectorised one and numpy's own generator agree
    on 20,000 random seeds, the edge seeds, seeds whose high word is 0 and
    seeds with the top bit set."""
    rng = random.Random(33)
    seeds = [rng.getrandbits(64) for _ in range(20000)]
    seeds += EDGE_SEEDS + [s >> 32 for s in seeds[:1000]]
    seeds += [s | 1 << 63 for s in seeds[:1000]]
    draws = [first_random(s) for s in seeds]
    assert draws == default_rng_random(seeds).tolist()
    assert draws == [np.random.default_rng(s).random() for s in seeds]


M64 = 2**64 - 1
# a state word whose product with the squared multiplier's low word is
# 2**64 - 1: the lower words of the LCG step then carry for every stream
CARRY_WORD = M64 * pow(_SQ_LO, -1, 2**64) & M64
STATE_WORD = st.integers(0, M64) | st.sampled_from(
    [0, 1, M64, 2**63, 2**63 - 1, 2**32 - 1, 2**32, CARRY_WORD])


def carries(u1: int, u3: int) -> bool:
    """Whether the lower words of the LCG step's two products sum past
    2**64."""
    inc_lo = (u3 << 1 | 1) & M64
    return (u1 * _SQ_LO & M64) + (inc_lo * _INC_LO & M64) > M64


# all-zero, all-ones and top-bit words, then two states that carry
EDGE_STATES = [(0, 0, 0, 0), (M64,) * 4, (2**63,) * 4,
               (M64, CARRY_WORD, 2**63, 0), (0, CARRY_WORD, M64, M64)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[STATE_WORD] * 4), min_size=1, max_size=16))
@example(EDGE_STATES)
def test_lcg_lanes_equals_the_int_step(states):
    """The uint64-lane LCG step gives the Python-int one's upper and
    lower words, word for word, on the edge words and on lower words whose
    sum carries."""
    assert all(carries(u1, u3) for _, u1, _, u3 in EDGE_STATES[3:])
    upper, lower = _lcg_lanes(*(np.array(words, dtype=np.uint64)
                                for words in zip(*states)))
    assert upper.dtype == lower.dtype == np.uint64
    assert list(zip(upper.tolist(), lower.tolist())) == \
        [_lcg_int(*state) for state in states]


@settings(max_examples=40, deadline=None)
@given(words=st.lists(st.sampled_from(["aleksa", "alehsa", "alexu",
                                       "th th th k", "alexa"]),
                      max_size=12),
       trials=st.integers(1, 10),
       before=st.sampled_from([None, "aleksa", "alexa"]))
@example(words=["alexa"], trials=1, before=None)
@example(words=["aleksa"], trials=1, before="aleksa")
@example(words=[], trials=3, before="alexa")
def test_query_many_equals_per_word_queries(words, trials, before):
    batched = SimulatedDetector(target="alexa", seed=8)
    single = SimulatedDetector(target="alexa", seed=8)
    if before is not None:
        assert batched.query(before, 3) == single.query(before, 3)
    assert batched.query_many(words, trials) == \
        [single.query(w, trials) for w in words]
    assert batched._trial_counts == single._trial_counts


@pytest.mark.parametrize("trials", [1, 10])
def test_query_many_of_no_words_draws_nothing(monkeypatch, trials):
    det = SimulatedDetector(target="alexa", seed=1)
    det.query("alexa", 3)
    counts = dict(det._trial_counts)

    def no_draw(seeds):
        raise AssertionError("drew for no words")

    monkeypatch.setattr("fakewake.oracle.default_rng_random", no_draw)
    assert det.query_many([], trials) == []
    assert det._trial_counts == counts


def test_query_many_scores_each_word_once(monkeypatch):
    scored = []
    score = SimulatedDetector.score
    monkeypatch.setattr(SimulatedDetector, "score",
                        lambda self, word: scored.append(word)
                        or score(self, word))
    det = SimulatedDetector(target="alexa", seed=1)
    det.query("alexa")
    words = ["alexa", "alehsa", "alexu", "alehsa"] * 3
    det.query_many(words, 10)
    assert sorted(scored) == ["alehsa", "alexa", "alexu"]


STUB = textwrap.dedent("""
    import sys
    for line in sys.stdin:
        word = line.strip()
        if word == "crash":
            sys.exit(1)
        if word == "weird":
            print("yes"); sys.stdout.flush(); continue
        if word == "slow":
            import time; time.sleep(5)
        print("1" if "k" in word else "0")
        sys.stdout.flush()
""")


def make_stub(tmp_path, name="stub.py"):
    path = tmp_path / name
    path.write_text(STUB)
    return f"{sys.executable} {path}"


def test_external_oracle_wire_protocol(tmp_path):
    with closing(ExternalOracle(make_stub(tmp_path))) as oracle:
        assert oracle.query("ki") == 1
        assert oracle.query("ao") == 0


def test_external_oracle_counts_wakes_in_a_batch(tmp_path):
    with closing(ExternalOracle(make_stub(tmp_path))) as oracle:
        assert oracle.query("ki", 5) == 5
        assert oracle.query("ao", 3) == 0
        assert oracle.query("ki") == 1


def test_external_oracle_writes_batch_before_reading(tmp_path):
    # answers 1 only if its first read returned all ten lines; ten short
    # lines are far below PIPE_BUF, so one write arrives whole
    path = tmp_path / "batch.py"
    path.write_text(textwrap.dedent("""
        import os
        first = os.read(0, 65536).count(b"\\n")
        os.write(1, (b"1\\n" if first == 10 else b"0\\n") * first)
        while chunk := os.read(0, 65536):
            os.write(1, b"0\\n" * chunk.count(b"\\n"))
    """))
    command = f"{sys.executable} {path}"
    with closing(ExternalOracle(command, timeout=5.0)) as oracle:
        assert oracle.query("ki", 10) == 10


@pytest.mark.parametrize("bad", ["yes", ""])
def test_external_oracle_bad_reply_mid_batch(tmp_path, bad):
    # the third reply of the batch is bad; the two after it must never be
    # read as answers to a later query
    path = tmp_path / "midbatch.py"
    path.write_text(textwrap.dedent("""
        import sys
        for n, line in enumerate(sys.stdin):
            print(sys.argv[1] if n == 2 else "1", flush=True)
    """))
    command = f"{sys.executable} {path} {shlex.quote(bad)}"
    with closing(ExternalOracle(command, timeout=5.0)) as oracle:
        with pytest.raises(ProtocolError):
            oracle.query("ki", 5)
        with pytest.raises(OracleFailure) as excinfo:
            oracle.query("ki", 2)
        assert excinfo.type is OracleFailure


def test_external_oracle_protocol_error(tmp_path):
    with closing(ExternalOracle(make_stub(tmp_path))) as oracle:
        with pytest.raises(ProtocolError):
            oracle.query("weird")


def test_external_oracle_timeout(tmp_path):
    with closing(ExternalOracle(make_stub(tmp_path), timeout=0.3)) as oracle:
        with pytest.raises(OracleTimeout):
            oracle.query("slow")


def test_external_oracle_late_reply_is_not_misattributed(tmp_path):
    # the first reply arrives after the timeout; it must not be read as
    # the answer to the next query
    path = tmp_path / "late.py"
    path.write_text(textwrap.dedent("""
        import sys, time
        for n, line in enumerate(sys.stdin):
            if n == 0:
                time.sleep(0.4)
            print("1" if n == 0 else "0")
            sys.stdout.flush()
    """))
    command = f"{sys.executable} {path}"
    with closing(ExternalOracle(command, timeout=0.2)) as oracle:
        with pytest.raises(OracleTimeout):
            oracle.query("first")
        for word in ("second", "third"):
            with pytest.raises(OracleFailure) as excinfo:
                oracle.query(word)
            assert excinfo.type is OracleFailure


DOUBLE = textwrap.dedent("""
    import os, sys
    for line in sys.stdin:
        os.write(1, (b"1\\n" if "k" in line else b"0\\n") * 2)
""")


def test_external_oracle_unrequested_reply_is_a_protocol_error(tmp_path):
    # every reply comes twice, in one write; the surplus reply to "ki" is
    # buffered when its count would be yielded, so it fails that query and
    # never answers the query for "zzz", which the stub never wakes on
    path = tmp_path / "double.py"
    path.write_text(DOUBLE)
    command = f"{sys.executable} {path}"
    with closing(ExternalOracle(command, timeout=5.0)) as oracle:
        with pytest.raises(ProtocolError, match="replied to no query"):
            oracle.query("ki")
        with pytest.raises(OracleFailure) as excinfo:
            oracle.query("zzz")
        assert excinfo.type is OracleFailure


@pytest.mark.parametrize("words", [["ki"], ["ki", "ao", "ki"]])
def test_surplus_replies_in_a_call_are_a_protocol_error(tmp_path, words):
    # the whole call's replies, the first line's twice, in one write: the
    # surplus is buffered before the first count is yielded
    path = tmp_path / "surplus.py"
    path.write_text(textwrap.dedent("""
        import os
        lines = os.read(0, 65536).split(b"\\n")[:-1]
        os.write(1, b"1\\n" + b"".join(b"1\\n" if b"k" in line else b"0\\n"
                                      for line in lines))
        os.read(0, 1)
    """))
    with closing(ExternalOracle(f"{sys.executable} {path}",
                                timeout=5.0)) as oracle:
        counts = oracle.query_many(words, 3)
        with pytest.raises(ProtocolError, match="replied to no query"):
            next(counts)


def test_reply_between_calls_is_a_protocol_error(tmp_path):
    # the stub sends one more line a while after its reply: the next call
    # finds it waiting and fails before it sends a line
    path = tmp_path / "late_extra.py"
    path.write_text(textwrap.dedent("""
        import sys, time
        for line in sys.stdin:
            print(1, flush=True)
            time.sleep(0.3)
            print(1, flush=True)
    """))
    with closing(ExternalOracle(f"{sys.executable} {path}",
                                timeout=5.0)) as oracle:
        assert oracle.query("ki") == 1
        time.sleep(1.0)
        with pytest.raises(ProtocolError, match="replied to no query"):
            oracle.query_many(["ao"], 1)


def test_external_oracle_process_exit(tmp_path):
    with closing(ExternalOracle(make_stub(tmp_path), timeout=2.0)) as oracle:
        with pytest.raises(OracleFailure):
            oracle.query("crash")
        with pytest.raises(OracleFailure):
            oracle.query("ki")


def test_external_oracle_bad_command():
    with pytest.raises(OracleFailure):
        ExternalOracle("/nonexistent/not-a-binary")


PERF_STUB = (Path(__file__).resolve().parents[1] / "perfbench"
             / "oracle_stub.py")
FIXTURE_BLOCK = OracleConfig(decisive_unit=3, decisive_weight=0.6, seed=1003)


def perf_stub():
    """The line-protocol stub behind ``FIXTURE_BLOCK``'s detector."""
    return closing(ExternalOracle(
        f"{sys.executable} {PERF_STUB} --language en --wake-word alexa "
        "--decisive-unit 3 --decisive-weight 0.6 --seed 1003"))


def test_query_many_past_the_pipe_buffer_equals_per_word_queries():
    """A population of 1,000 words at 10 trials sends more than the 64 KiB
    a pipe holds, so the writes interleave with the reads; every count
    equals the detector's ``query`` of the word."""
    rng = np.random.default_rng(5)
    words = list(dict.fromkeys(
        "".join(rng.choice(list("abcdeklsx"), 7)) for _ in range(1100)))
    words = words[:1000]
    assert len(words) == 1000
    assert sum(len(w) + 1 for w in words) * 10 > 65536
    detector, _ = build_oracle(FIXTURE_BLOCK, "en", "alexa", 0)
    expected = [detector.query(word, 10) for word in words]
    assert 0 < sum(expected) < 10 * len(words)
    with perf_stub() as oracle:
        assert list(oracle.query_many(words, 10)) == expected


def test_query_many_reads_while_it_writes(tmp_path):
    """Both directions past what a pipe holds: 210 KB of lines go out while
    the stub writes 410 KB of padded replies. A parent that wrote all its
    lines before reading would block on its full stdin while the stub
    blocks on its full stdout."""
    path = tmp_path / "padded.py"
    path.write_text(textwrap.dedent("""
        import sys
        for line in sys.stdin:
            print(("1" if "k" in line else "0").ljust(40), flush=True)
    """))
    words = [f"{'k' if n % 3 else 'a'}{n:019d}" for n in range(1000)]
    command = f"{sys.executable} {path}"
    with closing(ExternalOracle(command, timeout=5.0)) as oracle:
        assert list(oracle.query_many(words, 10)) == \
            [10 if "k" in word else 0 for word in words]


def test_query_many_again_after_zip_stops_reading(tmp_path):
    """``zip`` stops at its shorter input and leaves the counts suspended
    after the last word; closing them then owes no reply and keeps the
    process. Closed with a reply owed, they stop it."""
    with closing(ExternalOracle(make_stub(tmp_path), timeout=5.0)) as oracle:
        words = ["ki", "ao"]
        counts = oracle.query_many(words, 2)
        assert [n for _, n in zip(words, counts)] == [2, 0]
        counts.close()
        assert list(oracle.query_many(["ao", "ki"], 3)) == [0, 3]
        counts = oracle.query_many(words, 2)
        assert next(counts) == 2
        counts.close()
        with pytest.raises(OracleFailure):
            oracle.query("ki")


def test_each_reply_has_its_own_timeout(tmp_path):
    """Each reply comes 0.6 s after the previous one against a timeout of
    1 s: the three take 1.8 s, and none times out."""
    path = tmp_path / "slow.py"
    path.write_text(textwrap.dedent("""
        import sys, time
        for line in sys.stdin:
            time.sleep(0.6)
            print(1, flush=True)
    """))
    command = f"{sys.executable} {path}"
    with closing(ExternalOracle(command, timeout=1.0)) as oracle:
        assert list(oracle.query_many(["a", "b", "c"], 1)) == [1, 1, 1]


@pytest.mark.parametrize("seed", [3, 8])
def test_exec_stub_search_equals_the_sim_search(seed):
    def search(oracle):
        return run(encode_english("alexa", 7), "alexa", oracle,
                   EvolveConfig(population_size=20, generations=6, trials=5),
                   VariationConfig(), DistanceConfig(), seed=seed).to_json()

    sim = search(build_oracle(FIXTURE_BLOCK, "en", "alexa", seed)[0])
    assert sim["candidates"]
    with perf_stub() as oracle:
        assert search(oracle) == sim


def test_build_oracle_exec_reads_only_command_and_timeout(tmp_path):
    """An exec block gives an ``ExternalOracle`` of its command and timeout
    and the spec ``exec:<command>``; it never parses the target, so even
    one that does not parse, with a decisive unit past its end, builds."""
    command = make_stub(tmp_path)
    block = OracleConfig(kind="exec", command=command, timeout=7.0,
                         target="al3xa!", decisive_unit=40, seed=5)
    oracle, spec = build_oracle(block, "en", "alexa", 3)
    with closing(oracle):
        assert isinstance(oracle, ExternalOracle)
        assert (oracle.command, oracle.timeout) == (command, 7.0)
        assert oracle.query("ki") == 1
    assert spec == f"exec:{command}"


def test_build_oracle_sim_defaults_and_keys():
    """The target defaults to the wake word and the oracle seed to the run
    seed + 1000; every key that is set reaches the detector."""
    detector, spec = build_oracle(OracleConfig(), "en", "alexa", 7)
    assert spec == "sim" and isinstance(detector, SimulatedDetector)
    assert (detector.target, detector.language, detector.seed) == \
        ("alexa", "en", 1007)
    assert detector.unit_weights == SimulatedDetector("alexa").unit_weights
    weights = [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]
    block = OracleConfig(target="alexa", unit_weights=weights, seed=5,
                         threshold=0.6, temperature=0.1,
                         substitution_floor=0.5)
    detector, _ = build_oracle(block, "en", "alexis", 7)
    assert (detector.target, detector.seed, detector.unit_weights,
            detector.threshold, detector.temperature,
            detector.substitution_floor) == \
        ("alexa", 5, tuple(weights), 0.6, 0.1, 0.5)


@pytest.mark.parametrize("language, wake, unit", [
    ("en", "alexa", 3), ("zh", "xiǎo dù xiǎo dù", 1)])
def test_build_oracle_decisive_weights(language, wake, unit):
    """The decisive-unit shortcut gives the weights of the formula the
    perfbench fixtures use: ``decisive_weight`` on the unit and equal
    shares of the rest on the others. One past the last unit raises."""
    word = parse_pinyin(wake) if language == "zh" else LetterWord(wake)
    n = len(word_units(word))
    expected = tuple(0.6 if i == unit else (1.0 - 0.6) / (n - 1)
                     for i in range(n))
    block = OracleConfig(decisive_unit=unit, decisive_weight=0.6)
    detector, _ = build_oracle(block, language, wake, 1)
    assert detector.unit_weights == expected
    with pytest.raises(ValueError) as exc:
        build_oracle(OracleConfig(decisive_unit=n), language, wake, 1)
    assert str(exc.value) == f"decisive_unit out of range 0..{n - 1}"
