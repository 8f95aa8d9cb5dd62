import hashlib
import importlib
import json
import math
import os
import pkgutil
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fakewake.archive import FuzzyArchive
from fakewake.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_config(path, **extra):
    doc = {
        "wake_word": "alexa",
        "language": "en",
        "seed": 3,
        "oracle": {"decisive_unit": 3, "decisive_weight": 0.6, "seed": 1003},
        "evolve": {"population_size": 20, "generations": 6, "trials": 5},
    }
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = write_config(root / "config.json")
    out = root / "gen"
    assert main(["generate", "--config", str(config),
                 "--output", str(out)]) == 0
    return root, config, out


@pytest.fixture(scope="module")
def zh_run(tmp_path_factory):
    """A small Mandarin run, with a collective of two-syllable words."""
    root = tmp_path_factory.mktemp("cli-zh")
    collective = root / "collective.txt"
    collective.write_text(
        "tiān māo\nxiǎo ài\nnǐ hǎo\nxiǎo lǒng\ndà jiā\nmíng tiān\n"
        "xiè xiè\nzǎo shàng\njīng líng\ntóng xué\n", encoding="utf-8")
    config = write_config(
        root / "config.json", wake_word="xiǎo dù", language="zh", seed=9,
        oracle={"decisive_unit": 1, "decisive_weight": 0.6, "seed": 2024},
        evolve={"population_size": 20, "generations": 4, "trials": 5},
        explain={"n_trees": 5, "folds": 2},
        mitigate={"n_pos": 40, "n_neg": 40,
                  "collective_path": str(collective)})
    out = root / "gen"
    assert main(["generate", "--config", str(config),
                 "--output", str(out)]) == 0
    return root, config, out


def test_generate_outputs(small_run):
    root, config, out = small_run
    assert (out / "archive.json").exists()
    assert (out / "summary.tsv").exists()
    assert (out / "run_manifest.json").exists()
    assert (out / "config_reference.json").exists()
    archive = FuzzyArchive.load(out / "archive.json")
    assert archive.candidates
    lines = (out / "summary.tsv").read_text().splitlines()
    assert lines[0] == "word\twake_rate\tbucket\tdissimilarity"
    gaps = [float(line.split("\t")[3]) for line in lines[1:]]
    assert gaps == sorted(gaps, reverse=True)


def test_generate_deterministic(small_run, tmp_path):
    root, config, out = small_run
    out2 = tmp_path / "gen2"
    assert main(["generate", "--config", str(config),
                 "--output", str(out2)]) == 0
    assert (out / "archive.json").read_bytes() == \
        (out2 / "archive.json").read_bytes()
    assert (out / "summary.tsv").read_bytes() == \
        (out2 / "summary.tsv").read_bytes()


def test_explain_and_mitigate(small_run, tmp_path):
    root, config, out = small_run
    exp = tmp_path / "exp"
    code = main(["explain", "--config", str(config),
                 "--archive", str(out / "archive.json"),
                 "--output", str(exp)])
    assert code == 0
    report = json.loads((exp / "explain_report.json").read_text())
    assert "cv_accuracy" in report
    assert report["separation"]["dissimilarity_score"]["non_fuzzy_median"] \
        > report["separation"]["dissimilarity_score"]["fuzzy_median"]
    assert (exp / "model.json").exists()
    assert (exp / "factors.tsv").exists()
    assert (exp / "grouping.tsv").exists()

    mit = tmp_path / "mit"
    code = main(["mitigate", "--config", str(config),
                 "--archive", str(out / "archive.json"),
                 "--output", str(mit)])
    assert code == 0
    report = json.loads((mit / "mitigation_report.json").read_text())
    for side in ("original", "strengthened"):
        for metric in ("false_positive_rate", "false_negative_rate",
                       "accuracy", "fuzzy_rate"):
            assert metric in report[side]
    assert report["strengthened"]["fuzzy_rate"] < \
        report["original"]["fuzzy_rate"]
    assert (mit / "datasets" / "conventional" / "train.tsv").exists()
    assert (mit / "datasets" / "conventional" / "test.tsv").exists()
    assert (mit / "datasets" / "fuzzy.tsv").exists()
    assert (mit / "datasets" / "collective.txt").exists()


def test_generate_requires_seed(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"wake_word": "alexa"}))
    assert main(["generate", "--config", str(config),
                 "--output", str(tmp_path / "out")]) == 2


def test_invalid_wake_word_exits_2(tmp_path):
    assert main(["generate", "--language", "zh", "--wake-word", "xāng dù",
                 "--seed", "1", "--output", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_exits_2(tmp_path):
    config = tmp_path / "config.json"
    for extra in ({"mystery": True}, {"threads": 1}):
        config.write_text(json.dumps({"wake_word": "alexa", "seed": 1,
                                      **extra}))
        assert main(["generate", "--config", str(config),
                     "--output", str(tmp_path / "out")]) == 2


def test_length_ratio_reaches_explain_and_mitigate(tmp_path):
    config = write_config(tmp_path / "config.json",
                          variation={"length_ratio": 3.0},
                          evolve={"population_size": 12, "generations": 4,
                                  "trials": 5},
                          explain={"n_trees": 10, "folds": 2},
                          mitigate={"collective_limit": 200})
    archive = str(tmp_path / "gen" / "archive.json")
    assert main(["generate", "--config", str(config),
                 "--output", str(tmp_path / "gen")]) == 0
    assert main(["explain", "--config", str(config), "--archive", archive,
                 "--output", str(tmp_path / "exp")]) == 0
    assert main(["mitigate", "--config", str(config), "--archive", archive,
                 "--output", str(tmp_path / "mit")]) == 0


OUT_OF_RANGE = [
    ("explain", {"explain": {"folds": 0, "n_trees": 5}}, "folds"),
    ("mitigate", {"mitigate": {"collective_limit": 0}}, "collective_limit"),
    ("mitigate", {"mitigate": {"n_pos": 3}}, "n_pos"),
    ("mitigate", {"mitigate": {"jitter": -1}}, "jitter"),
    ("generate", {"evolve": {"trials": 0}}, "trials"),
    ("generate", {"oracle": {"temperature": 0}}, "temperature"),
    ("generate", {"oracle": {"decisive_unit": 3, "decisive_weight": 2}},
     "decisive_weight"),
    ("generate", {"oracle": {"unit_weights": [1]}}, "unit_weights"),
    ("generate", {"oracle": {"kind": "exec", "command": "cat",
                             "timeout": -1}}, "timeout"),
    ("generate", {"seed": -5}, "seed"),
    ("generate", {"wake_word": ""}, "wake_word"),
    ("explain", {"explain": {"learning_rate": -1}}, "learning_rate"),
    ("generate", {"evolve": {"fuzzy_threshold": 0}}, "fuzzy_threshold"),
    ("generate", {"evolve": {"fuzzy_threshold": 2}}, "fuzzy_threshold"),
    ("explain", {"explain": {"beta": 0, "n_trees": 5}}, "beta"),
    ("explain", {"explain": {"beta": 1.5, "n_trees": 5}}, "beta"),
    ("mitigate", {"explain": {"beta": 0, "n_trees": 5},
                  "mitigate": {"collective_limit": 200}}, "beta"),
    ("mitigate", {"mitigate": {"screening_top_n": -1}}, "screening_top_n"),
    ("mitigate", {"mitigate": {"screening_top_n": 0}}, "screening_top_n"),
    ("generate", {"variation": {"mutation_rate": 2}}, "mutation_rate"),
    ("generate", {"distance": {"normalizer": 0}}, "normalizer"),
    ("mitigate", {"mitigate": {"detector": {"depth": 0}}}, "depth"),
    ("generate", {"explain": {"slots": -4}}, "slots"),
    ("generate", {"explain": {"slots": 0}}, "slots"),
    ("generate", {"variation": {"length_ratio": 0.5}}, "length_ratio"),
    ("generate", {"variation": {"length_ratio": 1e20}}, "length_ratio"),
    ("generate", {"variation": {"length_ratio": math.inf}}, "length_ratio"),
    ("generate", {"wake_word": " alexa"}, "wake_word"),
    ("generate", {"oracle": {"unit_weights": [1.5, -0.5, 0, 0, 0, 0]}},
     "unit_weights"),
    ("generate", {"oracle": {"decisive_unit": -1}}, "decisive_unit"),
    ("mitigate", {"mitigate": {"n_neg": 3}}, "n_neg"),
    # json reads the literals NaN and Infinity
    ("generate", {"oracle": {"temperature": math.nan}}, "temperature"),
    ("generate", {"distance": {"normalizer": math.nan}}, "normalizer"),
    ("generate", {"oracle": {"kind": "exec", "command": "cat",
                             "timeout": math.inf}}, "timeout"),
    ("generate", {"oracle": {"threshold": "inf"}}, "threshold"),
    ("generate", {"oracle": {"decisive_unit": 6}}, "decisive_unit"),
    ("generate", {"oracle": {"kind": "exec", "command": 'cat "x'}},
     "oracle"),
    ("generate", {"oracle": {"kind": "exec", "command": "  "}}, "oracle"),
    ("generate", {"oracle": {"kind": "exec", "command": "cat\0"}},
     "oracle"),
    # the shortcut would be ignored next to explicit weights
    ("generate", {"oracle": {"unit_weights": [0.5, 0.1, 0.1, 0.1, 0.1, 0.1],
                             "decisive_unit": 3}},
     "unit_weights or decisive_unit"),
]
# indices of the OUT_OF_RANGE cases that only generate rejects: the count
# of unit_weights and the upper bound of decisive_unit need the parsed target
LIBRARY_CHECKED = {7, 35}
# Every other case runs in every command. The ids number the cases in list
# order (extra<i>), and the cases at these indices were listed here last,
# so that the ids the others already had stay the same.
LISTED_LAST = {1, 2, 3, 5, 8, 39}
EVERY_COMMAND = [
    (extra, key) for i, (_, extra, key) in sorted(
        enumerate(OUT_OF_RANGE), key=lambda case: case[0] in LISTED_LAST)
    if i not in LIBRARY_CHECKED]


def assert_rejected(small_run, tmp_path, capsys, command, extra, key):
    """``command`` on the small config plus ``extra`` exits 2, names
    ``key`` and creates no output directory."""
    root, _, out = small_run
    config = write_config(tmp_path / "config.json", **extra)
    argv = [command, "--config", str(config), "--output", str(tmp_path / "o")]
    if command != "generate":
        argv += ["--archive", str(out / "archive.json")]
    capsys.readouterr()
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    # a rejected config leaves no output directory behind
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, extra, key", OUT_OF_RANGE)
def test_out_of_range_value_exits_2(small_run, tmp_path, capsys, command,
                                    extra, key):
    assert_rejected(small_run, tmp_path, capsys, command, extra, key)


@pytest.mark.parametrize("command", ["generate", "explain", "mitigate"])
@pytest.mark.parametrize("extra, key", EVERY_COMMAND)
def test_config_checks_run_in_every_command(small_run, tmp_path, capsys,
                                            command, extra, key):
    """Every block is checked at load, whichever command reads it."""
    assert_rejected(small_run, tmp_path, capsys, command, extra, key)


@pytest.mark.parametrize("command", ["explain", "mitigate"])
def test_too_few_slots_names_the_key_and_the_word(small_run, tmp_path,
                                                  capsys, command):
    """An explain.slots below a word's unit count exits 2 naming the key,
    its value and the first word that does not fit: the first such fuzzy
    word for explain, the wake word (six units) for mitigate, which
    encodes it first."""
    from fakewake.embedding import parse_text

    root, _, out = small_run
    archive = FuzzyArchive.load(out / "archive.json")
    word = "alexa" if command == "mitigate" else next(
        c.word for c in archive.sorted_candidates()
        if len(parse_text(c.word, "en")[0]) > 3)
    config = write_config(tmp_path / "config.json", explain={"slots": 3})
    capsys.readouterr()
    assert main([command, "--config", str(config),
                 "--archive", str(out / "archive.json"),
                 "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "explain.slots = 3" in err and repr(word) in err
    assert not (tmp_path / "o").exists()


def test_collective_not_utf8_exits_2(small_run, tmp_path, capsys):
    path = tmp_path / "collective.txt"
    path.write_bytes(b"alexa\n\xff\xfe\n")
    assert_rejected(small_run, tmp_path, capsys, "mitigate",
                    {"mitigate": {"collective_path": str(path)}},
                    "mitigate.collective_path")


@pytest.mark.parametrize("command, explain, key", [
    ("explain", {"folds": 1}, "explain: folds"),
    ("explain", {"beta": 0}, "explain: beta"),
    ("explain", {"beta": 1.5}, "explain: beta"),
    ("mitigate", {"beta": 0}, "explain: beta"),
    ("mitigate", {"beta": 1.5}, "explain: beta"),
], ids=["explain-explain0-explain.folds", "explain-explain1-explain.beta",
        "explain-explain2-explain.beta", "mitigate-explain3-explain.beta",
        "mitigate-explain4-explain.beta"])
def test_explain_keys_checked_before_training(small_run, tmp_path, capsys,
                                              monkeypatch, command, explain,
                                              key):
    from fakewake import gbdt, mitigate

    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained before the config check")

    # the commands import train_gbdt when they run, so they read these
    monkeypatch.setattr(gbdt, "train_gbdt", no_training)
    monkeypatch.setattr(mitigate, "train_gbdt", no_training)
    root, _, out = small_run
    config = write_config(tmp_path / "config.json", explain=explain)
    capsys.readouterr()
    assert main([command, "--config", str(config),
                 "--archive", str(out / "archive.json"),
                 "--output", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_archive_exits_2(tmp_path):
    for command in ("explain", "mitigate"):
        code = main([command, "--archive", str(tmp_path / "missing.json"),
                     "--output", str(tmp_path / "out"), "--seed", "1"])
        assert code == 2
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["generate", "explain", "mitigate"])
@pytest.mark.parametrize("output", ["afile", "afile/sub"])
def test_output_path_that_cannot_be_a_directory_exits_2(small_run, tmp_path,
                                                         capsys, monkeypatch,
                                                         command, output):
    """The path is checked before any work: no model is trained and nothing
    is created."""
    from fakewake import explain, gbdt, mitigate

    trained = []

    def counting(*args, **kwargs):
        trained.append(1)
        return train(*args, **kwargs)

    train = gbdt.train_gbdt
    for module in (gbdt, explain, mitigate):
        monkeypatch.setattr(module, "train_gbdt", counting)
    root, _, out = small_run
    config = write_config(tmp_path / "config.json",
                          explain={"n_trees": 5},
                          mitigate={"collective_limit": 200})
    (tmp_path / "afile").write_text("kept\n")
    before = sorted(tmp_path.rglob("*"))
    argv = [command, "--config", str(config),
            "--output", str(tmp_path / output)]
    if command != "generate":
        argv += ["--archive", str(out / "archive.json")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory")
    assert str(tmp_path / output) in err
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert trained == []
    assert sorted(tmp_path.rglob("*")) == before


def _content(content):
    """Write ``content`` (text, bytes, or None for a directory)."""
    def make(path, archive):
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    return make


def _archive_with(edit):
    """Write the run's archive after ``edit`` changed its JSON document."""
    def make(path, archive):
        edit(archive)
        path.write_text(json.dumps(archive))
    return make


def _wake_word(word):
    """Write the run's archive with ``word`` as its wake word."""
    return _archive_with(lambda doc: doc["run"].update(wake_word=word))


# (archive option, wake word): archive wake words that do not parse in the
# archive's language, or are not in canonical form
BAD_WAKE_WORDS = [("archive", "ALEXA"), ("archive", "alexa1"),
                  ("archive", "  "), ("zh-archive", "xiao")]
BAD_WAKE_WORD_IDS = ["wake-word-upper", "wake-word-digit", "wake-word-blank",
                     "zh-wake-word-toneless"]


@pytest.mark.parametrize("command", ["explain", "mitigate"])
@pytest.mark.parametrize("option, make", [
    ("archive", _content("[]")),
    ("archive", _content("null")),
    ("archive", _content('"x"')),
    ("archive", _content('{"run": 5}')),
    ("archive", _content(None)),
    ("config", _content(None)),
    ("archive", _content(b"\xff\xfe{}")),
    ("config", _content(b"\xff\xfe{}")),
    ("archive", _archive_with(
        lambda doc: doc["candidates"][0].update(wake_rate="high"))),
    ("archive", _archive_with(lambda doc: doc["run"].update(language="fr"))),
    ("archive", _archive_with(lambda doc: doc["run"].update(seed="x"))),
    ("archive", _archive_with(lambda doc: doc["run"].update(seed=-1))),
    # a word that parses but would split a row of summary.tsv or fuzzy.tsv
    ("zh-archive", _archive_with(lambda doc: doc["candidates"][0].update(
        word=doc["candidates"][0]["word"].replace(" ", "\t", 1)))),
    ("zh-archive", _archive_with(lambda doc: doc["rejected"][0].update(
        word=doc["rejected"][0]["word"].replace(" ", "\n", 1)))),
    *[(option, _wake_word(word)) for option, word in BAD_WAKE_WORDS],
], ids=["list", "null", "string", "run-not-object", "archive-directory",
        "config-directory", "archive-not-utf8", "config-not-utf8",
        "wake-rate-string", "unknown-language", "seed-string",
        "seed-negative", "zh-word-tab", "zh-word-newline",
        *BAD_WAKE_WORD_IDS])
def test_malformed_input_file_exits_2(small_run, tmp_path, request, command,
                                      option, make):
    root, config, out = small_run
    if option == "zh-archive":
        root, config, out = request.getfixturevalue("zh_run")
        option = "archive"
    paths = {"archive": out / "archive.json", "config": config}
    paths[option] = tmp_path / "bad"
    make(paths[option], json.loads((out / "archive.json").read_text()))
    assert main([command, "--config", str(paths["config"]),
                 "--archive", str(paths["archive"]),
                 "--output", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["explain", "mitigate"])
@pytest.mark.parametrize("option, word", BAD_WAKE_WORDS,
                         ids=BAD_WAKE_WORD_IDS)
def test_archive_wake_word_is_checked_first(small_run, tmp_path, request,
                                            capsys, monkeypatch, command,
                                            option, word):
    """A wake word that does not parse exits 2 naming it, before any
    model is trained."""
    from fakewake import explain, gbdt, mitigate

    trained = []

    def counting(*args, **kwargs):
        trained.append(1)
        return train(*args, **kwargs)

    train = gbdt.train_gbdt
    for module in (gbdt, explain, mitigate):
        monkeypatch.setattr(module, "train_gbdt", counting)
    root, config, out = request.getfixturevalue(
        "zh_run" if option == "zh-archive" else "small_run")
    archive = tmp_path / "archive.json"
    _wake_word(word)(archive, json.loads((out / "archive.json").read_text()))
    capsys.readouterr()
    assert main([command, "--config", str(config), "--archive", str(archive),
                 "--output", str(tmp_path / "o")]) == 2
    assert repr(word) in capsys.readouterr().err
    assert trained == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("make", [lambda path: path,
                                  lambda path: path.mkdir() or path],
                         ids=["missing-file", "directory"])
def test_unreadable_collective_path_exits_2(small_run, tmp_path, capsys,
                                            make):
    root, _, out = small_run
    collective = make(tmp_path / "collective")
    config = write_config(tmp_path / "config.json",
                          mitigate={"collective_path": str(collective)})
    capsys.readouterr()
    assert main(["mitigate", "--config", str(config),
                 "--archive", str(out / "archive.json"),
                 "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mitigate.collective_path: ")
    assert str(collective) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rate", [0.05, 1.5, 5.0])
def test_archive_wake_rate_outside_the_bands_exits_2(small_run, tmp_path,
                                                     capsys, rate):
    """summary.tsv bands each fuzzy word's wake rate; a rate no band holds
    is a malformed archive, for every command that reads one."""
    root, config, out = small_run
    doc = json.loads((out / "archive.json").read_text())
    doc["candidates"][0]["wake_rate"] = rate
    archive = tmp_path / "archive.json"
    archive.write_text(json.dumps(doc))
    for command in ("explain", "mitigate"):
        capsys.readouterr()
        assert main([command, "--config", str(config),
                     "--archive", str(archive),
                     "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(rate) in err and doc["candidates"][0]["word"] in err
        assert not (tmp_path / "o").exists()


def test_high_wake_rate_words_are_the_high_bucket(fixture_archive,
                                                  fixture_config, tmp_path):
    """A wake rate of 0.75 (6 of 8 trials) is in summary.tsv's high band,
    so mitigate counts every fuzzy word of such an archive as high."""
    doc = fixture_archive.to_json()
    for cand in doc["candidates"]:
        cand["wake_rate"] = 0.75
    archive = tmp_path / "archive.json"
    archive.write_text(json.dumps(doc))
    out = tmp_path / "mit"
    assert main(["mitigate", "--config", str(fixture_config),
                 "--archive", str(archive), "--output", str(out)]) == 0
    report = json.loads((out / "mitigation_report.json").read_text())
    assert isinstance(report["high_wake_rate_rejected"], float)
    assert "high-wake-rate fuzzy words rejected: " in \
        (out / "mitigation_report.txt").read_text()


@pytest.mark.parametrize("command", ["explain", "mitigate"])
def test_unparseable_archive_word_exits_2(small_run, tmp_path, capsys,
                                          command):
    root, config, out = small_run
    doc = json.loads((out / "archive.json").read_text())
    doc["candidates"][0]["word"] = "al3xa"
    archive = tmp_path / "archive.json"
    archive.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "--config", str(config), "--archive", str(archive),
                 "--output", str(tmp_path / "o")]) == 2
    assert "al3xa" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_dist_command(capsys):
    assert main(["dist", "alexa", "alexa"]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0
    assert main(["dist", "alexa", "ileksur"]) == 0
    assert float(capsys.readouterr().out.strip()) > 0
    assert main(["dist", "--language", "zh", "xiǎo dù xiǎo dù",
                 "xiǎo lǒng xiǎo lǒng"]) == 0
    assert float(capsys.readouterr().out.strip()) > 0


@pytest.mark.parametrize("word1, word2, printed", [
    ("alexa", "ileksur", "0.023809523809523808"),
    ("alexa", "alexa", "0.0"),
    ("hey siri", "hay sorry", "0.11746031746031746"),
    ("alexa", "a lexa", "0.10622710622710622"),
])
def test_dist_prints_pinned_english_values(word1, word2, printed, capsys):
    """English distances end to end, pinned to the values of the per-cell
    distance loop: a pair, an identical pair, two multi-word phrases, and
    a boundary against a phoneme."""
    assert main(["dist", word1, word2]) == 0
    assert capsys.readouterr().out == printed + "\n"


@pytest.mark.parametrize("word1, word2, bad", [
    ("alexa", "al3xa!", "['!', '3']"),
    ("Al-exa", "alexa", "['-', 'A']"),
    ("alexa", "alèxa", "['è']"),
    ("ALEXA", "alexa", "['A', 'E', 'L', 'X']"),
])
def test_dist_rejects_symbols_outside_the_alphabet(word1, word2, bad, capsys):
    """Every symbol of an English word must be a-z or space, as in
    ``validate``: g2p would drop any other one and print a distance
    anyway."""
    assert main(["dist", word1, word2]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"symbols outside a-z/space: {bad}" in captured.err


def test_dist_prints_pinned_mandarin_value(capsys):
    assert main(["dist", "--language", "zh", "xiǎo dù", "xiāo tù"]) == 0
    assert capsys.readouterr().out == "0.015204153464452478\n"


@pytest.mark.parametrize("word1, word2", [("xāng dù", "xiǎo dù"),
                                          ("xiǎo dù", "xiao du")])
def test_dist_rejects_invalid_pinyin(word1, word2, capsys):
    assert main(["dist", "--language", "zh", word1, word2]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_decisive_unit_past_the_target_names_the_oracle_block(tmp_path,
                                                              capsys):
    config = write_config(tmp_path / "config.json",
                          oracle={"decisive_unit": 6})
    assert main(["generate", "--config", str(config),
                 "--output", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "config error: oracle: decisive_unit out of range 0..5\n"
    assert not (tmp_path / "o").exists()


def appended(row):
    return lambda text: text + row + "\n"


def misspelled(row_start, typo):
    """The first row that starts with ``row_start`` starts with ``typo``."""
    return lambda text: text.replace("\n" + row_start, "\n" + typo, 1)


ZH_WORD = ["--language", "zh", "lóng dà"]
RULE_QQ = ("g2p_rules.tsv", appended("q\tQQ\t0"))
LEXICON_QQ = ("lexicon.tsv", appended("zork\tQQ AH"))
VALIDITY_ZZ = ("pinyin_validity.tsv", appended("zz\tong"))
NO_ONG_ROW = ("pinyin_unit_features.tsv", lambda text: "".join(
    line for line in text.splitlines(True)
    if not line.startswith("final\tong\t")))
QQ, ZZ, ONG = ("config error: phoneme 'QQ' of ",
               "config error: initial 'zz' of ",
               "config error: final 'ong' of ")
MISSING = "config error: data file not found: "
# case: (data file, its edit or None for a directory without the tables,
# command, the message's start); the message names the data file
BAD_TABLES = {
    "rule-phoneme": (*RULE_QQ, ["generate"], QQ),
    "lexicon-phoneme-validate": (*LEXICON_QQ, ["validate", "zork"], QQ),
    "lexicon-phoneme-dist": (*LEXICON_QQ, ["dist", "zork", "alexa"], QQ),
    "lexicon-phoneme-generate": (*LEXICON_QQ,
                                 ["generate", "--wake-word", "zork"], QQ),
    "validity-initial-validate": (*VALIDITY_ZZ, ["validate", *ZH_WORD], ZZ),
    "validity-initial-dist": (*VALIDITY_ZZ, ["dist", *ZH_WORD, "lóng dà"],
                              ZZ),
    "validity-initial-generate": (*VALIDITY_ZZ,
                                  ["generate", "--language", "zh",
                                   "--wake-word", "xiǎo dù"], ZZ),
    "features-final-row": (*NO_ONG_ROW, ["dist", *ZH_WORD, "lóng dà"], ONG),
    "lexicon-row-width": ("lexicon.tsv", appended("zork"),
                          ["validate", "alexa"],
                          "config error: row 'zork' of "),
    "features-kind": ("pinyin_unit_features.tsv",
                      misspelled("initial\tb\t", "inital\tb\t"),
                      ["dist", *ZH_WORD, "xiǎo dù"],
                      "config error: kind 'inital' of "),
    "units-kind": ("pinyin_units.tsv", misspelled("final\t", "fnal\t"),
                   ["dist", *ZH_WORD, "xiǎo dù"],
                   "config error: kind 'fnal' of "),
    "missing-validate": ("lexicon.tsv", None, ["validate", "alexa"],
                         MISSING),
    "missing-generate": ("lexicon.tsv", None, ["generate"], MISSING),
    "missing-dist-zh": ("pinyin_units.tsv", None,
                        ["dist", *ZH_WORD, "lóng dà"], MISSING),
    "missing-mitigate": ("lexicon.tsv", None, ["mitigate", "--archive"],
                         MISSING),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_bad_data_table_exits_2_naming_the_file(small_run, tmp_path, case):
    """A data table that is missing, has a row of the wrong width or kind,
    or names a symbol its companion table lacks, exits 2 with a message
    naming the file, before any output: never a traceback, a silently
    wrong pronunciation, or a relabelled message (``mitigate`` once blamed
    a missing table on ``mitigate.collective_path``)."""
    from fakewake.dataio import _BUNDLED

    name, edit, argv, start = BAD_TABLES[case]
    alt = tmp_path / "data"
    if edit is None:
        alt.mkdir()
    else:
        shutil.copytree(_BUNDLED, alt)
        table = alt / name
        table.write_text(edit(table.read_text(encoding="utf-8")),
                         encoding="utf-8")
    if argv[0] in ("generate", "mitigate"):
        _, config, out = small_run
        if argv[-1] == "--archive":
            argv = [*argv, str(out / "archive.json")]
        argv = [*argv, "--config", str(config), "--output",
                str(tmp_path / "o")]
    proc = subprocess.run(
        [sys.executable, "-m", "fakewake.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC, FAKEWAKE_DATA_DIR=str(alt)),
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(start) and proc.stderr.count("\n") == 1
    assert str(alt / name) in proc.stderr
    assert not (tmp_path / "o").exists()


def test_validate_command(capsys):
    assert main(["validate", "--language", "zh", "xiǎo ài tóng xué"]) == 0
    out = capsys.readouterr().out
    assert "initial=x" in out and "final=iao" in out
    assert main(["validate", "hey siri"]) == 0
    assert "HH EY | S IH R IY" in capsys.readouterr().out
    assert main(["validate", "--language", "zh", "xāng"]) == 2


def test_external_oracle_generate(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    print('1' if 'k' in line else '0')\n"
        "    sys.stdout.flush()\n")
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "out"
    code = main(["generate", "--config", str(config),
                 "--oracle", f"exec:{sys.executable} {stub}",
                 "--output", str(out)])
    assert code == 0
    archive = FuzzyArchive.load(out / "archive.json")
    assert archive.candidates
    assert all("k" in c.word for c in archive.candidates.values())


def test_exec_stub_archive_equals_the_sim_archive(small_run, tmp_path):
    """``generate`` through the line-protocol stub, which answers word by
    word, writes the ``--oracle sim`` archive apart from ``run.oracle``."""
    _, config, sim_out = small_run
    stub = Path(__file__).resolve().parents[1] / "perfbench" / "oracle_stub.py"
    out = tmp_path / "out"
    assert main(["generate", "--config", str(config), "--oracle",
                 f"exec:{sys.executable} {stub} --language en --wake-word "
                 "alexa --decisive-unit 3 --decisive-weight 0.6 --seed 1003",
                 "--output", str(out)]) == 0
    archives = [json.loads((d / "archive.json").read_text())
                for d in (sim_out, out)]
    assert [a["run"].pop("oracle") for a in archives][0] == "sim"
    assert archives[0]["candidates"]
    assert archives[0] == archives[1]


def test_external_oracle_failure_exits_3(tmp_path, capsys):
    stub = tmp_path / "stub.py"
    stub.write_text("import sys; sys.exit(0)\n")
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(["generate", "--config", str(config),
                 "--oracle", f"exec:{sys.executable} {stub}",
                 "--output", str(out)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err
                if line.startswith("oracle failure:")]) == 1
    partial = json.loads((out / "archive.json").read_text())
    assert partial["run"]["generations_run"] == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, width=64), max_size=40)
       | st.lists(st.integers(0, 50).map(float), max_size=40))
@example([])
@example([0.25, 0.75])
@example([-0.0])
@example([-0.0, -0.0])
def test_median_equals_np_median(values):
    """``cli._median`` is ``np.median`` bit for bit, over odd and even
    sizes; its inputs hold no NaN."""
    from fakewake.cli import _median

    xs = np.array(values, dtype=float)
    got = _median(xs)
    if not values:
        assert got is None
    else:
        assert type(got) is float
        assert np.float64(got).tobytes() == np.median(xs).tobytes()


CUT_STUB = """
import sys
limit, log = int(sys.argv[1]), open(sys.argv[2], "a")
for n, line in enumerate(sys.stdin):
    if n == limit:
        sys.exit(0)
    log.write(line)
    log.flush()
    print(1 if "k" in line or "s" in line else 0, flush=True)
"""


def test_oracle_exit_keeps_exactly_the_words_read(tmp_path, capsys):
    """A stub that exits after 153 replies, some way into generation 2,
    makes ``generate`` exit 3. The partial archive then holds the 30 words
    whose five replies were read, as the full run records them."""
    stub = tmp_path / "cut.py"
    stub.write_text(CUT_STUB)
    config = write_config(tmp_path / "config.json")

    def generate(limit, out):
        log = tmp_path / f"{out}.log"
        code = main(["generate", "--config", str(config), "--oracle",
                     f"exec:{sys.executable} {stub} {limit} {log}",
                     "--output", str(tmp_path / out)])
        return (code, json.loads((tmp_path / out / "archive.json")
                                 .read_text()), log.read_text().split("\n"))

    code, full, sent = generate(10**9, "full")
    assert code == 0
    assert len(sent) > 200
    capsys.readouterr()
    code, partial, _ = generate(153, "cut")
    assert code == 3
    assert capsys.readouterr().err.startswith("oracle failure: ")
    read = set(sent[:150:5])
    assert len(read) == 30 and sent[:150] == [w for w in sent[:150:5]
                                              for _ in range(5)]
    assert partial["run"]["query_count"] == 150
    assert 1 <= partial["run"]["generations_run"] < \
        full["run"]["generations_run"]
    for key in ("candidates", "rejected"):
        assert partial[key] == [c for c in full[key] if c["word"] in read]
    assert partial["candidates"] and partial["rejected"]
    assert not (tmp_path / "cut" / "run_manifest.json").exists()


def test_external_oracle_surplus_reply_exits_3(tmp_path, capsys):
    stub = tmp_path / "double.py"
    stub.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    reply = '1' if 'k' in line else '0'\n"
        "    print(reply, reply, sep='\\n', flush=True)\n")
    config = write_config(tmp_path / "config.json")
    capsys.readouterr()
    assert main(["generate", "--config", str(config),
                 "--oracle", f"exec:{sys.executable} {stub}",
                 "--output", str(tmp_path / "out")]) == 3
    assert "replied to no query" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run_manifest.json").exists()


# Each read holds one generation: its lines go out in one write below
# PIPE_BUF, which arrives whole. Every read's replies go out in one write, each
# twice from the read numbered argv[1] on.
DOUBLING_STUB = """
import os, sys
double_from, reads, rest = int(sys.argv[1]), 0, b""
while chunk := os.read(0, 65536):
    reads += 1
    *lines, rest = (rest + chunk).split(b"\\n")
    copies = 2 if reads >= double_from else 1
    os.write(1, b"".join((b"1\\n" if b"k" in line or b"s" in line
                          else b"0\\n") * copies for line in lines))
"""


@pytest.mark.parametrize("double_from, generations", [(1, 1), (2, 6)])
def test_surplus_replies_fail_the_generation_they_reach(
        tmp_path, capsys, double_from, generations):
    """From generation ``double_from`` on, the stub answers every line
    twice. ``generate`` exits 3 before it records a word of that
    generation, even when it is the last one, and the partial archive holds
    the earlier generations' words as the full run records them."""
    stub = tmp_path / "doubling.py"
    stub.write_text(DOUBLING_STUB)
    config = write_config(tmp_path / "config.json", evolve={
        "population_size": 20, "generations": generations, "trials": 5})

    def generate(first_doubled, out):
        code = main(["generate", "--config", str(config), "--oracle",
                     f"exec:{sys.executable} {stub} {first_doubled}",
                     "--output", str(tmp_path / out)])
        return code, json.loads((tmp_path / out / "archive.json").read_text())

    code, full = generate(10**9, "full")
    assert code == 0
    capsys.readouterr()
    code, partial = generate(double_from, "doubled")
    assert code == 3
    assert "replied to no query" in capsys.readouterr().err
    assert not (tmp_path / "doubled" / "run_manifest.json").exists()
    for key in ("candidates", "rejected"):
        assert partial[key] == [c for c in full[key]
                                if c["generation"] < double_from]
    records = partial["candidates"] + partial["rejected"]
    assert partial["run"]["query_count"] == 5 * len(records)
    assert bool(records) == (double_from > 1)


@pytest.mark.parametrize("signum, code", [(signal.SIGINT, 130),
                                          (signal.SIGTERM, 143)])
def test_interrupted_generate_keeps_the_partial_archive(tmp_path, signum,
                                                        code):
    """A signal to ``generate`` while its oracle is answering the second
    word: the exit code of the signal, one ``interrupted:`` line, and the
    archive and summary that an oracle failing at that word leaves (exit
    3), with no manifest."""
    stub = tmp_path / "stub.py"
    marker = tmp_path / "second-word"
    answer = "    print('1' if 'k' in line else '0', flush=True)\n"
    # answers the first word's 5 trials, then closes
    stub.write_text("import sys\n"
                    "for n, line in enumerate(sys.stdin):\n" + answer +
                    "    if n == 4:\n"
                    "        break\n")
    config = write_config(tmp_path / "config.json")
    oracle = f"exec:{sys.executable} {stub}"
    failed = tmp_path / "failed"
    assert main(["generate", "--config", str(config), "--oracle", oracle,
                 "--output", str(failed)]) == 3
    # answers the first word, then waits at the second word's first line
    stub.write_text("import sys, time\n"
                    "for n, line in enumerate(sys.stdin):\n"
                    "    if n == 5:\n"
                    f"        open({str(marker)!r}, 'w').close()\n"
                    "        time.sleep(60)\n" + answer)
    out = tmp_path / "interrupted"
    proc = subprocess.Popen(
        [sys.executable, "-m", "fakewake.cli", "generate", "--config",
         str(config), "--oracle", oracle, "--output", str(out)],
        env=dict(os.environ, PYTHONPATH=SRC), stderr=subprocess.PIPE,
        text=True,
        # a process started with SIGINT ignored keeps ignoring it, and
        # Python then installs no KeyboardInterrupt handler
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 60
        while not marker.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == code
    assert [line for line in err.splitlines()
            if line.startswith("interrupted:")] == [err.strip()]
    assert sorted(p.name for p in out.iterdir()) == ["archive.json",
                                                      "summary.tsv"]
    for name in ("archive.json", "summary.tsv"):
        assert (out / name).read_bytes() == (failed / name).read_bytes()
    partial = FuzzyArchive.load(out / "archive.json")
    assert partial.query_count == 5 and partial.generations_run == 0


def test_failed_rerun_leaves_no_manifest_of_the_earlier_run(small_run,
                                                           tmp_path):
    """A re-run whose oracle fails replaces the archive with its partial
    one. The directory then holds that archive, its own summary and no
    manifest: nothing in it describes the earlier, complete run."""
    root, config, out = small_run
    d = tmp_path / "d"
    assert main(["generate", "--config", str(config),
                 "--output", str(d)]) == 0
    assert (d / "summary.tsv").read_text().count("\n") > 1
    assert main(["generate", "--config", str(config), "--oracle", "exec:false",
                 "--output", str(d)]) == 3
    assert not (d / "run_manifest.json").exists()
    partial = FuzzyArchive.load(d / "archive.json")
    assert partial.generations_run == 0 and not partial.candidates
    assert (d / "summary.tsv").read_text() == \
        "word\twake_rate\tbucket\tdissimilarity\n"


class InjectedFault(Exception):
    """Raised in place of one output write."""


def rebind(monkeypatch, original, replacement):
    """Put ``replacement`` wherever a fakewake module binds ``original``.
    Every module of the package is imported first: one loaded while the
    replacement is in place would bind it and keep it."""
    import fakewake
    for info in pkgutil.iter_modules(fakewake.__path__):
        importlib.import_module(f"fakewake.{info.name}")
    for name, module in list(sys.modules.items()):
        if name == "fakewake" or name.startswith("fakewake."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def fail_write(monkeypatch, k):
    """Make the ``k``-th ``atomic_write`` of the process raise
    ``InjectedFault`` instead of opening its file; returns the list of
    paths the writes were for."""
    from fakewake import dataio
    original = dataio.atomic_write
    paths = []

    @contextmanager
    def failing(path):
        paths.append(path)
        if len(paths) == k:
            raise InjectedFault(path)
        with original(path) as fh:
            yield fh

    rebind(monkeypatch, original, failing)
    return paths


def digests(tree):
    return {str(p.relative_to(tree)): hashlib.sha256(p.read_bytes()).digest()
            for p in sorted(tree.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command, writes", [("generate", 4), ("explain", 6),
                                             ("mitigate", 10)])
def test_interrupted_command_leaves_no_manifest_beside_other_files(
        small_run, tmp_path, monkeypatch, command, writes):
    """Each of a command's writes fails in turn, in a directory that holds
    an earlier run (another seed) of the same command. Afterwards either
    the directory has no manifest, or every file in it is the clean
    run's."""
    root, _, out = small_run
    config = write_config(tmp_path / "config.json",
                          explain={"n_trees": 5, "folds": 2},
                          mitigate={"collective_limit": 200,
                                    "detector": {"n_trees": 10}})

    def argv(seed, output):
        args = [command, "--config", str(config), "--seed", str(seed),
                "--output", str(output)]
        if command != "generate":
            args += ["--archive", str(out / "archive.json")]
        return args

    assert main(argv(3, tmp_path / "clean")) == 0
    assert main(argv(4, tmp_path / "earlier")) == 0
    clean = digests(tmp_path / "clean")
    assert clean != digests(tmp_path / "earlier")
    for k in range(1, writes + 2):
        d = tmp_path / f"fail-{k}"
        shutil.copytree(tmp_path / "earlier", d)
        with monkeypatch.context() as mp:
            paths = fail_write(mp, k)
            if k <= writes:
                with pytest.raises(InjectedFault):
                    main(argv(3, d))
            else:
                assert main(argv(3, d)) == 0
        assert len(paths) == min(k, writes)
        if (d / "run_manifest.json").exists():
            assert digests(d) == clean, f"write {k} failed"
    assert paths[-1].name == "run_manifest.json"


def test_bad_oracle_flag_exits_2(tmp_path):
    config = write_config(tmp_path / "config.json")
    assert main(["generate", "--config", str(config), "--oracle", "nova",
                 "--output", str(tmp_path / "out")]) == 2


class ParseSpy:
    """Wraps the parsers (``g2p``, ``parse_pinyin``, the batch reader
    ``read_words``) and the encoder wherever a fakewake module binds them:
    records each parsed word's text, or each text the batch reader reads,
    and the number of rows each encoder call returns."""

    def __init__(self, monkeypatch):
        from fakewake import embedding, phonemes, pinyin
        self.texts: list[str] = []
        self.rows = 0
        for original, wrapper in (
                (phonemes.g2p, self._parsing(phonemes.g2p)),
                (pinyin.parse_pinyin, self._parsing(pinyin.parse_pinyin)),
                (embedding.read_words, self._reading(embedding.read_words)),
                (embedding.encode_rows,
                 self._encoding(embedding.encode_rows))):
            rebind(monkeypatch, original, wrapper)

    def _parsing(self, fn):
        def wrapper(word, *args, **kwargs):
            self.texts.append(getattr(word, "symbols", word))
            return fn(word, *args, **kwargs)
        return wrapper

    def _reading(self, fn):
        def wrapper(texts, *args, **kwargs):
            def read():
                for text in texts:
                    self.texts.append(text)
                    yield text
            return fn(read(), *args, **kwargs)
        return wrapper

    def _encoding(self, fn):
        def wrapper(*args, **kwargs):
            matrix = fn(*args, **kwargs)
            self.rows += len(matrix)
            return matrix
        return wrapper


def capture(monkeypatch, module, name, found):
    """Wrap ``module.name`` to append each result to ``found``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        found.append(original(*args, **kwargs))
        return found[-1]
    monkeypatch.setattr(module, name, wrapper)


def test_each_archive_word_parsed_and_encoded_once(small_run, tmp_path,
                                                   monkeypatch):
    """explain parses and encodes each archive word it reads once: every
    fuzzy word and the never-woke words of the dataset. mitigate does the
    same, plus each collective line once (and its own conventional words).
    Each command also parses the wake word once, on its own."""
    from collections import Counter

    from fakewake import explain, mitigate
    from fakewake.dataio import data_path

    root, config, out = small_run
    archive = FuzzyArchive.load(out / "archive.json")
    fuzzy = Counter(list(archive.candidates))
    assert archive.wake_word not in fuzzy
    assert archive.wake_word not in archive.rejected

    def run(command, found):
        with pytest.MonkeyPatch.context() as mp:
            for (module, name), results in found.items():
                capture(mp, module, name, results)
            spy = ParseSpy(mp)
            assert main([command, "--config", str(config),
                         "--archive", str(out / "archive.json"),
                         "--output", str(tmp_path / command)]) == 0
        return Counter(spy.texts), spy.rows

    datasets = []
    parsed, rows = run("explain", {(explain, "build_dataset"): datasets})
    negatives = Counter(datasets[0].take(datasets[0].labels == 0).texts)
    assert set(negatives) <= set(archive.rejected)
    assert parsed == fuzzy + negatives + Counter([archive.wake_word])
    assert rows == len(archive.candidates) + sum(negatives.values())

    datasets, conventional, collective = [], [], []
    parsed, rows = run("mitigate", {
        (explain, "build_dataset"): datasets,
        (mitigate, "synthesize_conventional"): conventional,
        (mitigate, "load_collective"): collective})
    negatives = Counter(datasets[0].take(datasets[0].labels == 0).texts)
    made = Counter(text for part in (conventional[0].train,
                                     conventional[0].test)
                   for text in part.take(part.labels == 0).texts)
    with open(data_path("collective.txt"), encoding="utf-8") as fh:
        lines = Counter(line.strip() for line in fh if line.strip())
    assert parsed == (fuzzy + negatives + made + lines
                      + Counter([archive.wake_word]))
    assert rows == (len(archive.candidates) + sum(negatives.values())
                    + sum(made.values()) + 1 + len(collective[0]))
