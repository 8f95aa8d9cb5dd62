"""Every leaf key of ``config_reference.json`` is live.

Changing one key alone, from a reduced base config, changes the bytes of a
named output of the command that reads it; a key that cannot show that way
is listed with the reason. The English base runs ``generate`` once; its
archive is the one ``explain`` and ``mitigate`` read in every row.
"""
import copy
import dataclasses
import functools
import json
import shlex
import sys

import pytest

from fakewake.cli import main
from fakewake.config import RunConfig, write_reference

EN = {
    "wake_word": "alexa", "language": "en", "seed": 3,
    "oracle": {"decisive_unit": 3, "decisive_weight": 0.6, "seed": 1003},
    "evolve": {"population_size": 20, "generations": 6, "trials": 5},
    "explain": {"n_trees": 5, "folds": 2},
    "mitigate": {"n_pos": 40, "n_neg": 40, "collective_limit": 200,
                 "detector": {"n_trees": 10}},
}
ZH = {
    "wake_word": "xiǎo dù", "language": "zh", "seed": 9,
    "oracle": {"decisive_unit": 1, "decisive_weight": 0.6, "seed": 2024},
    "evolve": {"population_size": 20, "generations": 4, "trials": 5},
}


def stub(letter):
    """An exec oracle that wakes on every word holding ``letter``."""
    code = ("import sys\n"
            "for line in sys.stdin:\n"
            "    print(int(sys.argv[1] in line), flush=True)\n")
    return shlex.join([sys.executable, "-c", code, letter])


def with_key(base, key, value):
    """``base`` with the dotted ``key`` set to ``value``."""
    doc = copy.deepcopy(base)
    *blocks, leaf = key.split(".")
    block = doc
    for name in blocks:
        block = block.setdefault(name, {})
    block[leaf] = value
    return doc


EN_EXEC_READY = with_key(EN, "oracle.command", stub("k"))
EN_EXEC = with_key(EN_EXEC_READY, "oracle.kind", "exec")
# stands for the path of a small collective the test writes
COLLECTIVE = "<collective>"

# key: (command, output whose bytes change, base config, new value)
LIVE = {
    "wake_word": ("generate", "archive.json", EN, "alexis"),
    "seed": ("generate", "archive.json", EN, 4),
    "oracle.kind": ("generate", "archive.json", EN_EXEC_READY, "exec"),
    "oracle.command": ("generate", "archive.json", EN_EXEC, stub("l")),
    "oracle.target": ("generate", "archive.json", EN, "alexis"),
    # unit_weights and decisive_unit exclude each other
    "oracle.unit_weights": ("generate", "archive.json",
                            with_key(EN, "oracle.decisive_unit", None),
                            [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]),
    "oracle.decisive_unit": ("generate", "archive.json", EN, 1),
    "oracle.decisive_weight": ("generate", "archive.json", EN, 0.9),
    "oracle.threshold": ("generate", "archive.json", EN, 0.6),
    "oracle.temperature": ("generate", "archive.json", EN, 0.1),
    "oracle.substitution_floor": ("generate", "archive.json", EN, 0.5),
    "oracle.seed": ("generate", "archive.json", EN, 1004),
    "evolve.population_size": ("generate", "archive.json", EN, 21),
    "evolve.generations": ("generate", "archive.json", EN, 5),
    "evolve.fuzzy_threshold": ("generate", "archive.json", EN, 0.5),
    "evolve.trials": ("generate", "archive.json", EN, 6),
    "evolve.elitism": ("generate", "archive.json", EN, False),
    "variation.mutation_rate": ("generate", "archive.json", EN, 0.3),
    "variation.crossover_rate": ("generate", "archive.json", EN, 0.5),
    "variation.length_ratio": ("generate", "archive.json", EN, 2.0),
    "distance.normalizer": ("generate", "archive.json", ZH, 50.0),
    "distance.space_cost": ("generate", "archive.json", EN, 0.5),
    "distance.tone_penalty": ("generate", "archive.json", ZH, 0.5),
    "explain.slots": ("explain", "model.json", EN, 16),
    "explain.n_trees": ("explain", "model.json", EN, 6),
    "explain.depth": ("explain", "model.json", EN, 1),
    "explain.learning_rate": ("explain", "model.json", EN, 0.3),
    "explain.min_leaf": ("explain", "model.json", EN, 5),
    "explain.beta": ("explain", "factors.tsv", EN, 0.5),
    "explain.folds": ("explain", "explain_report.json", EN, 3),
    "mitigate.n_pos": ("mitigate", "datasets/conventional/train.tsv", EN,
                       50),
    "mitigate.n_neg": ("mitigate", "datasets/conventional/train.tsv", EN,
                       50),
    "mitigate.jitter": ("mitigate", "detector_original.json", EN, 0.2),
    "mitigate.detector.n_trees": ("mitigate", "detector_original.json", EN,
                                  11),
    "mitigate.detector.depth": ("mitigate", "detector_original.json", EN, 2),
    "mitigate.detector.learning_rate": ("mitigate", "detector_original.json",
                                        EN, 0.3),
    "mitigate.detector.min_leaf": ("mitigate", "detector_original.json", EN,
                                   30),
    "mitigate.collective_path": ("mitigate", "datasets/collective.txt", EN,
                                 COLLECTIVE),
    "mitigate.collective_limit": ("mitigate", "datasets/collective.txt", EN,
                                  150),
    "mitigate.screening_top_n": ("mitigate", "mitigation_report.json", EN,
                                 5),
}

# key: why changing it alone cannot change an output's bytes
CANNOT = {
    "language": "no wake word parses in both languages, so the key cannot "
                "change alone; tests/test_golden.py pins a run of each",
    "oracle.timeout": "exec-only, and only bounds the wait for a reply: a "
                      "run whose replies arrive in time writes the same "
                      "outputs (tests/test_oracle.py times a reply out)",
}


def leaf_keys(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_every_reference_key_is_in_one_table(tmp_path):
    write_reference(tmp_path / "config_reference.json")
    reference = json.loads((tmp_path / "config_reference.json").read_text())
    assert not set(LIVE) & set(CANNOT)
    assert set(LIVE) | set(CANNOT) == set(leaf_keys(reference))


# RunConfig attribute built from a block -> that block
BUILT = {"oracle": "oracle", "evolve": "evolve", "variation": "variation",
         "distance": "distance", "explain": "explain", "proxy": "explain",
         "mitigate": "mitigate", "detector": "mitigate.detector"}
# key no block holds -> the RunConfig attribute that reads it
PLAIN = {"language": "language", "wake_word": "wake_word", "seed": "seed",
         "variation.length_ratio": "length_ratio"}


def test_every_reference_key_is_read_once(tmp_path):
    """Each leaf key of config_reference.json is a field of exactly one
    block RunConfig builds, or a plain attribute listed with its reader,
    and the default configuration holds the reference's values."""
    write_reference(tmp_path / "config_reference.json")
    reference = json.loads((tmp_path / "config_reference.json").read_text())
    value = lambda key: functools.reduce(dict.get, key.split("."), reference)
    cfg = RunConfig.load()
    owners = {}
    for attr, block in BUILT.items():
        built = getattr(cfg, attr)
        for f in dataclasses.fields(built):
            key = f"{block}.{f.name}"
            owners.setdefault(key, []).append(attr)
            assert getattr(built, f.name) == value(key), key
    assert all(len(attrs) == 1 for attrs in owners.values()), owners
    assert not set(owners) & set(PLAIN)
    assert set(owners) | set(PLAIN) == set(leaf_keys(reference))
    for key, attr in PLAIN.items():
        assert getattr(cfg, attr) == value(key), key


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("keys")


@pytest.fixture(scope="module")
def outputs(root):
    """``outputs(command, config)``: the output directory of one run,
    memoised per (command, config)."""
    runs = {}

    def outputs(command, config):
        key = (command, json.dumps(config, sort_keys=True))
        if key not in runs:
            argv = [command]
            if command != "generate":
                argv += ["--archive",
                         str(outputs("generate", EN) / "archive.json")]
            out = root / f"out-{len(runs)}"
            path = root / f"config-{len(runs)}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            assert main(argv + ["--config", str(path),
                                "--output", str(out)]) == 0, key
            runs[key] = out
        return runs[key]

    return outputs


@pytest.fixture(scope="module")
def collective(root):
    path = root / "collective.txt"
    path.write_text("".join(f"{word}\n" for word in (
        "lexis", "taxi", "alex", "axle", "relax", "example", "maxim",
        "galaxy", "flexible", "exit")))
    return path


@pytest.mark.parametrize("key", sorted(LIVE))
def test_key_changes_its_named_output(outputs, collective, key):
    command, output, base, value = LIVE[key]
    changed = with_key(base, key,
                       str(collective) if value == COLLECTIVE else value)
    assert changed != base
    assert (outputs(command, base) / output).read_bytes() != \
        (outputs(command, changed) / output).read_bytes()


# the keys only the simulated detector reads, each with a new value;
# unit_weights and decisive_unit exclude each other, so both change
SIM_ONLY = {
    "oracle.target": "alexis",
    "oracle.unit_weights": [0.5, 0.1, 0.1, 0.1, 0.1, 0.1],
    "oracle.decisive_unit": None,
    "oracle.decisive_weight": 0.9,
    "oracle.threshold": 0.6,
    "oracle.temperature": 0.1,
    "oracle.substitution_floor": 0.5,
    "oracle.seed": 1004,
}


def test_exec_oracle_reads_only_command_and_timeout(outputs):
    """With ``oracle.kind: exec`` the eight simulated-detector keys, all
    changed at once, leave the archive byte for byte; the manifest still
    records the block as loaded."""
    changed = EN_EXEC
    for key, value in SIM_ONLY.items():
        assert with_key(EN_EXEC, key, value) != EN_EXEC, key
        changed = with_key(changed, key, value)
    base, other = outputs("generate", EN_EXEC), outputs("generate", changed)
    assert (base / "archive.json").read_bytes() == \
        (other / "archive.json").read_bytes()
    snapshot = json.loads((other / "run_manifest.json").read_text())
    assert {key: snapshot["config"]["oracle"][key.split(".")[1]]
            for key in SIM_ONLY} == SIM_ONLY
