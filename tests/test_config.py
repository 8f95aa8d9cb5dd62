import json
import re

import pytest

from fakewake.cli import main
from fakewake.config import DEFAULTS, NULLABLE, RunConfig
from fakewake.distance import DistanceConfig
from fakewake.errors import ConfigError
from fakewake.evolve import EvolveConfig
from fakewake.gbdt import GBDTParams
from fakewake.genome import VariationConfig
from fakewake.mitigate import DETECTOR_PARAMS
from fakewake.oracle import SimulatedDetector
from fakewake.params import ExplainConfig, MitigateConfig, OracleConfig


@pytest.mark.parametrize("override, key", [
    ({"explain": {"n_trees": "x"}}, "explain.n_trees"),
    ({"mitigate": {"detector": {"depth": "x"}}}, "mitigate.detector.depth"),
    ({"oracle": {"timeout": "x"}}, "oracle.timeout"),
    ({"seed": "x"}, "seed"),
    ({"explain": {"slots": "x"}}, "explain.slots"),
    ({"oracle": {"unit_weights": ["a"]}}, "oracle.unit_weights[0]"),
    ({"evolve": 5}, "evolve"),
    ({"explain": {"learning_rate": None}}, "explain.learning_rate"),
    ({"evolve": {"elitism": "false"}}, "evolve.elitism"),
    ({"evolve": {"trials": 2.5}}, "evolve.trials"),
    ({"evolve": {"trials": True}}, "evolve.trials"),
    ({"wake_word": 5}, "wake_word"),
    ({"oracle": {"unit_weights": [1, float("nan")]}},
     "oracle.unit_weights[1]"),
    ({"oracle": {"threshold": "-inf"}}, "oracle.threshold"),
    ({"oracle": {"substitution_floor": float("inf")}},
     "oracle.substitution_floor"),
])
def test_malformed_value_names_key(override, key):
    with pytest.raises(ConfigError, match="^" + re.escape(key)):
        RunConfig.load(overrides=override)


def test_config_must_be_an_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="config must be an object"):
        RunConfig.load(path)


def test_values_convert_to_the_default_type():
    cfg = RunConfig.load(overrides={
        "oracle": {"decisive_weight": 1, "unit_weights": [1, 0]},
        "explain": {"n_trees": "50"},
        "evolve": {"generations": 7.0},
        "mitigate": {"collective_limit": "5"},
    })
    assert cfg.raw["oracle"]["decisive_weight"] == 1.0
    assert type(cfg.raw["oracle"]["decisive_weight"]) is float
    assert cfg.raw["oracle"]["unit_weights"] == [1.0, 0.0]
    assert cfg.proxy.n_trees == 50
    assert type(cfg.evolve.generations) is int
    assert cfg.raw["mitigate"]["collective_limit"] == 5


def test_null_only_where_the_default_is_null():
    nulls = {"seed": None, "oracle": {"target": None, "seed": None},
             "mitigate": {"collective_limit": None}}
    cfg = RunConfig.load(overrides=nulls)
    assert cfg.seed is None and cfg.raw["oracle"]["target"] is None
    assert cfg.raw["mitigate"]["collective_limit"] is None


def test_nullable_names_the_null_defaults():
    def nulls(block, prefix=""):
        for key, value in block.items():
            if isinstance(value, dict):
                yield from nulls(value, f"{prefix}{key}.")
            elif value is None:
                yield prefix + key
    assert set(NULLABLE) == set(nulls(DEFAULTS))
    assert NULLABLE["oracle.unit_weights"] is list
    assert NULLABLE["mitigate.collective_path"] is str


def test_blocks_default_to_their_dataclasses():
    cfg = RunConfig.load()
    assert cfg.evolve == EvolveConfig()
    assert cfg.variation == VariationConfig()
    assert cfg.distance == DistanceConfig()
    assert cfg.proxy == GBDTParams()
    assert cfg.detector == DETECTOR_PARAMS
    assert cfg.oracle == OracleConfig()
    assert cfg.explain == ExplainConfig()
    assert cfg.mitigate == MitigateConfig()
    sim = SimulatedDetector(target="alexa")
    for key in ("threshold", "temperature", "substitution_floor"):
        assert getattr(cfg.oracle, key) == getattr(sim, key)


@pytest.mark.parametrize("text, key", [
    ('{"seed": 1, "evolve": {"generations": 2, "population_size": 10}, '
     '"evolve": {"generations": 3}}', "evolve"),
    ('{"seed": 1, "evolve": {"generations": 2, "population_size": 10, '
     '"generations": 3}}', "evolve.generations"),
])
def test_repeated_key_exits_2_naming_it(tmp_path, capsys, text, key):
    """A key a JSON object repeats is refused, not read as its last
    value."""
    config = tmp_path / "config.json"
    config.write_text(text)
    with pytest.raises(ConfigError, match=f"^repeated config key: {key}$"):
        RunConfig.load(config)
    assert main(["generate", "--config", str(config),
                 "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        f"config error: repeated config key: {key}\n"
    assert not (tmp_path / "out").exists()


def test_dataclass_range_error_is_a_config_error():
    with pytest.raises(ConfigError, match="^evolve: population_size"):
        RunConfig.load(overrides={"evolve": {"population_size": 2}})


def test_malformed_value_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"wake_word": "alexa", "seed": 1,
                                  "explain": {"n_trees": "x"}}))
    assert main(["generate", "--config", str(config),
                 "--output", str(tmp_path / "out")]) == 2
    assert "explain.n_trees" in capsys.readouterr().err
