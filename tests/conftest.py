import json

import pytest

from fakewake.dataio import data_path
from fakewake.distance import DistanceConfig
from fakewake.evolve import EvolveConfig, run
from fakewake.genome import VariationConfig, encode_english, english_genome_length
from fakewake.oracle import SimulatedDetector

def raw_rows(name: str) -> list[list[str]]:
    """Every row of a data table as its cells, unconverted and unchecked:
    the lines that are neither blank nor comments, split on tabs. A
    reference independent of ``read_table``."""
    with open(data_path(name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [line.split("\t") for line in lines
            if line and not line.startswith("#")]


def raw_weight_rows(name: str) -> list[list[str]]:
    """The cells after ``#weight`` of each ``#weight`` row, in file order."""
    with open(data_path(name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [line.split("\t")[1:] for line in lines
            if line.startswith("#weight\t")]


# hidden decisive weight 0.6 on the K unit of alexa (AH L EH K S AH)
ALEXA_WEIGHTS = (0.08, 0.08, 0.08, 0.6, 0.08, 0.08)


def make_detector(seed: int = 1007) -> SimulatedDetector:
    return SimulatedDetector(target="alexa", language="en",
                             unit_weights=ALEXA_WEIGHTS, seed=seed)


def run_search(seed: int = 7, detector_seed: int = 1007, **evolve_kwargs):
    cfg = EvolveConfig(**evolve_kwargs) if evolve_kwargs else EvolveConfig()
    wake = encode_english("alexa", english_genome_length("alexa"))
    return run(wake, "alexa", make_detector(detector_seed), cfg,
               VariationConfig(), DistanceConfig(), seed=seed)


@pytest.fixture(scope="session")
def fixture_archive():
    """The closed-loop search fixture: defaults, seed 7."""
    return run_search()


@pytest.fixture(scope="session")
def fixture_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "fixture.json"
    path.write_text(json.dumps({
        "wake_word": "alexa",
        "language": "en",
        "seed": 7,
        "oracle": {"decisive_unit": 3, "decisive_weight": 0.6, "seed": 1007},
    }))
    return path
