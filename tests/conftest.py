import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from fakewake.dataio import clear_tables, data_path
from fakewake.distance import DistanceConfig
from fakewake.evolve import EvolveConfig, run
from fakewake.gbdt import Tree, TreeEnsemble
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


@contextmanager
def tables_from(data):
    """The data tables of directory ``data`` for the block:
    ``FAKEWAKE_DATA_DIR`` points at it, and every table memo is emptied on
    entry and again on exit, so nothing built from ``data`` outlives the
    block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("FAKEWAKE_DATA_DIR", str(data))
        clear_tables()
        try:
            yield
        finally:
            clear_tables()


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


def draw_tree(data, n_features, cuts, max_depth=7):
    """A tree in pre-order splitting on thresholds from ``cuts``: up to
    ``max_depth`` levels, either full or with each node split by a coin, so
    lone leaves, stumps and deep trees all come up."""
    depth = data.draw(st.integers(0, max_depth), label="depth")
    full = data.draw(st.booleans(), label="full")
    nodes = {k: [] for k in ("feature", "threshold", "left", "right",
                             "value", "cover")}

    def build(level):
        node = len(nodes["feature"])
        for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1),
                           ("right", -1), ("value", 0.0), ("cover", 1.0)):
            nodes[key].append(blank)
        if level < depth and (full or data.draw(st.booleans())):
            nodes["feature"][node] = data.draw(
                st.integers(0, n_features - 1))
            nodes["threshold"][node] = data.draw(st.sampled_from(cuts))
            nodes["left"][node] = build(level + 1)
            nodes["right"][node] = build(level + 1)
        else:
            nodes["value"][node] = data.draw(st.floats(-4, 4))
        return node

    build(0)
    return Tree(**nodes)


def draw_rows(data, n_features, cuts, max_rows=12):
    """A matrix whose rows hold thresholds themselves, NaN (every comparison
    false: it goes right) and +-inf, some rows twice; it may have no rows."""
    pool = cuts + [math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0]
    rows = data.draw(st.lists(st.lists(st.sampled_from(pool),
                                       min_size=n_features,
                                       max_size=n_features),
                              max_size=max_rows), label="rows")
    x = np.array(rows, dtype=float).reshape(len(rows), n_features)
    return np.vstack([x, x[:data.draw(st.integers(0, len(x)))]])


def draw_shared_routings(data, n_features, cuts, max_depth=7):
    """An ensemble whose trees repeat a few drawn routings (feature,
    threshold, left, right), in any order, each copy with fresh leaf values
    and fresh covers, as boosted trees grown on one dataset do."""
    routings = [draw_tree(data, n_features, cuts, max_depth)
                for _ in range(data.draw(st.integers(1, 5),
                                         label="routings"))]
    model = TreeEnsemble(base_score=data.draw(st.floats(-2, 2)),
                         n_features=n_features)
    for _ in range(data.draw(st.integers(0, 8), label="trees")):
        tree = data.draw(st.sampled_from(routings))
        size = len(tree.feature)
        value = data.draw(st.lists(st.floats(-4, 4), min_size=size,
                                   max_size=size))
        cover = data.draw(st.lists(st.integers(1, 50).map(float),
                                   min_size=size, max_size=size))
        model.trees.append(Tree(
            tree.feature.copy(), tree.threshold.copy(), tree.left.copy(),
            tree.right.copy(), np.where(tree.feature < 0, value, 0.0),
            cover))
    return model
