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
from tests.reference import NODE_KEYS, add_node


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


def assert_trace_ends_at(lines, archive, trials):
    """The trace gates: one line per generation from 1, new words times
    trials summing to the queries, and the last line's counts those of the
    archive."""
    assert [line["generation"] for line in lines] == \
        list(range(1, len(lines) + 1))
    assert trials * sum(line["new_words"] for line in lines) == \
        archive.query_count
    last = lines[-1]
    assert (last["fuzzy"], last["rejected"], last["queries"]) == (
        len(archive.candidates), len(archive.rejected), archive.query_count)


@pytest.fixture(scope="session")
def fixture_archive():
    """The closed-loop search fixture: defaults, seed 7."""
    return run_search()


def write_config(path, **extra):
    """A small alexa run's config file, with the blocks of ``extra``."""
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
    nodes = {k: [] for k in NODE_KEYS}

    def build(level):
        node = add_node(nodes)
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


def random_tree(rng, n_features, depth):
    """Random binary tree with consistent integer covers."""
    nodes = {k: [] for k in NODE_KEYS}

    def build(d, cover):
        idx = add_node(nodes, cover)
        if d < depth and cover >= 2 and rng.random() < 0.85:
            nodes["feature"][idx] = int(rng.integers(n_features))
            nodes["threshold"][idx] = float(rng.normal())
            left_cover = float(int(rng.integers(1, int(cover))))
            nodes["left"][idx] = build(d + 1, left_cover)
            nodes["right"][idx] = build(d + 1, cover - left_cover)
        else:
            nodes["value"][idx] = float(rng.normal())
        return idx

    build(0, float(int(rng.integers(20, 120))))
    return Tree(**nodes)


def random_ensemble(rng, n_features=None, n_trees=None, depth=None):
    n_features = n_features or int(rng.integers(2, 11))
    ensemble = TreeEnsemble(base_score=float(rng.normal()),
                            n_features=n_features)
    for _ in range(n_trees or int(rng.integers(1, 6))):
        ensemble.trees.append(random_tree(rng, n_features,
                                          depth or int(rng.integers(1, 4))))
    return ensemble
