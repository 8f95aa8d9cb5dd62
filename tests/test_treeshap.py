import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fakewake import treeshap
from fakewake.errors import ShapeMismatch
from fakewake.gbdt import GBDTParams, Tree, TreeEnsemble, train_gbdt
from fakewake.treeshap import shap_values
from tests.conftest import (draw_rows, draw_shared_routings, random_ensemble,
                            random_tree)
from tests.reference import (NODE_KEYS, add_node, base_value,
                             brute_force_shap, shap_rows)


def identity_holds(ensemble, x, contributions):
    """Local accuracy: phi0 plus a row's contributions is its margin
    (within 1e-9), for every row of x."""
    gap = (base_value(ensemble) + contributions.sum(axis=1)
           - ensemble.margin(x))
    return bool(np.all(np.abs(gap) <= 1e-9))


def test_single_stump_closed_form():
    # one split on feature 1, equal covers: phi_1 = v_hot - (v_l + v_r) / 2
    tree = Tree(feature=[1, -1, -1], threshold=[0.5, 0.0, 0.0],
                left=[1, -1, -1], right=[2, -1, -1],
                value=[0.0, -2.0, 3.0], cover=[10.0, 5.0, 5.0])
    ensemble = TreeEnsemble(trees=[tree], base_score=0.0, n_features=3)
    x = np.array([[0.0, 1.0, 0.0]])        # routes right
    phi = shap_values(ensemble, x)
    assert phi[0, 1] == pytest.approx(3.0 - 0.5)
    assert phi[0, 0] == 0.0
    assert phi[0, 2] == 0.0
    assert base_value(ensemble) == pytest.approx(0.5)


def test_identity_holds():
    rng = np.random.default_rng(0)
    for _ in range(10):
        ensemble = random_ensemble(rng)
        x = rng.normal(size=(1, ensemble.n_features))
        assert identity_holds(ensemble, x, shap_values(ensemble, x))


def test_matches_brute_force_random_ensembles():
    rng = np.random.default_rng(1)
    for _ in range(15):
        ensemble = random_ensemble(rng)
        x = rng.normal(size=ensemble.n_features)
        phi = shap_values(ensemble, x[None])
        expected = brute_force_shap(ensemble, x)
        assert np.max(np.abs(phi[0] - expected)) <= 1e-9


def test_repeated_feature_on_path():
    # same feature split twice along one path
    tree = Tree(feature=[0, 0, -1, -1, -1],
                threshold=[0.0, -1.0, 0.0, 0.0, 0.0],
                left=[1, 2, -1, -1, -1], right=[4, 3, -1, -1, -1],
                value=[0.0, 0.0, 1.0, 2.0, 5.0],
                cover=[12.0, 8.0, 3.0, 5.0, 4.0])
    ensemble = TreeEnsemble(trees=[tree], base_score=0.0, n_features=2)
    for x0 in (-2.0, -0.5, 1.0):
        x = np.array([x0, 0.0])
        phi = shap_values(ensemble, x[None])
        expected = brute_force_shap(ensemble, x)
        assert np.allclose(phi[0], expected, atol=1e-12)
        assert identity_holds(ensemble, x[None], phi)


def test_trained_model_attributions():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(80, 6))
    y = (x[:, 2] > 0).astype(int)
    model = train_gbdt(x, y, GBDTParams(n_trees=10, depth=2))
    phi = shap_values(model, x[:1])
    assert identity_holds(model, x[:1], phi)
    assert np.argmax(np.abs(phi[0])) == 2


def test_shape_mismatch():
    ensemble = TreeEnsemble(base_score=0.0, n_features=4)
    with pytest.raises(ShapeMismatch):
        shap_values(ensemble, np.zeros((1, 3)))
    with pytest.raises(ShapeMismatch):      # one sample, not a matrix
        shap_values(ensemble, np.zeros(4))


def test_batch_equals_per_row_recursion():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ensemble = random_ensemble(rng)
        f = ensemble.n_features
        # coarse values so that many rows share every decision, plus
        # exact duplicates and rows sitting on thresholds
        rows = rng.normal(size=(30, f)).round(0)
        thresholds = [t for tree in ensemble.trees
                      for t in tree.threshold[tree.feature >= 0].tolist()]
        if thresholds:
            rows[:4] = rng.choice(thresholds, size=(4, f))
        x = np.vstack([rows, rows[:6]])
        batch = assert_equals_per_row_recursion(ensemble, x)
        for row, phi in zip(x, batch.tolist()):
            assert shap_values(ensemble, row[None])[0].tolist() == phi
        assert identity_holds(ensemble, x, batch)


def test_batch_of_no_rows():
    ensemble = random_ensemble(np.random.default_rng(2), n_features=3)
    assert shap_values(ensemble, np.zeros((0, 3))).shape == (0, 3)


def test_batch_equals_per_row_recursion_on_deep_trees():
    """Trees with more than 62 internal nodes: the rows' decision codes are
    built from three chunks of up to 31 decisions."""
    rng = np.random.default_rng(11)
    ensemble = TreeEnsemble(base_score=0.5, n_features=3)
    while len(ensemble.trees) < 3:
        tree = random_tree(rng, 3, 9)
        if (tree.feature >= 0).sum() > 2 * 31:
            ensemble.trees.append(tree)
    rows = rng.normal(size=(50, 3)).round(1)
    x = np.vstack([rows, rows[:10]])
    batch = assert_equals_per_row_recursion(ensemble, x)
    assert identity_holds(ensemble, x, batch)


def search_tree(nodes, rng, feature, lo, hi, depth):
    """Append, in pre-order, a full tree of the given depth that splits
    integer values lo..hi-1 of one feature in halves; covers count the
    values under each node."""
    node = add_node(nodes, float(hi - lo))
    if depth == 0:
        nodes["value"][node] = float(rng.normal())
        return node
    mid = (lo + hi) // 2
    nodes["feature"][node] = feature
    nodes["threshold"][node] = mid - 0.5
    nodes["left"][node] = search_tree(nodes, rng, feature, lo, mid, depth - 1)
    nodes["right"][node] = search_tree(nodes, rng, feature, mid, hi,
                                       depth - 1)
    return node


def test_rows_that_differ_only_in_the_first_decisions():
    """95 internal nodes: the root on feature 1, 31 nodes on feature 0 right
    after it in pre-order, then 63 on feature 1. Rows with feature 1 at 0
    share every decision from node 32 on and differ only among the first
    32, which a code that kept all 95 bits in one int64 would lose."""
    rng = np.random.default_rng(4)
    nodes = {k: [] for k in NODE_KEYS}
    add_node(nodes, 96.0)
    nodes["feature"][0], nodes["threshold"][0] = 1, 0.5
    nodes["left"][0] = search_tree(nodes, rng, 0, 0, 32, 5)
    nodes["right"][0] = search_tree(nodes, rng, 1, 0, 64, 6)
    tree = Tree(**nodes)
    assert (tree.feature >= 0).sum() == 95
    ensemble = TreeEnsemble(base_score=0.0, n_features=2, trees=[tree])
    x = np.array([[v, 0.0] for v in range(32)]
                 + [[v % 32, v] for v in range(1, 64, 5)], dtype=float)
    assert_equals_per_row_recursion(ensemble, x)


def assert_equals_per_row_recursion(ensemble, x):
    """The batch attributions equal the per-row, per-tree recursion's, bit
    for bit; returns them."""
    batch = shap_values(ensemble, x)
    assert batch.tolist() == shap_rows(ensemble, x).tolist()
    return batch


def with_values(tree, rng):
    """The tree with fresh leaf values and the same structure."""
    value = np.where(tree.feature < 0, rng.normal(size=len(tree.value)), 0.0)
    return Tree(tree.feature, tree.threshold, tree.left, tree.right, value,
                tree.cover)


def test_trees_sharing_a_structure_keep_their_own_values():
    """Trees with the same feature, left, right and cover share the
    recursion's terms within a call, and each still multiplies them by its
    own leaf values."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        shapes = [random_tree(rng, 4, int(rng.integers(1, 5)))
                  for _ in range(2)]
        ensemble = TreeEnsemble(base_score=0.0, n_features=4, trees=[
            with_values(shapes[int(rng.integers(2))], rng)
            for _ in range(6)])
        rows = rng.normal(size=(25, 4)).round(0)
        assert_equals_per_row_recursion(ensemble, np.vstack([rows, rows[:5]]))


# A stump on feature 0 with a spare leaf 3 and a second tree that differs
# from it in one array only. The rows take the same decisions in both, so
# a memo key without that array would hand the second tree the first one's
# terms.
STUMP = dict(feature=[0, -1, -1, -1], threshold=[0.5, 0.0, 0.0, 0.0],
             left=[1, -1, -1, -1], right=[2, -1, -1, -1],
             value=[0.0, -1.0, 2.0, 4.0], cover=[10.0, 4.0, 6.0, 4.0])


@pytest.mark.parametrize("key, changed", [
    ("feature", [1, -1, -1, -1]),
    ("left", [3, -1, -1, -1]),
    ("right", [3, -1, -1, -1]),
    ("cover", [10.0, 7.0, 3.0, 4.0]),
])
def test_trees_differing_in_one_structure_array(key, changed):
    first = Tree(**STUMP)
    second = Tree(**{**STUMP, key: changed})
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [1.0, 1.0]])
    for trees in ([first, second], [second, first]):
        ensemble = TreeEnsemble(base_score=0.0, n_features=2, trees=trees)
        assert_equals_per_row_recursion(ensemble, x)


def test_tree_terms_run_once_per_structure_and_pattern(monkeypatch):
    """Within one call the recursion runs once per distinct (structure,
    decision pattern); the next call starts from nothing."""
    rng = np.random.default_rng(8)
    shapes = [random_tree(rng, 3, 3) for _ in range(3)]
    ensemble = TreeEnsemble(base_score=0.0, n_features=3, trees=[
        with_values(shapes[i % 3], rng) for i in range(12)])
    x = rng.normal(size=(40, 3)).round(0)
    distinct, per_tree = set(), 0
    for tree in ensemble.trees:
        inner = tree.feature >= 0
        if inner.any():
            structure = tuple(getattr(tree, k).tobytes() for k in
                              ("feature", "left", "right", "cover"))
            decisions = x[:, tree.feature[inner]] <= tree.threshold[inner]
            patterns = {row.tobytes() for row in decisions}
            per_tree += len(patterns)
            distinct |= {(structure, pattern) for pattern in patterns}
    runs = []
    terms = treeshap._tree_terms

    def counted(tree, goes_left):
        runs.append(1)
        return terms(tree, goes_left)

    monkeypatch.setattr(treeshap, "_tree_terms", counted)
    first = shap_values(ensemble, x)
    assert len(runs) == len(distinct) < per_tree
    second = shap_values(ensemble, x)
    assert len(runs) == 2 * len(distinct)
    assert second.tolist() == first.tolist()
    assert_equals_per_row_recursion(ensemble, x)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trees_sharing_a_routing_equal_the_unshared_recursion(data):
    """Trees that repeat a routing with their own values and covers: the
    decision patterns are grouped once per distinct routing of a call that
    has an internal node and rows, and every row's attributions equal the
    per-row, per-tree recursion's, bit for bit, lone leaves, NaN, +-inf and
    empty matrices included."""
    f = data.draw(st.integers(1, 4), label="features")
    cuts = data.draw(st.lists(st.floats(-3, 3), min_size=1, max_size=4),
                     label="cuts")
    ensemble = draw_shared_routings(data, f, cuts, max_depth=5)
    x = draw_rows(data, f, cuts)
    grouped = []
    patterns = treeshap._decision_patterns

    def spy(tree, rows):
        grouped.append(tree.routing())
        return patterns(tree, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(treeshap, "_decision_patterns", spy)
        assert_equals_per_row_recursion(ensemble, x)
    routings = {tree.routing() for tree in ensemble.trees
                if tree.feature[0] >= 0}
    assert len(grouped) == len(set(grouped)) == (len(routings) if len(x)
                                                 else 0)


def test_shap_values_leaves_no_reference_cycles():
    """The TreeSHAP walk builds no self-referencing closure: with the
    cyclic collector off, one call leaves nothing for it to reclaim."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    model = train_gbdt(x, y, GBDTParams(n_trees=5, depth=3))
    gc.collect()
    gc.disable()
    try:
        shap_values(model, x[:10])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shap_values_computes_no_prediction(monkeypatch):
    """The attributions read the trees' structure and leaf values only: a
    call runs no ``TreeEnsemble.margin`` and no ``Tree.leaves``."""
    rng = np.random.default_rng(6)
    ensemble = random_ensemble(rng, n_features=4, n_trees=5, depth=3)
    x = rng.normal(size=(20, 4)).round(0)
    expected = shap_values(ensemble, x).tolist()

    def no_prediction(*args, **kwargs):
        raise AssertionError("shap_values ran a prediction")

    monkeypatch.setattr(TreeEnsemble, "margin", no_prediction)
    monkeypatch.setattr(Tree, "leaves", no_prediction)
    assert shap_values(ensemble, x).tolist() == expected
    with pytest.raises(ShapeMismatch):
        shap_values(ensemble, x[:, :3])
