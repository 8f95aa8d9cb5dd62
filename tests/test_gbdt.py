import numpy as np
import pytest

from fakewake.errors import DegenerateData, ShapeMismatch
from fakewake.gbdt import GBDTParams, TreeEnsemble, train_gbdt


def test_separable_1d_perfect_train_accuracy():
    x = np.array([[v] for v in range(20)], dtype=float)
    y = np.array([0] * 10 + [1] * 10)
    model = train_gbdt(x, y, GBDTParams(n_trees=20, depth=1))
    preds = [model.predict(row) for row in x]
    assert preds == list(y)


def test_empty_ensemble_probability_half():
    model = TreeEnsemble(base_score=0.0, n_features=3)
    assert model.predict_proba(np.zeros(3)) == 0.5


def test_base_score_is_log_odds():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 4))
    y = np.array([1] * 10 + [0] * 20)
    model = train_gbdt(x, y, GBDTParams(n_trees=1))
    assert model.base_score == pytest.approx(np.log(10 / 20))


def test_degenerate_single_class():
    x = np.zeros((10, 2))
    with pytest.raises(DegenerateData):
        train_gbdt(x, np.ones(10))
    with pytest.raises(DegenerateData):
        train_gbdt(x, np.array([1] + [0] * 9))


def test_shape_mismatch():
    model = TreeEnsemble(base_score=0.0, n_features=3)
    with pytest.raises(ShapeMismatch):
        model.predict_proba(np.zeros(5))


def test_deterministic_training():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 5))
    y = (x[:, 0] + x[:, 2] > 0).astype(int)
    a = train_gbdt(x, y)
    b = train_gbdt(x.copy(), y.copy())
    assert a.to_json() == b.to_json()


def test_noise_labels_near_chance_cv():
    from fakewake.explain import Dataset, WordSample, cross_validate

    rng = np.random.default_rng(8)
    x = rng.normal(size=(120, 6))
    y = rng.integers(0, 2, size=120)
    while y.sum() < 10 or y.sum() > 110:
        y = rng.integers(0, 2, size=120)
    samples = [WordSample(str(i), x[i], int(y[i])) for i in range(120)]
    acc = cross_validate(Dataset(samples),
                         GBDTParams(n_trees=20), folds=10, seed=8)
    assert 0.35 <= acc <= 0.65


def test_min_leaf_respected():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    model = train_gbdt(x, y, GBDTParams(n_trees=3, depth=3, min_leaf=2))
    for tree in model.trees:
        for node in range(len(tree.feature)):
            if tree.is_leaf(node):
                assert tree.cover[node] >= 2


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 3))
    y = (x[:, 1] > 0).astype(int)
    model = train_gbdt(x, y, GBDTParams(n_trees=5))
    path = tmp_path / "model.json"
    model.save(path)
    loaded = TreeEnsemble.load(path)
    assert loaded.to_json() == model.to_json()
    for row in x[:5]:
        assert loaded.predict_proba(row) == model.predict_proba(row)


def test_monotone_leaf_raise():
    """Raising a leaf value weakly raises the probability of samples there."""
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    model = train_gbdt(x, y, GBDTParams(n_trees=2, depth=1))
    sample = np.array([3.0])
    before = model.predict_proba(sample)
    tree = model.trees[0]
    node = 0
    while not tree.is_leaf(node):
        node = tree.right[node] if sample[tree.feature[node]] > tree.threshold[node] \
            else tree.left[node]
    tree.value[node] += 1.0
    assert model.predict_proba(sample) > before


# ------------------------------------------------ loop references
# The per-feature, per-row versions the array core replaced. The array core
# must reproduce them exactly, so the comparisons use ==, not a tolerance.

def loop_best_split(x_col, grad, order, min_leaf):
    xs = x_col[order]
    gs = grad[order]
    n = len(xs)
    prefix = np.cumsum(gs)
    total = prefix[-1]
    counts = np.arange(1, n)
    left_sum = prefix[:-1]
    valid = (xs[1:] != xs[:-1]) & (counts >= min_leaf) & (n - counts >= min_leaf)
    if not valid.any():
        return None
    gain = left_sum ** 2 / counts + (total - left_sum) ** 2 / (n - counts) \
        - total ** 2 / n
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    if gain[best] <= 1e-12:
        return None
    return float(gain[best]), (xs[best] + xs[best + 1]) / 2.0


def loop_grow_tree(x, grad, hess, params):
    tree = {k: [] for k in ("feature", "threshold", "left", "right",
                            "value", "cover")}

    def leaf_value(g, h):
        return params.learning_rate * float(g.sum() / (h.sum() + 1.0))

    def build(rows, depth):
        node = len(tree["feature"])
        for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1),
                           ("right", -1), ("value", 0.0)):
            tree[key].append(blank)
        tree["cover"].append(float(len(rows)))
        g, h = grad[rows], hess[rows]
        if depth >= params.depth or len(rows) < 2 * params.min_leaf:
            tree["value"][node] = leaf_value(g, h)
            return node
        best = None
        for feat in range(x.shape[1]):
            col = x[rows, feat]
            order = np.argsort(col, kind="stable")
            split = loop_best_split(col, g, order, params.min_leaf)
            if split and (best is None or split[0] > best[0]):
                best = (split[0], feat, split[1])
        if best is None:
            tree["value"][node] = leaf_value(g, h)
            return node
        _, feat, threshold = best
        mask = x[rows, feat] <= threshold
        tree["feature"][node] = feat
        tree["threshold"][node] = threshold
        tree["left"][node] = build(rows[mask], depth + 1)
        tree["right"][node] = build(rows[~mask], depth + 1)
        return node

    build(np.arange(len(x)), 0)
    return tree


def loop_predict_one(tree, row):
    node = 0
    while tree["feature"][node] >= 0:
        if row[tree["feature"][node]] <= tree["threshold"][node]:
            node = tree["left"][node]
        else:
            node = tree["right"][node]
    return tree["value"][node]


def loop_train(x, y, params):
    base = np.log(y.sum() / (len(y) - y.sum()))
    margins = np.full(len(y), base)
    trees = []
    for _ in range(params.n_trees):
        prob = 1.0 / (1.0 + np.exp(-margins))
        tree = loop_grow_tree(x, y - prob, prob * (1.0 - prob), params)
        trees.append(tree)
        margins += np.array([loop_predict_one(tree, row) for row in x])
    return trees


def awkward_data(seed):
    """Few distinct values per column, a column copied into another (ties
    across features), a constant column and a column of exact ties."""
    rng = np.random.default_rng(seed)
    n, f = int(rng.integers(12, 80)), int(rng.integers(2, 9))
    x = rng.integers(0, int(rng.integers(2, 6)), size=(n, f)).astype(float)
    x[:, -1] = x[:, 0]
    x = np.hstack([x, np.zeros((n, 1)), rng.normal(size=(n, 1)).round(1)])
    y = (x[:, 0] + rng.normal(scale=1.0, size=n) > x[:, 0].mean()).astype(int)
    y[:2] = [0, 1]
    return x, y


@pytest.mark.parametrize("seed", range(12))
def test_array_core_grows_the_loop_trees(seed):
    x, y = awkward_data(seed)
    for min_leaf in (1, 2, 5, len(y) // 2):
        params = GBDTParams(n_trees=4, depth=int(1 + seed % 4),
                            learning_rate=0.3, min_leaf=min_leaf)
        model = train_gbdt(x, y, params)
        expected = loop_train(x.astype(float), y.astype(float), params)
        assert len(model.trees) == len(expected)
        for tree, ref in zip(model.trees, expected):
            for key, values in ref.items():
                assert getattr(tree, key).tolist() == values, key


def test_batch_predict_equals_row_walk():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(90, 5)).round(1)
    y = (x[:, 1] - x[:, 3] > 0).astype(int)
    model = train_gbdt(x, y, GBDTParams(n_trees=15, depth=3))
    probe = np.vstack([x, rng.normal(size=(40, 5)), x[:5]])
    margins = model.margin(probe)
    trees = model.to_json()["trees"]
    for row, margin in zip(probe, margins.tolist()):
        walk = model.base_score + sum(loop_predict_one(t, row) for t in trees)
        assert margin == walk
        assert model.margin(row) == walk
    proba = model.predict_proba(probe)
    assert proba.tolist() == [model.predict_proba(row) for row in probe]
    assert model.predict(probe).tolist() == [model.predict(row) for row in probe]
