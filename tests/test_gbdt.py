import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fakewake import gbdt
from fakewake.errors import DegenerateData, ShapeMismatch
from fakewake.gbdt import GBDTParams, TreeEnsemble, train_gbdt
from tests.conftest import draw_rows, draw_shared_routings


def test_separable_1d_perfect_train_accuracy():
    x = np.array([[v] for v in range(20)], dtype=float)
    y = np.array([0] * 10 + [1] * 10)
    model = train_gbdt(x, y, GBDTParams(n_trees=20, depth=1))
    preds = [int(model.predict(row[None])[0]) for row in x]
    assert preds == list(y)


def test_empty_ensemble_probability_half():
    model = TreeEnsemble(base_score=0.0, n_features=3)
    assert model.predict_proba(np.zeros((1, 3))).tolist() == [0.5]


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
        model.predict_proba(np.zeros((1, 5)))
    with pytest.raises(ShapeMismatch):      # one sample, not a matrix
        model.predict_proba(np.zeros(3))


def test_deterministic_training():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 5))
    y = (x[:, 0] + x[:, 2] > 0).astype(int)
    a = train_gbdt(x, y)
    b = train_gbdt(x.copy(), y.copy())
    assert a.to_json() == b.to_json()


def test_noise_labels_near_chance_cv():
    from fakewake.explain import Dataset, cross_validate

    rng = np.random.default_rng(8)
    x = rng.normal(size=(120, 6))
    y = rng.integers(0, 2, size=120)
    while y.sum() < 10 or y.sum() > 110:
        y = rng.integers(0, 2, size=120)
    acc = cross_validate(Dataset([str(i) for i in range(120)], x, y),
                         GBDTParams(n_trees=20), folds=10, seed=8)
    assert 0.35 <= acc <= 0.65


def test_min_leaf_respected():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    model = train_gbdt(x, y, GBDTParams(n_trees=3, depth=3, min_leaf=2))
    for tree in model.trees:
        for node in range(len(tree.feature)):
            if tree.feature[node] < 0:
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
        assert loaded.predict_proba(row[None]).tolist() \
            == model.predict_proba(row[None]).tolist()


def test_monotone_leaf_raise():
    """Raising a leaf value weakly raises the probability of samples there."""
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    model = train_gbdt(x, y, GBDTParams(n_trees=2, depth=1))
    sample = np.array([[3.0]])
    before = model.predict_proba(sample)[0]
    tree = model.trees[0]
    node = 0
    while tree.feature[node] >= 0:
        node = tree.right[node] \
            if sample[0, tree.feature[node]] > tree.threshold[node] \
            else tree.left[node]
    tree.value[node] += 1.0
    assert model.predict_proba(sample)[0] > before


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
    low, high = xs[best], xs[best + 1]
    mid = (low + high) / 2.0
    return float(gain[best]), (low if mid == high else mid)


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


def loop_base(y):
    """train_gbdt's base score. math.log, as there: np.log can differ in the
    last bit (it does on awkward_data(0)), which moves later leaf values."""
    pos = float(y.sum())
    return math.log(pos / (len(y) - pos))


def loop_train(x, y, params):
    base = loop_base(y)
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


def assert_grows_loop_trees(x, y, params):
    """train_gbdt's trees equal the loop reference's, field by field."""
    model = train_gbdt(x, y, params)
    expected = loop_train(np.asarray(x, dtype=float),
                          np.asarray(y, dtype=float), params)
    assert model.base_score == loop_base(np.asarray(y, dtype=float))
    assert len(model.trees) == len(expected)
    for tree, ref in zip(model.trees, expected):
        for key, values in ref.items():
            assert getattr(tree, key).tolist() == values, key
    return model


@pytest.mark.parametrize("seed", range(12))
def test_array_core_grows_the_loop_trees(seed):
    x, y = awkward_data(seed)
    for min_leaf in (1, 2, 5, len(y) // 2):
        params = GBDTParams(n_trees=4, depth=int(1 + seed % 4),
                            learning_rate=0.3, min_leaf=min_leaf)
        assert_grows_loop_trees(x, y, params)


@pytest.mark.parametrize("ones_at_start", [True, False])
def test_changes_near_the_ends_give_no_cut(ones_at_start):
    """Column 0 changes value only within min_leaf - 1 rows of either end:
    it is not constant, has no valid cut and is dropped at the root.
    Columns 1 and 2 change exactly min_leaf rows from the start and from
    the end, the first and the last valid cut."""
    min_leaf, n = 4, 20
    x = np.array([[0.0] * 3 + [1.0] * 14 + [2.0] * 3,
                  [0.0] * 4 + [1.0] * 16,
                  [0.0] * 16 + [1.0] * 4]).T
    y = np.array([1] * 4 + [0] * 16) if ones_at_start \
        else np.array([0] * 16 + [1] * 4)
    model = assert_grows_loop_trees(
        x, y, GBDTParams(n_trees=3, depth=3, learning_rate=0.3,
                         min_leaf=min_leaf))
    assert model.trees[0].feature[0] == (1 if ones_at_start else 2)
    assert all(0 not in tree.feature.tolist() for tree in model.trees)


def test_feature_constant_in_one_child_only():
    """Column 1 varies at the root, which splits on column 0. It is
    constant on the left child's rows, which then have no cut and become a
    leaf, and it is the split of the right child."""
    x = np.array([[0.0] * 8 + [1.0] * 8,
                  [3.5] * 8 + list(range(8))]).T
    y = np.array([0] * 8 + [0, 0, 1, 1, 1, 1, 1, 1])
    model = assert_grows_loop_trees(
        x, y, GBDTParams(n_trees=3, depth=2, learning_rate=0.3, min_leaf=1))
    first = model.trees[0]
    assert first.feature.tolist()[:2] == [0, -1]
    assert first.feature[first.right[0]] == 1


def test_gain_ties_go_to_the_first_feature_and_position():
    """With balanced labels every gradient is exactly +-0.5, so the cuts
    after 2 and after 6 rows tie within column 0, and column 1 (column 0
    reversed, over palindromic labels) ties with it cut for cut."""
    x = np.array([range(8), range(7, -1, -1)], dtype=float).T
    y = np.array([1, 1, 0, 0, 0, 0, 1, 1])
    model = assert_grows_loop_trees(
        x, y, GBDTParams(n_trees=3, depth=2, learning_rate=0.3, min_leaf=1))
    first = model.trees[0]
    assert (first.feature[0], first.threshold[0]) == (0, 1.5)


def test_node_without_any_cut_is_a_leaf():
    """The root splits on column 0 (column 1 is a copy). Its left child has
    every column constant, so it is a leaf although depth allows two more
    levels. The right child's only value change (column 2) leaves one row
    on a side: a cut at min_leaf 1, after which the five-row child has no
    column left to cut, and no cut at min_leaf 2, so a leaf."""
    column = [0.0] * 6 + [1.0] * 6
    x = np.array([column, column, [0.0] * 11 + [1.0]]).T
    y = np.array([0] * 6 + [0, 0, 1, 1, 1, 1])
    for min_leaf, features in ((1, [0, -1, 2, -1, -1]), (2, [0, -1, -1])):
        model = assert_grows_loop_trees(
            x, y, GBDTParams(n_trees=2, depth=3, learning_rate=0.3,
                             min_leaf=min_leaf))
        assert model.trees[0].feature.tolist() == features


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_split_search_equals_loop_reference(data):
    """Columns of integers 0-3 or of continuous values rounded to 0.1, up
    to 7 of them, so that nodes keep odd and even numbers of live
    features as columns turn constant on their rows."""
    n = data.draw(st.integers(4, 24), label="rows")
    f = data.draw(st.integers(1, 7), label="features")
    tenths = st.floats(-3, 3).map(lambda v: round(v, 1))
    columns = [data.draw(st.lists(tenths if continuous else st.integers(0, 3),
                                  min_size=n, max_size=n), label="column")
               for continuous in data.draw(st.lists(
                   st.booleans(), min_size=f, max_size=f), label="kinds")]
    x = np.array(columns, dtype=float).T
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                    max_size=n), label="y"))
    assume(2 <= y.sum() <= n - 2)
    params = GBDTParams(n_trees=2, depth=data.draw(st.integers(1, 4)),
                        learning_rate=0.3,
                        min_leaf=data.draw(st.integers(1, n // 2)))
    assert_grows_loop_trees(x, y, params)


# sums that round away the smaller term, signed zeros and subnormals
AWKWARD_GRADIENTS = (1e16, -1e16, 1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324,
                     2.5e-310, -2.5e-310)


def float_bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_two_lane_prefix_sums_equal_each_feature_cumsum(data):
    """Every cut's left sum and every live feature's total, read from the
    two-lane prefix sums through ``flat`` and ``ends``, have the bits of a
    float ``np.cumsum`` of that feature's gradients in its order, whether
    the live count fills the last lane or pads it."""
    live = data.draw(st.integers(1, 9), label="live")
    n = data.draw(st.integers(2, 30), label="rows")
    gradient = st.one_of(
        st.sampled_from(AWKWARD_GRADIENTS),
        st.builds(lambda m, e: m * 10.0 ** e,
                  st.floats(-10, 10), st.integers(-20, 20)))
    grad = np.array(data.draw(st.lists(gradient, min_size=n, max_size=n),
                              label="grad"))
    sorted_rows = np.array(data.draw(st.lists(
        st.permutations(range(n)), min_size=live, max_size=live),
        label="orders"))
    shape = gbdt._Shape(np.arange(n))
    # distinct values in every order, so every position is a valid cut
    sorted_x = np.tile(np.arange(n, dtype=float), (live, 1))
    shape.search(np.arange(live), sorted_rows, sorted_x, min_leaf=1)
    assert shape.pairs.shape == ((live + 1) // 2, n, 2)
    prefix = shape.prefix_sums(grad)
    cumsums = [np.cumsum(grad[rows]) for rows in sorted_rows]
    assert float_bits(prefix.take(shape.flat)) == float_bits(
        np.concatenate([c[:-1] for c in cumsums]))
    assert float_bits(prefix.take(shape.ends)) == float_bits(
        [c[-1] for c in cumsums])


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
        assert model.margin(row[None]).tolist() == [walk]
    proba = model.predict_proba(probe)
    assert proba.tolist() == [model.predict_proba(row[None])[0]
                              for row in probe]
    assert model.predict(probe).tolist() == [model.predict(row[None])[0]
                                             for row in probe]


def level_walk(tree, x):
    """The level-at-a-time walk ``Tree.predict`` replaced, kept as a second
    exact reference: the rows still moving descend one level per step."""
    node = np.zeros(len(x), dtype=np.int64)
    moving = np.arange(len(x))
    while moving.size:
        at = node[moving]
        feat = tree.feature[at]
        inner = feat >= 0
        moving, at, feat = moving[inner], at[inner], feat[inner]
        go_left = x[moving, feat] <= tree.threshold[at]
        node[moving] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.value[node]


def assert_predicts_row_walks(model, x):
    """Each tree's leaf values equal the per-row walk's and the level
    walk's, and margin, predict_proba and predict equal the per-row sums,
    bit for bit."""
    trees = model.to_json()["trees"]
    for tree, ref in zip(model.trees, trees):
        walked = [loop_predict_one(ref, row) for row in x]
        assert tree.predict(x).tolist() == walked
        assert level_walk(tree, x).tolist() == walked
    walks = [model.base_score + sum(loop_predict_one(t, row) for t in trees)
             for row in x]
    probabilities = [1.0 / (1.0 + math.exp(-m)) for m in walks]
    assert model.margin(x).tolist() == walks
    assert model.predict_proba(x).tolist() == probabilities
    assert model.predict(x).tolist() == [int(p >= 0.5)
                                         for p in probabilities]


def walks_per_call(model, x):
    """The routings ``Tree.leaves`` walked in each of one margin, one
    predict_proba and one predict call on x."""
    walked = []
    leaves = gbdt.Tree.leaves

    def spy(tree, rows):
        walked[-1].append(tree.routing())
        return leaves(tree, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gbdt.Tree, "leaves", spy)
        for call in (model.margin, model.predict_proba, model.predict):
            walked.append([])
            call(x)
    return walked


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_node_routing_equals_row_walks(data):
    """Trees that repeat a routing with their own values: every call walks
    each distinct routing once, and its results equal the per-row walk's,
    bit for bit. Trees may be lone leaves; rows hold thresholds themselves,
    NaN (every comparison false: it goes right) and +-inf, some rows twice,
    and there may be no rows."""
    f = data.draw(st.integers(1, 4), label="features")
    cuts = data.draw(st.lists(st.floats(-3, 3), min_size=1, max_size=4),
                     label="cuts")
    model = draw_shared_routings(data, f, cuts)
    x = draw_rows(data, f, cuts)
    distinct = {tree.routing() for tree in model.trees}
    for walked in walks_per_call(model, x):
        assert len(walked) == len(set(walked)) == len(distinct)
    assert_predicts_row_walks(model, x)


@pytest.mark.parametrize("routings, uses, live", [(47, 2, 47), (200, 1, 1)])
def test_margin_keeps_few_small_leaf_arrays(routings, uses, live):
    """The leaves of a routing take one byte a row on trees of up to 256
    nodes, and go once its last tree has added its values. 47 interleaved
    stump routings used twice each (a strengthened detector has 47) hold
    47 bytes a row, not 47 * 8; 200 routings used one after another hold
    one array at a time."""
    import tracemalloc

    rng = np.random.default_rng(5)
    x = rng.normal(size=(5600, 28)).round(1)
    stumps = [gbdt.Tree(feature=[k % 28, -1, -1],
                        threshold=[float(rng.choice(x[:, k % 28])), 0.0, 0.0],
                        left=[1, -1, -1], right=[2, -1, -1],
                        value=[0.0, 1.0, 2.0], cover=[2.0, 1.0, 1.0])
              for k in range(routings)]
    model = TreeEnsemble(base_score=0.5, n_features=28,
                         trees=stumps * uses)
    assert stumps[0].leaves(x).dtype == np.uint8
    expected = model.margin(x)
    tracemalloc.start()
    try:
        assert model.margin(x).tolist() == expected.tolist()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one byte a row per live routing, and room for the sums and the walk
    assert peak < len(x) * (live + 16 * 8)


def test_stump_ensemble_on_thousands_of_rows():
    """The shape of a detector scoring the collective: 96 stumps on 5,600
    rows of 28 coarse columns, so many rows sit on the thresholds."""
    rng = np.random.default_rng(17)
    x = rng.normal(size=(5600, 28)).round(1)
    model = TreeEnsemble(base_score=-0.25, n_features=28)
    for _ in range(96):
        feature = int(rng.integers(28))
        model.trees.append(gbdt.Tree(
            feature=[feature, -1, -1],
            threshold=[float(rng.choice(x[:, feature])), 0.0, 0.0],
            left=[1, -1, -1], right=[2, -1, -1],
            value=[0.0, *rng.normal(scale=0.5, size=2)],
            cover=[2.0, 1.0, 1.0]))
    assert_predicts_row_walks(model, x)


# ------------------------------------------------ the per-call shape memo

class MemoSpy:
    """Counts the shapes train_gbdt builds, keeps its memos and checks each
    tree's leaf-routed margin update against ``tree.predict``."""

    def __init__(self, monkeypatch):
        self.shapes = 0
        self.memos = []
        self.trees = 0
        spy = self
        shape_init = gbdt._Shape.__init__
        memo_init = gbdt._ShapeMemo.__init__
        grow = gbdt._grow_tree

        def count_shape(shape, rows):
            spy.shapes += 1
            shape_init(shape, rows)

        def keep_memo(memo, *args):
            memo_init(memo, *args)
            spy.memos.append(memo)

        def checked_grow(memo, grad, hess, update):
            tree = grow(memo, grad, hess, update)
            assert update.tolist() == tree.predict(memo.xt.T).tolist()
            spy.trees += 1
            return tree

        monkeypatch.setattr(gbdt._Shape, "__init__", count_shape)
        monkeypatch.setattr(gbdt._ShapeMemo, "__init__", keep_memo)
        monkeypatch.setattr(gbdt, "_grow_tree", checked_grow)


def split_paths(model):
    """The distinct paths of (feature, threshold, side) splits from the
    root to the nodes of all the trees."""
    paths = set()
    for tree in model.trees:
        stack = [(0, ())]
        while stack:
            node, path = stack.pop()
            paths.add(path)
            if tree.feature[node] >= 0:
                split = (int(tree.feature[node]), float(tree.threshold[node]))
                stack += [(int(tree.left[node]), path + (split, "left")),
                          (int(tree.right[node]), path + (split, "right"))]
    return paths


@pytest.mark.parametrize("seed", range(10))
def test_memo_reuses_shapes_and_grows_the_loop_trees(seed, monkeypatch):
    """20 trees at depths 1 to 5 reach the same row sets again and again:
    the memo builds one shape per distinct path of splits, fewer than the
    nodes searched, and every tree still equals the loop reference's."""
    x, y = awkward_data(seed)
    for depth in range(1, 6):
        spy = MemoSpy(monkeypatch)
        params = GBDTParams(n_trees=20, depth=depth, learning_rate=0.3,
                            min_leaf=1 + seed % 3)
        model = assert_grows_loop_trees(x, y, params)
        nodes = sum(len(tree.feature) for tree in model.trees)
        assert spy.trees == 20
        assert spy.shapes == len(split_paths(model)) < nodes
        assert len(spy.memos) == 1 and spy.memos[0].root is not None


def test_leaf_routed_update_at_midpoints_that_round():
    """Neighbouring floats whose midpoint rounds to the lower value (1.0
    and the next float) or to the upper one (the next two floats): training
    and predict route the rows with the same ``<=`` test either way. Where
    the midpoint rounds up, the threshold is the lower value, so the split
    falls exactly at the cut and no leaf gets fewer than min_leaf rows."""
    one = 1.0
    up1 = np.nextafter(one, 2.0)
    up2 = np.nextafter(up1, 2.0)
    assert (one + up1) / 2.0 == one and (up1 + up2) / 2.0 == up2
    x = np.array([[one] * 6 + [up1] * 6 + [up2] * 6,
                  [0.0, 1.0, 2.0] * 6]).T
    y = np.array([0] * 6 + [1] * 6 + [0] * 3 + [1] * 3)
    for min_leaf in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            spy = MemoSpy(mp)
            model = assert_grows_loop_trees(
                x, y, GBDTParams(n_trees=8, depth=3, learning_rate=0.5,
                                 min_leaf=min_leaf))
        assert spy.trees == 8
        for tree in model.trees:
            leaves = tree.feature < 0
            assert tree.cover[leaves].min() >= min_leaf


def noise_data(rows=1000, features=20, seed=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, features)), rng.integers(0, 2, size=rows)


def test_memo_stays_within_its_budget(monkeypatch):
    """On continuous noise nearly every node has a row set of its own, and
    10 trees would keep more than MEMO_BYTES of shapes: the memo holds at
    most MEMO_BYTES, and the trees equal those grown with no bound."""
    x, y = noise_data()
    params = GBDTParams(n_trees=10, depth=3)
    spy = MemoSpy(monkeypatch)
    bounded = train_gbdt(x, y, params)
    budget = gbdt.MEMO_BYTES
    assert 0 < spy.memos[-1].nbytes <= budget
    monkeypatch.setattr(gbdt, "MEMO_BYTES", 2**62)
    unbounded = train_gbdt(x, y, params)
    assert spy.memos[-1].nbytes > budget
    assert bounded.to_json() == unbounded.to_json()


def test_memo_drops_the_column_orders_once_it_keeps_the_root(monkeypatch):
    """Only the root's search reads ``order`` and ``sorted_x``: a memo that
    keeps the root shape holds neither after the first tree, and one that
    cannot keep it searches the root of every tree from them. The models
    are equal."""
    x, y = noise_data(rows=300, features=8)
    params = GBDTParams(n_trees=6, depth=3)
    spy = MemoSpy(monkeypatch)
    grow = gbdt._grow_tree
    held = []

    def after_each_tree(memo, *args):
        tree = grow(memo, *args)
        held.append((memo.root is not None, memo.order is not None,
                     memo.sorted_x is not None))
        return tree

    monkeypatch.setattr(gbdt, "_grow_tree", after_each_tree)
    kept = train_gbdt(x, y, params)
    assert held == [(True, False, False)] * 6
    held.clear()
    monkeypatch.setattr(gbdt, "MEMO_BYTES", 0)
    rebuilt = train_gbdt(x, y, params)
    assert held == [(False, True, True)] * 6
    assert spy.trees == 12
    assert kept.to_json() == rebuilt.to_json()
