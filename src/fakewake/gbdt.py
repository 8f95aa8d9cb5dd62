"""Gradient-boosted decision trees with logistic loss, built from scratch so
attributions can use exact per-node training covers.

A tree is six parallel numpy arrays indexed by node, numbered in pre-order
(a node, its left subtree, then its right subtree). ``feature[i] < 0`` marks
node i as a leaf holding ``value[i]`` (already scaled by the learning rate);
internal nodes route ``x[feature] <= threshold`` to ``left``, else ``right``.
``cover[i]`` is the number of training rows that reached node i. The same
arrays serve training, serialization, prediction and TreeSHAP.

Training is exact greedy split finding: every feature column is sorted once
per ``train_gbdt`` call, and each node searches its live features at once
over its rows in that presorted order. Two rules keep the search small
without changing a single split:

* a cut can only fall between two distinct sorted values with at least
  ``min_leaf`` rows on each side, so the gain is computed at those valid
  cuts only;
* a feature with no valid cut at a node (a constant one, say) cannot get
  one on any subset of the node's rows, so it is dropped for the node's
  whole subtree.

Prediction takes one sample or a matrix; the rows of a matrix walk each
tree together, one level at a time.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import write_json
from .errors import DegenerateData, ShapeMismatch

_REG_LAMBDA = 1.0   # L2 on leaf weights, keeps pure-leaf Newton steps finite
_MIN_GAIN = 1e-12


@dataclass
class Tree:
    feature: np.ndarray     # int64, -1 at leaves
    threshold: np.ndarray   # float64, 0.0 at leaves
    left: np.ndarray        # int64, -1 at leaves
    right: np.ndarray       # int64, -1 at leaves
    value: np.ndarray       # float64, 0.0 at internal nodes
    cover: np.ndarray       # float64

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=float)
        self.cover = np.asarray(self.cover, dtype=float)

    def is_leaf(self, node: int) -> bool:
        return bool(self.feature[node] < 0)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf value of each row of the matrix x; the rows still moving
        descend one level per step."""
        node = np.zeros(len(x), dtype=np.int64)
        moving = np.arange(len(x))
        while moving.size:
            at = node[moving]
            feat = self.feature[at]
            inner = feat >= 0
            moving, at, feat = moving[inner], at[inner], feat[inner]
            go_left = x[moving, feat] <= self.threshold[at]
            node[moving] = np.where(go_left, self.left[at], self.right[at])
        return self.value[node]

    def expected_value(self) -> float:
        """Cover-weighted mean output (the empty-coalition expectation)."""
        def walk(node: int) -> float:
            if self.is_leaf(node):
                return self.value[node]
            wl = self.cover[self.left[node]] / self.cover[node]
            return wl * walk(self.left[node]) + (1 - wl) * walk(self.right[node])
        return walk(0)


@dataclass
class TreeEnsemble:
    trees: list[Tree] = field(default_factory=list)
    base_score: float = 0.0
    learning_rate: float = 0.1
    n_features: int = 0

    def margin(self, x: np.ndarray) -> float | np.ndarray:
        """Log-odds of one sample, or of each row of a matrix."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n_features:
            raise ShapeMismatch(
                f"expected {self.n_features} features, got {x.shape}")
        rows = x.reshape(-1, self.n_features)
        # trees add one after another from zero and the base score comes
        # last, the same additions as base + sum(per-tree values)
        total = np.zeros(len(rows))
        for tree in self.trees:
            total += tree.predict(rows)
        margins = self.base_score + total
        return float(margins[0]) if x.ndim == 1 else margins

    def predict_proba(self, x: np.ndarray) -> float | np.ndarray:
        """Confidence that x belongs to the positive class; one value per
        row when x is a matrix."""
        margin = self.margin(x)
        # math.exp per value: np.exp may differ in the last bit
        if isinstance(margin, float):
            return 1.0 / (1.0 + math.exp(-margin))
        return np.array([1.0 / (1.0 + math.exp(-m)) for m in margin.tolist()])

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> int | np.ndarray:
        proba = self.predict_proba(x)
        if isinstance(proba, float):
            return int(proba >= threshold)
        return (proba >= threshold).astype(int)

    def to_json(self) -> dict:
        return {
            "base_score": self.base_score,
            "learning_rate": self.learning_rate,
            "n_features": self.n_features,
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "value": t.value.tolist(),
                    "cover": t.cover.tolist(),
                }
                for t in self.trees
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TreeEnsemble":
        ensemble = cls(base_score=payload["base_score"],
                       learning_rate=payload["learning_rate"],
                       n_features=payload["n_features"])
        for t in payload["trees"]:
            ensemble.trees.append(Tree(
                feature=t["feature"], threshold=t["threshold"],
                left=t["left"], right=t["right"],
                value=t["value"], cover=t["cover"],
            ))
        return ensemble

    def save(self, path):
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "TreeEnsemble":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class GBDTParams:
    n_trees: int = 100
    depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 2

    def __post_init__(self):
        if self.n_trees < 1 or self.depth < 1 or self.min_leaf < 1:
            raise ValueError("n_trees, depth and min_leaf must be at least 1")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")


def _find_split(live: np.ndarray, sorted_rows: np.ndarray,
                sorted_x: np.ndarray, grad: np.ndarray, min_leaf: int):
    """Best (feature, threshold) of a node by residual variance reduction.

    Row j of ``sorted_rows`` holds the node's rows in ascending order of
    feature ``live[j]`` (ties by row index) and row j of ``sorted_x`` their
    values of that feature. A cut after sorted position i is valid when the
    values on either side of it differ and each side keeps at least
    ``min_leaf`` rows. The gain is computed at the valid cuts only; the
    first feature with the largest gain wins, and within it the first
    position.

    Returns the three arrays narrowed to the features that have a valid
    cut, and the split or None. A feature without one has a single value
    on all its rows but at most ``min_leaf - 1`` at either end of its
    order, so no subset of these rows can give it a cut: the whole subtree
    of the node drops it.
    """
    n = sorted_rows.shape[1]
    # cuts after positions lo..hi-1 leave min_leaf rows on each side
    lo, hi = min_leaf - 1, n - min_leaf
    valid = sorted_x[:, lo + 1:hi + 1] != sorted_x[:, lo:hi]
    has_cut = valid.any(axis=1)
    if not has_cut.all():
        live, sorted_rows, sorted_x, valid = (
            a[has_cut] for a in (live, sorted_rows, sorted_x, valid))
    # feature-major order, so the first maximum is the tie-break winner
    feats, cuts = np.divmod(np.flatnonzero(valid), hi - lo)
    if not len(feats):
        return live, sorted_rows, sorted_x, None
    cuts += lo
    prefix = np.cumsum(grad[sorted_rows], axis=1)
    total = prefix[:, -1]
    left_sum = prefix[feats, cuts]
    counts = cuts + 1   # rows left of the cut
    # gain = left_sum**2 / counts + right_sum**2 / (n - counts) - total**2 / n,
    # evaluated in place and in that order. total**2 is taken one numpy
    # scalar at a time: a scalar ** 2 goes through pow() and an array ** 2
    # through a multiply, which can differ in the last bit.
    right_sum = total[feats] - left_sum
    gain = np.square(left_sum)
    gain /= counts
    np.square(right_sum, out=right_sum)
    right_sum /= n - counts
    gain += right_sum
    gain -= (np.array([t ** 2 for t in total]) / n)[feats]
    best = int(np.argmax(gain))
    if not gain[best] > _MIN_GAIN:
        return live, sorted_rows, sorted_x, None
    j, cut = feats[best], cuts[best]
    low, high = sorted_x[j, cut:cut + 2]
    return live, sorted_rows, sorted_x, (int(live[j]), (low + high) / 2.0)


def _grow_tree(x: np.ndarray, order: np.ndarray, sorted_x: np.ndarray,
               grad: np.ndarray, hess: np.ndarray,
               params: GBDTParams) -> Tree:
    """One tree on x; row f of ``order`` is the stable ascending sort of
    column f and row f of ``sorted_x`` the column in that order."""
    nodes: dict[str, list] = {k: [] for k in
                              ("feature", "threshold", "left", "right",
                               "value", "cover")}

    def build(rows: np.ndarray, live: np.ndarray, sorted_rows: np.ndarray,
              sorted_x: np.ndarray, depth: int) -> int:
        # rows ascending; row j of sorted_rows: the same rows in the order
        # of feature live[j], which is what a stable argsort of
        # x[rows, live[j]] gives, and row j of sorted_x their values.
        # Both are None on the last level, which holds leaves only.
        node = len(nodes["feature"])
        for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1),
                           ("right", -1), ("value", 0.0)):
            nodes[key].append(blank)
        nodes["cover"].append(float(len(rows)))
        split = None
        if depth < params.depth and len(rows) >= 2 * params.min_leaf:
            live, sorted_rows, sorted_x, split = _find_split(
                live, sorted_rows, sorted_x, grad, params.min_leaf)
        if split is None:
            nodes["value"][node] = params.learning_rate * float(
                grad[rows].sum() / (hess[rows].sum() + _REG_LAMBDA))
            return node
        feat, threshold = split
        go_left = x[:, feat] <= threshold
        nodes["feature"][node] = feat
        nodes["threshold"][node] = threshold
        for side, goes in (("left", go_left), ("right", ~go_left)):
            child = rows[goes[rows]]
            child_sorted = child_x = None
            if depth + 1 < params.depth:
                keep = goes[sorted_rows].ravel()
                shape = (len(live), len(child))
                child_sorted = np.compress(keep, sorted_rows).reshape(shape)
                child_x = np.compress(keep, sorted_x).reshape(shape)
            nodes[side][node] = build(child, live, child_sorted, child_x,
                                      depth + 1)
        return node

    build(np.arange(len(x)), np.arange(len(order)), order, sorted_x, 0)
    return Tree(**nodes)


def train_gbdt(features: np.ndarray, labels: np.ndarray,
               params: GBDTParams = GBDTParams()) -> TreeEnsemble:
    """Logistic-loss boosting; deterministic for fixed inputs."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or len(x) != len(y):
        raise ShapeMismatch("features must be 2-D with one label per row")
    pos = float(y.sum())
    if pos == 0 or pos == len(y):
        raise DegenerateData("training data has a single class")
    if min(pos, len(y) - pos) < 2:
        raise DegenerateData("need at least 2 samples per class")

    base = math.log(pos / (len(y) - pos))
    ensemble = TreeEnsemble(base_score=base,
                            learning_rate=params.learning_rate,
                            n_features=x.shape[1])
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1, kind="stable")
    sorted_x = np.take_along_axis(xt, order, axis=1)
    margins = np.full(len(y), base)
    for _ in range(params.n_trees):
        prob = 1.0 / (1.0 + np.exp(-margins))
        grad = y - prob
        hess = prob * (1.0 - prob)
        tree = _grow_tree(x, order, sorted_x, grad, hess, params)
        ensemble.trees.append(tree)
        margins += tree.predict(x)
    return ensemble
