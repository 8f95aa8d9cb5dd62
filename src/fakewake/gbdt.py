"""Gradient-boosted decision trees with logistic loss, built from scratch so
attributions can use exact per-node training covers.

A tree is six parallel numpy arrays indexed by node, numbered in pre-order
(a node, its left subtree, then its right subtree). ``feature[i] < 0`` marks
node i as a leaf holding ``value[i]`` (already scaled by the learning rate);
internal nodes route ``x[feature] <= threshold`` to ``left``, else ``right``.
``cover[i]`` is the number of training rows that reached node i. The same
arrays serve training, serialization, prediction and TreeSHAP.

Training is exact greedy split finding: every feature column is sorted once
per ``train_gbdt`` call, and each node searches all features at once over
its rows in that presorted order. Prediction takes one sample or a matrix;
the rows of a matrix walk each tree together, one level at a time.
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


def _find_split(xt: np.ndarray, sorted_rows: np.ndarray, grad: np.ndarray,
                min_leaf: int) -> tuple[int, float] | None:
    """Best (feature, threshold) of a node by residual variance reduction.

    Row f of ``sorted_rows`` holds the node's rows in ascending order of
    feature f (ties by row index); ``xt`` is the training matrix
    transposed. A feature wins only with a strictly larger gain than every
    feature before it.
    """
    n = sorted_rows.shape[1]
    if n < 2:
        return None
    xs = np.take_along_axis(xt, sorted_rows, axis=1)
    # candidate cut after position i (1-based count on the left)
    counts = np.arange(1, n)
    valid = (xs[:, 1:] != xs[:, :-1]) & (counts >= min_leaf) \
        & (n - counts >= min_leaf)
    del xs
    prefix = np.cumsum(grad[sorted_rows], axis=1)
    total = prefix[:, -1:]
    left_sum = prefix[:, :-1]
    # gain = left_sum**2 / counts + right_sum**2 / (n - counts) - total**2 / n,
    # evaluated in place and in that order. total**2 is taken one numpy
    # scalar at a time: a scalar ** 2 goes through pow() and an array ** 2
    # through a multiply, which can differ in the last bit.
    right_sum = total - left_sum
    gain = np.square(left_sum)
    gain /= counts
    np.square(right_sum, out=right_sum)
    right_sum /= n - counts
    gain += right_sum
    gain -= np.array([t ** 2 for t in total[:, 0]])[:, None] / n
    gain[~valid] = -np.inf
    cut = np.argmax(gain, axis=1)
    best = gain[np.arange(len(gain)), cut]
    best = np.where(best > _MIN_GAIN, best, -np.inf)
    feat = int(np.argmax(best))
    if best[feat] == -np.inf:
        return None
    lo, hi = xt[feat, sorted_rows[feat, cut[feat]:cut[feat] + 2]]
    return feat, (lo + hi) / 2.0


def _grow_tree(x: np.ndarray, xt: np.ndarray, order: np.ndarray,
               grad: np.ndarray, hess: np.ndarray,
               params: GBDTParams) -> Tree:
    """One tree on x; ``xt`` is x transposed and row f of ``order`` the
    stable ascending sort of column f."""
    nodes: dict[str, list] = {k: [] for k in
                              ("feature", "threshold", "left", "right",
                               "value", "cover")}

    def build(rows: np.ndarray, sorted_rows: np.ndarray, depth: int) -> int:
        # rows ascending; row f of sorted_rows: the same rows in the order
        # of feature f, which is what a stable argsort of x[rows, f] gives
        node = len(nodes["feature"])
        for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1),
                           ("right", -1), ("value", 0.0)):
            nodes[key].append(blank)
        nodes["cover"].append(float(len(rows)))
        split = None
        if depth < params.depth and len(rows) >= 2 * params.min_leaf:
            split = _find_split(xt, sorted_rows, grad, params.min_leaf)
        if split is None:
            nodes["value"][node] = params.learning_rate * float(
                grad[rows].sum() / (hess[rows].sum() + _REG_LAMBDA))
            return node
        feat, threshold = split
        go_left = x[:, feat] <= threshold
        to_left = go_left[sorted_rows]
        n_feat, n_left = len(sorted_rows), int(to_left[0].sum())
        nodes["feature"][node] = feat
        nodes["threshold"][node] = threshold
        nodes["left"][node] = build(
            rows[go_left[rows]],
            sorted_rows[to_left].reshape(n_feat, n_left), depth + 1)
        nodes["right"][node] = build(
            rows[~go_left[rows]],
            sorted_rows[~to_left].reshape(n_feat, len(rows) - n_left),
            depth + 1)
        return node

    build(np.arange(len(x)), order, 0)
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
    margins = np.full(len(y), base)
    for _ in range(params.n_trees):
        prob = 1.0 / (1.0 + np.exp(-margins))
        grad = y - prob
        hess = prob * (1.0 - prob)
        tree = _grow_tree(x, xt, order, grad, hess, params)
        ensemble.trees.append(tree)
        margins += tree.predict(x)
    return ensemble
