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

A node's rows, live features, presorted rows, valid cuts and their
thresholds depend only on its row set, not on the gradients, and the trees
of one call keep reaching the same row sets (the 50 trees of the en proxy
make 310 nodes from 11 of them). So each call memoises these as a shape per
path of splits from the root, and each tree redoes only the work that
depends on its gradients: the prefix sums, the gains at the cached cuts, the
``argmax`` and the leaf sums, with the same expressions in the same order.
The memo lives for one call and holds at most ``MEMO_BYTES`` of arrays; past
that, a new shape serves only the tree that built it. After each tree the
margins move by the leaf values of the rows training sent to each leaf,
which is what ``predict`` gives: both route with ``x[:, f] <= threshold``.

The prefix sums are the search's largest cost, and each feature's is one
chain of additions, each waiting on the one before. A shape therefore keeps
its presorted rows two features to a lane, and the gradients gathered
through them are summed as ``complex128``, one feature in each component:
one ``np.add.accumulate`` runs two chains per pass. A complex add is an
IEEE add of the real parts and one of the imaginary parts, and accumulate
copies the first element and adds the rest in order, as ``np.cumsum`` does
along one float row, so each prefix sum keeps its bits. The leaf sums stay
two float ``np.sum`` calls: ``np.sum`` adds in pairwise blocks, and it
blocks a complex array other than a float one, so the gradients and
hessians summed as one complex array mostly differ in the last bit.

Prediction takes a matrix with one sample per row and ``n_features``
columns. ``Tree.leaves`` routes it through a tree node by node: the root
compares one column for all the rows, each internal node splits only the
rows that reached it, and each leaf writes its node number into its rows.
Every row meets the same ``x[row, f] <= threshold`` tests as a walk of that
row alone, so it reaches the same leaf. Boosted trees grown on one dataset
keep repeating their routing, ``(feature, threshold, left, right)``, and
differ in their values (the 50 trees of the en proxy have 2 routings, a
96-stump detector 32 to 47), so ``margin`` walks each distinct routing of a
call once and adds each tree's ``value.take(leaves)`` one tree after
another from zero, the base score last, exactly as the per-row sum does.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import write_json
from .errors import DegenerateData, ShapeMismatch
from .params import GBDTParams

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

    def routing(self) -> tuple[bytes, bytes, bytes, bytes]:
        """What sends a row to a leaf: trees equal in it route every row to
        the same leaf node, whatever their values and covers."""
        return (self.feature.tobytes(), self.threshold.tobytes(),
                self.left.tobytes(), self.right.tobytes())

    def leaves(self, x: np.ndarray) -> np.ndarray:
        """Leaf node of each row of the matrix x, in the smallest unsigned
        dtype that holds the tree's node numbers. The root compares one
        column for all the rows, every other internal node splits only the
        rows that reached it, and each leaf writes its number into its
        rows."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        out = np.zeros(len(x), dtype=np.min_scalar_type(len(feature) - 1))
        if feature[0] < 0:
            return out      # a lone leaf
        go = x[:, feature[0]] <= threshold[0]
        # depth first: (node, the rows that reach it)
        stack = [(right[0], np.flatnonzero(~go)),
                 (left[0], np.flatnonzero(go))]
        while stack:
            node, rows = stack.pop()
            f = feature[node]
            if f < 0:
                out[rows] = node
                continue
            go = x[:, f][rows] <= threshold[node]
            stack.append((right[node], rows.compress(~go)))
            stack.append((left[node], rows.compress(go)))
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf value of each row of the matrix x."""
        return self.value.take(self.leaves(x))


def check_matrix(model: "TreeEnsemble", x) -> np.ndarray:
    """x as a float matrix of ``model.n_features`` columns; any other shape
    raises ``ShapeMismatch``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ShapeMismatch(f"expected a matrix of {model.n_features} "
                            f"features per row, got shape {x.shape}")
    return x


@dataclass
class TreeEnsemble:
    trees: list[Tree] = field(default_factory=list)
    base_score: float = 0.0
    learning_rate: float = 0.1
    n_features: int = 0

    def margin(self, x: np.ndarray) -> np.ndarray:
        """Log-odds of each row of the matrix x."""
        x = check_matrix(self, x)
        # trees that route alike share one walk, kept until the last of them
        # has added its values. The trees add one after another from zero
        # and the base score comes last, the same additions as
        # base + sum(per-tree values).
        routings = [tree.routing() for tree in self.trees]
        last = {routing: i for i, routing in enumerate(routings)}
        walked: dict[tuple, np.ndarray] = {}
        total = np.zeros(len(x))
        for i, (tree, routing) in enumerate(zip(self.trees, routings)):
            leaves = walked.get(routing)
            if leaves is None:
                leaves = walked[routing] = tree.leaves(x)
            total += tree.value.take(leaves)
            if last[routing] == i:
                del walked[routing]
        return self.base_score + total

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Confidence that each row of the matrix x belongs to the positive
        class."""
        # math.exp per value: np.exp may differ in the last bit
        return np.array([1.0 / (1.0 + math.exp(-m))
                         for m in self.margin(x).tolist()])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """1 for each row of x whose confidence is at least 0.5, else 0."""
        return (self.predict_proba(x) >= 0.5).astype(int)

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


# Bytes of arrays the shapes of one train_gbdt call may hold (each shape's
# own arrays, summed). The memo needs 0.53 MB on the en proxy (683 x 28, 50
# or 100 trees of depth 3) and 1.26 MB on the zh one (878 x 16, 50 trees),
# 2.51 MB at 100 zh trees, so the budget holds the default proxies with room
# to spare. On 2000 x 30 standard normal noise (numpy seed 3), 100 trees of
# depth 3 would keep 867 shapes and 323 MB, nearly all of them reached
# once; under the budget they keep 17 shapes, 5.6 MB, and train about as
# fast as with no memo (min of 7, interleaved, three runs: 0.67, 0.63 and
# 0.64 s against 0.62, 0.64 and 0.62 s; one CPU of a shared 2-vCPU VM,
# numpy 2.4.6). MB here are 2**20 bytes.
MEMO_BYTES = 8 * 2**20


class _Shape:
    """What a node's row set alone fixes, for every tree that reaches it.

    ``rows`` ascending. A node that may split and has a valid cut also has
    its live features (those that still have one) and ``pairs``, their
    presorted rows two features to a lane: ``pairs[j, :, 0]`` holds the
    rows in the stable ascending order of feature ``live[2 * j]`` and
    ``pairs[j, :, 1]`` those of ``live[2 * j + 1]``; with an odd number of
    live features the last lane's second half repeats its first, and no
    cut reads it. Viewed as ``complex128``, the gradients gathered through
    ``pairs`` hold one feature in each component, and one
    ``np.add.accumulate`` along the rows gives every feature's prefix sums
    with the bits of a float ``np.cumsum`` (see the module docstring).
    ``ends[j]`` is the position, in the gathered array flattened, of live
    feature j's total.

    The valid cuts are feature-major: for cut k, the live index
    ``feats[k]``, the position ``flat[k]`` of the prefix sum it falls
    after, the ``counts[k]`` rows left of it, the ``rest[k]`` right of it
    and its ``thresholds[k]``, the midpoint of the two values it falls
    between, or the lower value where the midpoint rounds up to the upper
    one. ``children`` maps a cut index to the child shapes of that split;
    ``kept`` says whether the memo holds the shape.
    """

    __slots__ = ("rows", "live", "pairs", "ends", "feats", "flat", "counts",
                 "rest", "thresholds", "children", "kept", "nbytes")

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.live = self.pairs = self.feats = None
        self.children: dict[int, tuple[_Shape, _Shape]] = {}
        self.kept = False
        self.nbytes = rows.nbytes

    def search(self, live: np.ndarray, sorted_rows: np.ndarray,
               sorted_x: np.ndarray, min_leaf: int):
        """Find the valid cuts, given the node's live features in the
        layout of ``sorted_rows`` and ``sorted_x`` (row j: feature
        ``live[j]``'s rows and values in its order).

        A cut after sorted position i is valid when the values on either
        side of it differ and each side keeps at least ``min_leaf`` rows. A
        feature without one has a single value on all the rows but at most
        ``min_leaf - 1`` at either end of its order, so no subset of these
        rows can give it a cut: the node's whole subtree drops it."""
        n = len(self.rows)
        # cuts after positions lo..hi-1 leave min_leaf rows on each side
        lo, hi = min_leaf - 1, n - min_leaf
        low, high = sorted_x[:, lo:hi], sorted_x[:, lo + 1:hi + 1]
        valid = high != low
        has_cut = valid.any(axis=1)
        if not has_cut.any():
            return
        if not has_cut.all():
            live, sorted_rows, low, high, valid = (
                a[has_cut] for a in (live, sorted_rows, low, high, valid))
        # lane j: live features 2j and 2j + 1; an odd count leaves a last
        # lane of the last feature twice
        half = len(live) // 2
        self.pairs = np.empty((len(live) - half, n, 2),
                              dtype=sorted_rows.dtype)
        lanes = self.pairs.transpose(0, 2, 1)
        lanes[:, 0] = sorted_rows[0::2]
        lanes[:half, 1] = sorted_rows[1::2]
        lanes[half:, 1] = sorted_rows[-1]
        feats, cuts = np.nonzero(valid)
        cuts += lo
        self.live, self.feats = live, feats
        # where live feature k's prefix sum through sorted position 0 sits
        k = np.arange(len(live))
        first = k // 2 * 2 * n + k % 2
        self.flat = first.take(feats) + 2 * cuts
        self.ends = first + 2 * (n - 1)
        self.counts = cuts + 1
        self.rest = n - self.counts
        low, high = low[valid], high[valid]
        mid = (low + high) / 2.0
        # between neighbouring floats the midpoint can round up to the
        # upper value; the lower one then splits the rows at the cut
        self.thresholds = np.where(mid == high, low, mid)
        self.nbytes += sum(a.nbytes for a in (
            live, self.pairs, self.ends, feats, self.flat, self.counts,
            self.rest, self.thresholds))

    def prefix_sums(self, grad: np.ndarray) -> np.ndarray:
        """``grad`` in the layout of ``pairs``, each lane summed along its
        rows: ``take(flat)`` gives each valid cut's left sum and
        ``take(ends)`` each live feature's total."""
        prefix = grad.take(self.pairs)
        lanes = prefix.view(np.complex128)[..., 0]
        np.add.accumulate(lanes, axis=1, out=lanes)
        return prefix

    def best_cut(self, grad: np.ndarray) -> int | None:
        """Index of the valid cut with the largest residual variance
        reduction under ``grad`` (the first one on ties, which is the first
        feature and then the first position), or None when no cut gains."""
        if self.feats is None:
            return None
        feats, n = self.feats, len(self.rows)
        prefix = self.prefix_sums(grad)
        total = prefix.take(self.ends)
        # gain = left_sum**2 / counts + right_sum**2 / (n - counts) - total**2 / n,
        # evaluated in place and in that order. total**2 is taken one Python
        # float at a time: a scalar ** 2 goes through pow() and an array
        # ** 2 or np.square through a multiply, which can differ in the
        # last bit. gain starts as left_sum.
        gain = prefix.take(self.flat)
        right_sum = total.take(feats)
        right_sum -= gain
        np.square(gain, out=gain)
        gain /= self.counts
        np.square(right_sum, out=right_sum)
        right_sum /= self.rest
        gain += right_sum
        squares = np.array([t ** 2 for t in total.tolist()])
        squares /= n
        gain -= squares.take(feats)
        best = int(gain.argmax())
        return best if gain[best] > _MIN_GAIN else None


class _ShapeMemo:
    """The shapes of one train_gbdt call, as a tree of splits from the
    root shape, holding at most ``MEMO_BYTES`` bytes of arrays."""

    def __init__(self, x: np.ndarray, params: GBDTParams):
        self.xt = np.ascontiguousarray(x.T)   # row f: column f of x
        self.params = params
        # row f of order: the stable ascending sort of column f, and row f
        # of sorted_x the column in that order. Only the root's search
        # reads them: they go once the memo keeps the root shape, and
        # serve every tree's root search if it cannot
        self.order = np.argsort(self.xt, axis=1, kind="stable")
        self.sorted_x = np.take_along_axis(self.xt, self.order, axis=1)
        self.nbytes = 0
        self.root = None

    def _keep(self, *shapes: _Shape) -> bool:
        size = sum(s.nbytes for s in shapes)
        if self.nbytes + size > MEMO_BYTES:
            return False
        self.nbytes += size
        for s in shapes:
            s.kept = True
        return True

    def root_shape(self) -> _Shape:
        if self.root is not None:
            return self.root
        shape = _Shape(np.arange(self.xt.shape[1]))
        if self._searchable(shape, 0):
            shape.search(np.arange(len(self.order)), self.order,
                         self.sorted_x, self.params.min_leaf)
        if self._keep(shape):
            self.root = shape
            self.order = self.sorted_x = None
        return shape

    def _searchable(self, shape: _Shape, depth: int) -> bool:
        return (depth < self.params.depth
                and len(shape.rows) >= 2 * self.params.min_leaf)

    def children(self, shape: _Shape, cut: int,
                 depth: int) -> tuple[_Shape, _Shape]:
        """The child shapes of splitting ``shape``, at ``depth``, at its
        valid cut ``cut``: rows with ``x[:, f] <= threshold`` go left."""
        pair = shape.children.get(cut)
        if pair is not None:
            return pair
        feat = shape.live[shape.feats[cut]]
        go_left = self.xt[feat] <= shape.thresholds[cut]
        pair = (self._child(shape, go_left, depth + 1),
                self._child(shape, ~go_left, depth + 1))
        if shape.kept and self._keep(*pair):
            shape.children[cut] = pair
        return pair

    def _child(self, parent: _Shape, goes: np.ndarray, depth: int) -> _Shape:
        rows = parent.rows[goes[parent.rows]]
        shape = _Shape(rows)
        if self._searchable(shape, depth):
            live = parent.live
            # row j: the parent's rows in the order of live feature j, read
            # from its lanes (a last lane's repeat left out), then the rows
            # of this node in that order
            parent_rows = parent.pairs.transpose(0, 2, 1).reshape(
                -1, len(parent.rows))[:len(live)]
            keep = goes[parent_rows].ravel()
            sorted_rows = np.compress(keep, parent_rows).reshape(
                len(live), len(rows))
            sorted_x = self.xt.take(live[:, None] * self.xt.shape[1]
                                    + sorted_rows)
            shape.search(live, sorted_rows, sorted_x, self.params.min_leaf)
        return shape


def _grow_tree(memo: _ShapeMemo, grad: np.ndarray, hess: np.ndarray,
               update: np.ndarray) -> Tree:
    """One tree on the memo's rows. Each row's leaf value goes into
    ``update``, at the leaf training sent the row to."""
    params = memo.params
    feature, threshold, left, right, value, cover = [], [], [], [], [], []
    # a stack, not a recursive closure: that would be a reference cycle
    # keeping the memo alive until the garbage collector runs. Left on top,
    # so nodes are numbered in pre-order.
    stack = [(memo.root_shape(), 0, None, 0)]
    while stack:
        shape, depth, side, parent = stack.pop()
        node = len(feature)
        if side is not None:
            side[parent] = node
        rows = shape.rows
        cover.append(float(len(rows)))
        left.append(-1)
        right.append(-1)
        cut = shape.best_cut(grad)
        if cut is None:
            leaf = params.learning_rate * float(
                grad.take(rows).sum() / (hess.take(rows).sum() + _REG_LAMBDA))
            feature.append(-1)
            threshold.append(0.0)
            value.append(leaf)
            update[rows] = leaf
            continue
        feature.append(int(shape.live[shape.feats[cut]]))
        threshold.append(shape.thresholds[cut])
        value.append(0.0)
        lo, hi = memo.children(shape, cut, depth)
        stack.append((hi, depth + 1, right, node))
        stack.append((lo, depth + 1, left, node))
    return Tree(feature, threshold, left, right, value, cover)


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
    memo = _ShapeMemo(x, params)
    margins = np.full(len(y), base)
    update = np.empty(len(y))
    for _ in range(params.n_trees):
        prob = 1.0 / (1.0 + np.exp(-margins))
        grad = y - prob
        hess = prob * (1.0 - prob)
        ensemble.trees.append(_grow_tree(memo, grad, hess, update))
        margins += update
    return ensemble
