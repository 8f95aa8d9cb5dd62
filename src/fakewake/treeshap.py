"""Exact additive feature attributions for tree ensembles.

Path-dependent formulation: absent features are marginalized by descending
both branches weighted by training covers, so no background dataset is
needed. Attributions live in margin (log-odds) space: with the base value
``phi0`` (the ensemble's base score plus each tree's cover-weighted mean
leaf value), ``phi0 + sum(contributions) == margin(x)`` exactly.

The samples come as a matrix, one per row, explained in one call. Per
tree, the recursion runs once per distinct pattern of split decisions among
the rows, and each row receives its pattern's terms in the recursion's
order, so every row's contributions are bit-identical to those of a call on
a one-row matrix of that row alone. The patterns are told apart by integer
codes, 31 decisions at a time, so a tree of any depth groups its rows with
a 1-D ``np.unique``.

The recursion reads a tree's ``feature``, ``left``, ``right`` and ``cover``
and the decision pattern, and a leaf's ``value`` only as the last factor of
each of its terms, ``weight * (o - z) * value``. Boosted trees grown on one
dataset often share a structure and differ only in their values (the 50
trees of the en proxy have two structures, the zh one 19), so one call
memoises two things. Each routing, ``Tree.routing``, gets its decision
matrix and pattern codes once, for every tree of the call that routes that
way. Each (structure, pattern) gets its terms once, as (feature,
``weight * (o - z)``, leaf), and each tree multiplies them by its own leaf
values afterwards, the same two multiplications in the same order. The
memos live for one ``shap_values`` call. Each group of rows whose terms
name the same features in the same order receives them in one
``np.add.at``, which applies the additions to each cell one at a time in
term order, as a per-term loop does.
"""
from __future__ import annotations

import numpy as np

from .gbdt import Tree, TreeEnsemble, check_matrix


class _Path:
    """Unique-feature path with subset-size weights (one list per field)."""

    __slots__ = ("d", "z", "o", "w")

    def __init__(self):
        self.d: list[int] = []
        self.z: list[float] = []
        self.o: list[float] = []
        self.w: list[float] = []

    def copy(self) -> "_Path":
        fresh = _Path.__new__(_Path)
        fresh.d = self.d.copy()
        fresh.z = self.z.copy()
        fresh.o = self.o.copy()
        fresh.w = self.w.copy()
        return fresh


def _extend(path: _Path, pz: float, po: float, pi: int):
    length = len(path.d) + 1
    path.d.append(pi)
    path.z.append(pz)
    path.o.append(po)
    path.w.append(1.0 if length == 1 else 0.0)
    for i in range(length - 2, -1, -1):
        path.w[i + 1] += po * path.w[i] * (i + 1) / length
        path.w[i] = pz * path.w[i] * (length - 1 - i) / length


def _unwind(path: _Path, index: int) -> _Path:
    length = len(path.d)
    out = path.copy()
    one = out.o[index]
    zero = out.z[index]
    tail = out.w[length - 1]
    for j in range(length - 2, -1, -1):
        if one != 0:
            keep = out.w[j]
            out.w[j] = tail * length / ((j + 1) * one)
            tail = keep - out.w[j] * zero * (length - 1 - j) / length
        else:
            out.w[j] = out.w[j] * length / (zero * (length - 1 - j))
    for j in range(index, length - 1):
        out.d[j] = out.d[j + 1]
        out.z[j] = out.z[j + 1]
        out.o[j] = out.o[j + 1]
    out.d.pop()
    out.z.pop()
    out.o.pop()
    out.w.pop()
    return out


def _unwound_sum(path: _Path, index: int) -> float:
    """sum(unwind(path, index).w) without materializing the unwound path."""
    length = len(path.d)
    one = path.o[index]
    zero = path.z[index]
    total = 0.0
    tail = path.w[length - 1]
    for j in range(length - 2, -1, -1):
        if one != 0:
            part = tail * length / ((j + 1) * one)
            total += part
            tail = path.w[j] - part * zero * (length - 1 - j) / length
        else:
            total += path.w[j] * length / (zero * (length - 1 - j))
    return total


def _tree_terms(tree: Tree, goes_left: list[bool]
                ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Path-dependent TreeSHAP of one tree for a sample that goes left at
    node i iff ``goes_left[i]``: the features d, factors c and leaves l of
    its ``phi[d] += c * value[l]`` terms, in order. Hot branches come first,
    so the order of the terms depends on the sample's decisions. Only the
    tree's ``feature``, ``left``, ``right`` and ``cover`` are read, never
    its ``value``."""
    feature, left, right = (tree.feature.tolist(), tree.left.tolist(),
                            tree.right.tolist())
    covers = tree.cover.tolist()
    dims: list[int] = []
    factors: list[float] = []
    leaves: list[int] = []
    # depth first, hot child before cold: (node, parent path, pz, po, pi).
    # A node copies its parent's path before extending it, so both children
    # can share the parent's.
    stack = [(0, _Path(), 1.0, 1.0, -1)]
    while stack:
        node, path, pz, po, pi = stack.pop()
        path = path.copy()
        _extend(path, pz, po, pi)
        if feature[node] < 0:
            for i in range(1, len(path.d)):
                weight = _unwound_sum(path, i)
                dims.append(path.d[i])
                factors.append(weight * (path.o[i] - path.z[i]))
                leaves.append(node)
            continue
        feat = feature[node]
        if goes_left[node]:
            hot, cold = left[node], right[node]
        else:
            hot, cold = right[node], left[node]
        iz = io = 1.0
        found = -1
        for i in range(1, len(path.d)):
            if path.d[i] == feat:
                found = i
                break
        if found >= 0:
            iz, io = path.z[found], path.o[found]
            path = _unwind(path, found)
        cover = covers[node]
        stack.append((cold, path, iz * covers[cold] / cover, 0.0, feat))
        stack.append((hot, path, iz * covers[hot] / cover, io, feat))
    return tuple(dims), np.array(factors), np.array(leaves, dtype=np.int64)


_PACK = 31   # decisions per chunk of a pattern code


def _decision_patterns(tree: Tree, x: np.ndarray
                       ) -> tuple[list[int], np.ndarray, list[bytes],
                                  np.ndarray]:
    """The rows of x grouped by their decisions at the tree's internal
    nodes: the internal nodes, the distinct patterns (one decision row
    each), their bytes, and each row's pattern number."""
    inner = np.flatnonzero(tree.feature >= 0)
    decisions = x[:, tree.feature[inner]] <= tree.threshold[inner]
    # each row's pattern as an integer code: the decisions go into the code
    # _PACK nodes at a time, and the codes are renumbered densely (below the
    # row count) after each chunk so the next one fits in an int64
    pattern_of = np.zeros(len(x), dtype=np.int64)
    for start in range(0, len(inner), _PACK):
        chunk = decisions[:, start:start + _PACK]
        bits = chunk.astype(np.int64) @ (
            1 << np.arange(chunk.shape[1], dtype=np.int64))
        _, first, pattern_of = np.unique(
            pattern_of << chunk.shape[1] | bits,
            return_index=True, return_inverse=True)
    patterns = decisions[first]
    return (inner.tolist(), patterns, [p.tobytes() for p in patterns],
            pattern_of)


def _add_tree_shap(tree: Tree, x: np.ndarray, phi: np.ndarray,
                   terms_of: dict, patterns_of: dict):
    """Add one tree's attributions for every row of x to the rows of phi.

    The recursion reads a sample only through its decision at each internal
    node, so it runs once per distinct decision pattern, in any order: no
    row of phi gets additions from two patterns. The patterns are looked up
    in ``patterns_of`` by the tree's routing, and the terms in ``terms_of``
    by its structure and the pattern; each is computed and stored on a
    miss. The rows of patterns whose terms name the same features in the
    same order then receive their terms together in one ``np.add.at``,
    which adds each cell's terms in the recursion's order: every row sees
    exactly the additions a per-row run makes."""
    if tree.feature[0] < 0 or not len(x):
        return      # a lone leaf attributes nothing; no rows, nothing to add
    routing = tree.routing()
    grouped = patterns_of.get(routing)
    if grouped is None:
        grouped = patterns_of[routing] = _decision_patterns(tree, x)
    inner, patterns, pattern_keys, pattern_of = grouped
    structure = (tree.feature.tobytes(), tree.left.tobytes(),
                 tree.right.tobytes(), tree.cover.tobytes())
    goes_left = [False] * len(tree.feature)
    group_of: dict[tuple[int, ...], int] = {}   # dims -> group number
    group = np.empty(len(patterns), dtype=np.int64)
    factors, leaves = [], []
    for p, pattern in enumerate(pattern_keys):
        key = (structure, pattern)
        terms = terms_of.get(key)
        if terms is None:
            for node, left in zip(inner, patterns[p].tolist()):
                goes_left[node] = left
            terms = terms_of[key] = _tree_terms(tree, goes_left)
        dims, pattern_factors, pattern_leaves = terms
        group[p] = group_of.setdefault(dims, len(group_of))
        factors.append(pattern_factors)
        leaves.append(pattern_leaves)
    # (weight * (o - z)) * value, the product a per-row run takes
    values = np.array(factors) * tree.value[np.array(leaves)]
    group_of_row = group[pattern_of]
    # one add.at per group on the flat view of phi (C-contiguous, as
    # shap_values makes it): cell (r, d) is r * width + d, and the cells are
    # visited row by row, each row's terms in order. A 1-D index takes
    # numpy's fast path.
    flat, width = phi.reshape(-1), phi.shape[1]
    for dims, g in group_of.items():
        rows = np.flatnonzero(group_of_row == g)
        cells = rows[:, None] * width + np.array(dims)
        np.add.at(flat, cells.ravel(), values[pattern_of[rows]].ravel())


def shap_values(model: TreeEnsemble, x: np.ndarray) -> np.ndarray:
    """Per-feature contributions of each row of the matrix x, summed over
    all trees: one row per sample, one column per feature."""
    x = check_matrix(model, x)
    phi = np.zeros(x.shape)
    # the decision patterns of each tree routing and the terms of each
    # (tree structure, decision pattern), for this call: trees of one
    # ensemble often share a routing and a structure and differ in value
    terms_of: dict = {}
    patterns_of: dict = {}
    for tree in model.trees:
        _add_tree_shap(tree, x, phi, terms_of, patterns_of)
    return phi
