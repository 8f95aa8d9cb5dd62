"""One slow reference per layer of the pipeline, and the helpers test
modules share: they import from here and from ``conftest`` only.

Each fast layer must equal its exact reference bit for bit: distance
``loop_alignment``, front ``brute_force_front``, GBDT training
``loop_train`` (``loop_ensemble``), prediction ``loop_predict_one``
(``walk_margin``), TreeSHAP ``loop_tree_shap`` (``shap_rows``) and search
``full_loop_run``. The exhaustive alignment ``brute_force_english`` and the
subset Shapley values ``brute_force_shap`` are met within a tolerance.
``references()`` puts the exact references in place of the package's
functions, and ``run_stages`` runs the pipeline through ``cli.main``.
"""
import hashlib
import importlib
import itertools
import math
import pkgutil
import random
import sys
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np
import pytest

from fakewake import cli, distance, evolve, gbdt, treeshap
from fakewake.archive import (EvaluatedWord, FuzzyArchive, FuzzyCandidate,
                              Objectives)
from fakewake.distance import DistanceConfig, objective
from fakewake.errors import (BothEmpty, DegenerateData, ShapeMismatch,
                             UnknownPhoneme)
from fakewake.gbdt import GBDTParams, Tree, TreeEnsemble, check_matrix
from fakewake.genome import crossover, decode_text, mutate, seed_genomes
from fakewake.phonemes import BOUNDARY, inventory
from fakewake.pinyin import (ChineseWord, Syllable, render_syllable,
                             unit_tables)
from fakewake.treeshap import _extend, _Path, _unwind, _unwound_sum


# ------------------------------------------------ tables and words

def table_symbols(table):
    """A ``FeatureTable``'s symbols, sorted."""
    return sorted(table.index)


def table_distance(table, p, q):
    """The distance between symbols p and q of a ``FeatureTable``; a symbol
    it lacks raises ``UnknownPhoneme`` naming it, p first."""
    for sym in (p, q):
        if sym not in table.index:
            raise UnknownPhoneme(sym)
    return table.rows[table.index[p]][table.index[q]]


def weighted_hamming(features, weights) -> list[list[float]]:
    """The distance matrix of a feature table: for each pair of rows of
    -1/0/1 features, the halved gaps weighted by ``weights`` over their
    sum."""
    m = np.asarray([[int(v) for v in row] for row in features], dtype=float)
    w = np.array([float(x) for x in weights])
    return (np.abs(m[:, None] - m[None]) / 2.0 @ w / w.sum()).tolist()


def bits(rows) -> list[list[str]]:
    """Each value's exact bits, so that 0.0 and -0.0 differ."""
    return [[value.hex() for value in row] for row in rows]


def pattern_token(conv, token):
    """A token's phonemes as the per-word reader before ``G2P.read`` gave
    them: the lexicon's, or the rules' of each grapheme of the converter's
    pattern."""
    if token in conv.lexicon:
        return list(conv.lexicon[token])
    phones = []
    for grapheme in conv._pattern.findall(token):
        match = conv.rules.get(grapheme)
        if match:
            phones.extend(match[1])
    return phones


def pattern_word(conv, text, token=pattern_token):
    """Each whitespace-separated token read alone, ``BOUNDARY`` between
    tokens."""
    out = []
    for idx, tok in enumerate(text.split()):
        if idx:
            out.append(BOUNDARY)
        out.extend(token(conv, tok))
    return out


def render_word(word):
    """The word's syllables rendered one by one, joined by spaces."""
    return " ".join(render_syllable(s) for s in word.syllables)


def decode_chinese(g) -> ChineseWord:
    """The genome's word, one syllable per (initial, final, tone) triple;
    an unpronounceable pair raises ``InvalidCombination``."""
    return ChineseWord(tuple(Syllable(*g[i:i + 3])
                             for i in range(0, len(g), 3)))


# ------------------------------------------------ distance

def english_unit(a, b, cfg=DistanceConfig()):
    """The cost of substituting phoneme ``a`` for ``b``."""
    if a == b:
        return 0.0
    if a == BOUNDARY or b == BOUNDARY:
        return cfg.space_cost
    return table_distance(inventory(), a, b)


def loop_alignment(s1, s2, unit):
    """Minimum (deletions + insertions + 2 * ``unit`` substitution costs)
    / (m + n), one cell of the table at a time."""
    m, n = len(s1), len(s2)
    if m + n == 0:
        raise BothEmpty("cannot compare two empty sequences")
    prev = [float(j) for j in range(n + 1)]
    for i in range(1, m + 1):
        cur = [float(i)] + [0.0] * n
        for j in range(1, n + 1):
            sub = prev[j - 1] + 2.0 * unit(s1[i - 1], s2[j - 1])
            cur[j] = min(sub, prev[j] + 1.0, cur[j - 1] + 1.0)
        prev = cur
    return prev[n] / (m + n)


def loop_english(w1, w2, cfg=DistanceConfig()):
    """``english_dist``, errors included, one distance lookup per cell."""
    return loop_alignment(w1, w2, lambda a, b: english_unit(a, b, cfg))


def loop_levenshtein(s1, s2):
    """The edit-distance baseline: substitutions of unequal symbols cost
    2, so every cell is a whole number."""
    return loop_alignment(s1, s2, lambda a, b: float(a != b))


def brute_force_english(w1, w2, cfg=DistanceConfig()):
    """Exhaustive minimum over all monotone alignments."""
    m, n = len(w1), len(w2)
    best = math.inf
    for k in range(min(m, n) + 1):
        for left in itertools.combinations(range(m), k):
            for right in itertools.combinations(range(n), k):
                cost = (m - k) + (n - k) + 2.0 * sum(
                    english_unit(w1[i], w2[j], cfg)
                    for i, j in zip(left, right))
                best = min(best, cost)
    return best / (m + n)


# ------------------------------------------------ Pareto front

def brute_force_front(objectives) -> list[int]:
    """Indices of the members that no member dominates (at least as good in
    both objectives and better in one), ascending: every pair compared."""
    wake = np.array([o.wake_rate for o in objectives])
    gap = np.array([o.dissimilarity for o in objectives])
    return [i for i in range(len(objectives))
            if not np.any((wake >= wake[i]) & (gap >= gap[i])
                          & ((wake > wake[i]) | (gap > gap[i])))]


# ------------------------------------------------ GBDT

NODE_KEYS = ("feature", "threshold", "left", "right", "value", "cover")


def add_node(nodes, cover=1.0) -> int:
    """Append a leaf of value 0.0 to ``nodes``, a dict of ``NODE_KEYS``
    lists, and return its index."""
    for key, blank in zip(NODE_KEYS, (-1, 0.0, -1, -1, 0.0, cover)):
        nodes[key].append(blank)
    return len(nodes["feature"]) - 1


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
    tree = {k: [] for k in NODE_KEYS}

    def leaf_value(g, h):
        return params.learning_rate * float(g.sum() / (h.sum() + 1.0))

    def build(rows, depth):
        node = add_node(tree, float(len(rows)))
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


def loop_ensemble(features, labels, params=GBDTParams()) -> TreeEnsemble:
    """``loop_train``'s trees as a ``TreeEnsemble``, behind ``train_gbdt``'s
    checks: a stand-in for it."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or len(x) != len(y):
        raise ShapeMismatch("features must be 2-D with one label per row")
    pos = float(y.sum())
    if pos == 0 or pos == len(y):
        raise DegenerateData("training data has a single class")
    if min(pos, len(y) - pos) < 2:
        raise DegenerateData("need at least 2 samples per class")
    return TreeEnsemble([Tree(**t) for t in loop_train(x, y, params)],
                        base_score=loop_base(y),
                        learning_rate=params.learning_rate,
                        n_features=x.shape[1])


def walk_margin(model, x) -> np.ndarray:
    """``TreeEnsemble.margin``: per row, the base score plus the sum of
    each tree's ``loop_predict_one``."""
    x = check_matrix(model, x)
    trees = model.to_json()["trees"]
    return np.array([model.base_score
                     + sum(loop_predict_one(t, row) for t in trees)
                     for row in x], dtype=float)


# ------------------------------------------------ TreeSHAP

def loop_tree_shap(tree, x, phi):
    """Add one tree's contributions for the sample x to ``phi``: the
    recursion that reads x at every node."""
    def recurse(node, path, pz, po, pi):
        path = path.copy()
        _extend(path, pz, po, pi)
        if tree.feature[node] < 0:
            for i in range(1, len(path.d)):
                weight = _unwound_sum(path, i)
                phi[path.d[i]] += weight * (path.o[i] - path.z[i]) \
                    * float(tree.value[node])
            return
        feat = int(tree.feature[node])
        if x[feat] <= tree.threshold[node]:
            hot, cold = int(tree.left[node]), int(tree.right[node])
        else:
            hot, cold = int(tree.right[node]), int(tree.left[node])
        iz = io = 1.0
        found = -1
        for i in range(1, len(path.d)):
            if path.d[i] == feat:
                found = i
                break
        if found >= 0:
            iz, io = path.z[found], path.o[found]
            path = _unwind(path, found)
        cover = float(tree.cover[node])
        recurse(hot, path, iz * float(tree.cover[hot]) / cover, io, feat)
        recurse(cold, path, iz * float(tree.cover[cold]) / cover, 0.0, feat)

    recurse(0, _Path(), 1.0, 1.0, -1)


def shap_rows(model, x) -> np.ndarray:
    """``shap_values``: ``loop_tree_shap`` of each tree, row by row."""
    x = check_matrix(model, x)
    phi = np.zeros((len(x), model.n_features))
    for row, out in zip(x, phi):
        for tree in model.trees:
            loop_tree_shap(tree, row, out)
    return phi


def mean_below(tree, node=0):
    """Cover-weighted mean leaf value below a node; at the root, the tree's
    empty-coalition expectation."""
    if tree.feature[node] < 0:
        return tree.value[node]
    wl = tree.cover[tree.left[node]] / tree.cover[node]
    return (wl * mean_below(tree, tree.left[node])
            + (1 - wl) * mean_below(tree, tree.right[node]))


def base_value(ensemble):
    """phi0: the base score plus each tree's empty-coalition expectation."""
    base = ensemble.base_score
    for tree in ensemble.trees:
        base += mean_below(tree)
    return base


def conditional_expectation(tree, x, subset, node=0):
    if tree.feature[node] < 0:
        return tree.value[node]
    feat = tree.feature[node]
    if feat in subset:
        child = tree.left[node] if x[feat] <= tree.threshold[node] \
            else tree.right[node]
        return conditional_expectation(tree, x, subset, child)
    w_left = tree.cover[tree.left[node]] / tree.cover[node]
    return (w_left * conditional_expectation(tree, x, subset, tree.left[node])
            + (1 - w_left) * conditional_expectation(tree, x, subset,
                                                     tree.right[node]))


def brute_force_shap(ensemble, x):
    """Exhaustive-subset Shapley per tree (null players drop out)."""
    phi = np.zeros(ensemble.n_features)
    for tree in ensemble.trees:
        feats = sorted({f for f in tree.feature if f >= 0})
        m = len(feats)
        if m == 0:
            continue
        values = {}
        for r in range(m + 1):
            for subset in itertools.combinations(feats, r):
                values[frozenset(subset)] = conditional_expectation(
                    tree, x, set(subset))
        for j in feats:
            others = [f for f in feats if f != j]
            for r in range(m):
                weight = (math.factorial(r) * math.factorial(m - r - 1)
                          / math.factorial(m))
                for subset in itertools.combinations(others, r):
                    s = frozenset(subset)
                    phi[j] += weight * (values[s | {j}] - values[s])
    return phi


# ------------------------------------------------ search

def full_loop_run(wake_word, wake_text, oracle, cfg, variation, dist_cfg,
                  seed, oracle_spec="sim", trace=None):
    """``evolve.run`` without the fixed-point stop: every one of
    ``cfg.generations`` generations decodes its population and calls
    ``query_many``, even once the population no longer changes. It writes
    no trace."""
    rng = np.random.default_rng(seed)
    archive = FuzzyArchive(
        wake_word=wake_text, language=wake_word.language, seed=seed,
        config={**asdict(cfg), **asdict(variation)}, oracle_spec=oracle_spec)
    cache = {"": Objectives(0.0, 0.0)}
    dissimilarity = objective(wake_text, wake_word.language, dist_cfg)
    population = seed_genomes(wake_word, cfg.population_size, rng)
    for generation in range(1, cfg.generations + 1):
        texts = [decode_text(genome) for genome in population]
        unseen = {}
        for genome, text in zip(population, texts):
            if text not in cache:
                unseen.setdefault(text, genome)
        counts = oracle.query_many(list(unseen), cfg.trials)
        for (text, genome), wakes in zip(unseen.items(), counts):
            obj = cache[text] = Objectives(wakes / cfg.trials,
                                           dissimilarity([text])[0])
            archive.query_count += cfg.trials
            if (obj.wake_rate >= cfg.fuzzy_threshold
                    and obj.dissimilarity > 0):
                archive.candidates[text] = FuzzyCandidate(
                    text, tuple(genome), obj, generation)
            elif obj.wake_rate == 0.0:
                archive.rejected[text] = EvaluatedWord(
                    text, obj.wake_rate, obj.dissimilarity, generation)
        archive.generations_run = generation
        objectives = [cache[text] for text in texts]
        front = brute_force_front(objectives)
        if len(front) >= 2:
            parents = [population[i] for i in front]
        else:
            ranked = sorted(range(len(objectives)),
                            key=lambda i: (-objectives[i].wake_rate,
                                           -objectives[i].dissimilarity))
            parents = [population[i] for i in ranked[:2]]
        if generation == cfg.generations:
            break
        next_pop = list(parents[:cfg.population_size]) \
            if cfg.elitism else []
        while len(next_pop) < cfg.population_size:
            i = int(rng.integers(len(parents)))
            j = int(rng.integers(len(parents)))
            p1, p2 = parents[i], parents[j]
            if rng.random() < variation.crossover_rate:
                c1, c2 = crossover(p1, p2, rng)
            else:
                c1, c2 = p1, p2
            for child in (c1, c2):
                if len(next_pop) < cfg.population_size:
                    next_pop.append(mutate(child, variation, rng))
        population = next_pop
    return archive


# ------------------------------------------------ archives and collectives

def make_archive(fuzzy, rejected, language="en"):
    """An "alexa" archive of the ``fuzzy`` words, at wake rate 0.9 and
    rising dissimilarity, and the ``rejected`` ones."""
    archive = FuzzyArchive(wake_word="alexa", language=language, seed=0,
                           config={}, oracle_spec="sim")
    for i, word in enumerate(fuzzy):
        archive.candidates[word] = FuzzyCandidate(
            word, (1,), Objectives(0.9, 0.01 * (i + 1)), 1)
    for word in rejected:
        archive.rejected[word] = EvaluatedWord(word, 0.0, 0.3, 1)
    return archive


def zh_collective(path, seed=31, size=300):
    """A seeded collective of ``size`` distinct valid four-syllable words,
    sorted, then two lines that do not parse (an unpronounceable pair, a
    syllable without tone), which mitigate skips."""
    pairs = sorted(unit_tables().valid_pairs)
    rng = random.Random(seed)
    words = set()
    while len(words) < size:
        words.add(" ".join(
            render_syllable(Syllable(*rng.choice(pairs), rng.randint(1, 4)))
            for _ in range(4)))
    lines = sorted(words) + ["xāng dù xiǎo dù", "xiao du xiao du"]
    path.write_text("".join(w + "\n" for w in lines), encoding="utf-8")


# ------------------------------------------------ the pipeline

def run_stages(config, root, seed=None, main=None) -> dict[str, int]:
    """Each stage's exit code from ``main`` (``cli.main`` by default) on
    ``config``, each writing to ``root / stage``. ``explain`` and
    ``mitigate`` read the archive of ``generate`` and take ``--seed seed``
    when one is given."""
    main = main or cli.main
    codes = {}
    for stage in ("generate", "explain", "mitigate"):
        argv = [stage, "--config", str(config), "--output", str(root / stage)]
        if stage != "generate":
            argv += ["--archive", str(root / "generate" / "archive.json")]
            if seed is not None:
                argv += ["--seed", str(seed)]
        codes[stage] = main(argv)
    return codes


def digests(tree):
    """sha256 of every file under ``tree``, by relative path."""
    return {str(p.relative_to(tree)): hashlib.sha256(p.read_bytes()).digest()
            for p in sorted(tree.rglob("*")) if p.is_file()}


def rebind(monkeypatch, original, replacement):
    """Put ``replacement`` wherever a fakewake module binds ``original``.
    Every module of the package is imported first: one loaded while the
    replacement is in place would bind it and keep it."""
    import fakewake
    for info in pkgutil.iter_modules(fakewake.__path__):
        importlib.import_module(f"fakewake.{info.name}")
    for name, module in list(sys.modules.items()):
        if name == "fakewake" or name.startswith("fakewake."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


@contextmanager
def references():
    """The package with its exact references in place of the fast layers,
    for the block."""
    with pytest.MonkeyPatch.context() as patch:
        for original, replacement in (
                (gbdt.train_gbdt, loop_ensemble),
                (treeshap.shap_values, shap_rows),
                (evolve.run, full_loop_run),
                (evolve.non_dominated_front, brute_force_front),
                (distance.english_many, lambda seqs, w2, cfg=DistanceConfig():
                    [loop_english(w1, w2, cfg) for w1 in seqs]),
                (distance.levenshtein_many, lambda seqs, target: np.array(
                    [loop_levenshtein(s, target) for s in seqs],
                    dtype=float))):
            rebind(patch, original, replacement)
        patch.setattr(TreeEnsemble, "margin", walk_margin)
        yield
