"""Random forest classifier built from scratch.

Each tree trains on a seeded bootstrap sample (n draws with replacement).
Nodes are grown best-first by Gini impurity decrease so the terminal-node
budget (``maxnodes``) binds exactly; candidate splits consider ``mtry``
features sampled without replacement per node, with thresholds at midpoints
between adjacent distinct sorted values, and both children must keep at
least ``nodesize`` bootstrap rows. Gini importances accumulate the weighted
impurity decrease per split feature and are normalized to sum to one.

Trees are grown by counting, not by copying rows:

- The bootstrap is kept as multiplicities: ``w[i]`` is how often row ``i``
  was drawn, and a node holds only the distinct rows it covers (about 63%
  of n at the root). Sizes, positive counts, ``value`` and ``n_samples``
  are sums of ``w`` and ``w * y``, the same integers a copied sample gives.
- A node that can still be split holds its histogram: the weighted (rows,
  positives) at or below every distinct value of every column, which is
  one product ``[w; w*y][:, rows] @ below[rows]`` with the 0/1 matrix of
  ``_CodedMatrix``. When a node is split, only the child with fewer rows
  is counted; the other child's histogram is the parent's minus it.
- Both children of a split are scored in one vectorized pass. Their
  features are drawn first, left child then right, the order in which
  nodes are considered, so the random stream does not depend on how the
  counting is batched.

The product runs in float32. Every sum is an integer no larger than n, so
it is exact for n <= 2**24 rows; ``fit_random_forest`` refuses more. The
0/1 matrix has n rows and one column per (column, distinct value except
the largest): n x ~190 float32 (~5.5 MB at 7,200 rows) on readmit's design
matrix, whose columns hold few distinct values. A column with u distinct
values costs u - 1 columns, so a continuous column costs about n.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..seeding import seed_sequence

MAX_ROWS = 2 ** 24   # float32 holds every integer count up to here exactly


@dataclass
class Tree:
    feature: np.ndarray     # int32; -1 marks a leaf
    threshold: np.ndarray   # float64
    left: np.ndarray        # int32
    right: np.ndarray       # int32
    value: np.ndarray       # float64, positive-class fraction of node rows
    n_samples: np.ndarray   # int32, bootstrap rows reaching the node

    def node_lines(self) -> list[str]:
        """One text line per node, in the model-file format: feature,
        threshold, left, right, value, n_samples; floats by ``repr``."""
        return [
            f"{f} {thr!r} {lt} {rt} {v!r} {ns}"
            for f, thr, lt, rt, v, ns in zip(
                self.feature.tolist(), self.threshold.tolist(), self.left.tolist(),
                self.right.tolist(), self.value.tolist(), self.n_samples.tolist())
        ]


@dataclass
class RandomForestModel:
    trees: list[Tree]
    ntree: int
    mtry: int
    nodesize: int
    maxnodes: int
    seed: int
    importances: np.ndarray
    column_names: list[str] | None = field(default=None, repr=False)


class _CodedMatrix:
    """Cumulative value indicators for split search by counting.

    Each column j is mapped once to dense ranks over its sorted distinct
    values ``uniques[j]``. ``below`` has one 0/1 column per (j, rank b)
    for every rank but the last, set on the rows whose rank in j is at most
    b: a candidate split ``x_j <= uniques[j][b]``. ``feature`` gives the
    column j of each ``below`` column and ``start`` the first ``below``
    column of each j.
    """

    def __init__(self, X):
        self.uniques, blocks = [], []
        for column in X.T:
            uniq, rank = np.unique(column, return_inverse=True)
            self.uniques.append(uniq)
            blocks.append(rank.reshape(-1, 1) <= np.arange(uniq.size - 1))
        self.below = np.concatenate(blocks, axis=1, dtype=np.float32)
        widths = [u.size - 1 for u in self.uniques]
        self.feature = np.repeat(np.arange(len(widths)), widths)
        self.start = np.cumsum(widths) - widths

    def threshold(self, k: int, counts_below) -> float:
        """Threshold of the split at ``below`` column k of a node whose
        weighted row counts per ``below`` column are ``counts_below``: the
        midpoint between k's value and the next larger value the node holds."""
        j = int(self.feature[k])
        b = k - int(self.start[j])
        column = counts_below[self.start[j]:self.start[j] + self.uniques[j].size - 1]
        nxt = int(np.searchsorted(column, column[b], side="right"))
        lo = float(self.uniques[j][b])
        hi = float(self.uniques[j][nxt])
        threshold = (lo + hi) / 2.0
        if not lo < threshold < hi:
            threshold = lo   # adjacent floats: keep the float and rank splits equal
        return threshold


def _best_splits(hists, sizes, positives, feats, nodesize, coded: _CodedMatrix):
    """(gain, ``below`` column) of the best split of each node, or None if
    no valid split among its drawn features lowers impurity.

    ``hists[i]`` holds node i's weighted (rows, positives) at or below each
    ``below`` column. Ties go to the earliest drawn feature, then to the
    lowest value. An empty rank needs no test of its own: its split equals
    that of the nearest non-empty rank below it, which wins the tie, or
    leaves no rows on the left and is invalid.
    """
    left_n, left_pos = hists.astype(np.float64).transpose(1, 0, 2)
    n = np.array(sizes, dtype=np.float64)[:, None]
    pos = np.array(positives, dtype=np.float64)[:, None]
    right_n = n - left_n
    right_pos = pos - left_pos
    node_impurity = 2.0 * pos * (n - pos) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        children = (
            2.0 * left_pos * (left_n - left_pos) / left_n
            + 2.0 * right_pos * (right_n - right_pos) / right_n
        )
    gains = node_impurity - children
    mtry = feats.shape[1]
    order = np.full((len(feats), len(coded.uniques)), mtry)
    order[np.arange(len(feats))[:, None], feats] = np.arange(mtry)
    order = order[:, coded.feature]
    gains[(order == mtry) | (left_n < nodesize) | (right_n < nodesize)] = -np.inf
    best = gains.max(axis=1)
    first = np.where(gains == best[:, None], order, mtry).argmin(axis=1)
    return [(gain, k) if gain > 0.0 else None for gain, k in zip(best.tolist(), first.tolist())]


def _fit_tree(coded: _CodedMatrix, y, mtry, nodesize, maxnodes, rng):
    n, d = coded.below.shape[0], len(coded.uniques)
    importances = np.zeros(d)
    w = np.bincount(rng.integers(0, n, n), minlength=n)
    wy = w * y
    counts = np.stack([w, wy]).astype(np.float32)

    feature, threshold, left, right, value, n_samples = [], [], [], [], [], []

    def add_node(size, positives):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(positives / size)
        n_samples.append(size)
        return len(feature) - 1

    heap = []
    counter = itertools.count()

    def consider(nodes, parent_hist=None):
        """Draw features for each (node, rows, size, positives) in order and
        queue the best split of each node that has one."""
        feats = np.array([rng.choice(d, size=mtry, replace=False) for _ in nodes])
        open_ = [i for i, (_, _, size, pos) in enumerate(nodes)
                 if size >= 2 * nodesize and 0 < pos < size]
        if not open_ or coded.feature.size == 0:   # nothing to split, or every column constant
            return
        if parent_hist is None:
            hists = [counts @ coded.below]
        else:
            rows_l, rows_r = nodes[0][1], nodes[1][1]
            rows = rows_l if rows_l.size <= rows_r.size else rows_r
            counted = counts[:, rows] @ coded.below[rows]
            rest = parent_hist - counted
            hists = [counted, rest] if rows is rows_l else [rest, counted]
        splits = _best_splits(
            np.stack([hists[i] for i in open_]), [nodes[i][2] for i in open_],
            [nodes[i][3] for i in open_], feats[open_], nodesize, coded)
        for i, split in zip(open_, splits):
            if split is not None:
                heapq.heappush(heap, (-split[0], next(counter), split, nodes[i], hists[i]))

    positives = int(wy.sum())
    consider([(add_node(n, positives), np.flatnonzero(w), n, positives)])
    leaves = 1
    while heap and leaves < maxnodes:
        _, _, (gain, k), (node_id, rows, size, pos), hist = heapq.heappop(heap)
        feat = int(coded.feature[k])
        importances[feat] += gain
        feature[node_id] = feat
        threshold[node_id] = coded.threshold(k, hist[0])
        go_left = coded.below[rows, k] > 0
        size_l, pos_l = int(hist[0, k]), int(hist[1, k])
        size_r, pos_r = size - size_l, pos - pos_l
        left[node_id] = add_node(size_l, pos_l)
        right[node_id] = add_node(size_r, pos_r)
        consider([(left[node_id], rows[go_left], size_l, pos_l),
                  (right[node_id], rows[~go_left], size_r, pos_r)], hist)
        leaves += 1
    tree = Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
        n_samples=np.array(n_samples, dtype=np.int32),
    )
    return tree, importances


def fit_random_forest(
    X,
    y,
    ntree: int,
    mtry: int,
    nodesize: int,
    maxnodes: int,
    seed: int,
    column_names: list[str] | None = None,
) -> RandomForestModel:
    """Tree t grows from child t of ``seed_sequence(seed).spawn(ntree)``;
    per-tree importances are summed in tree order."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    n, d = X.shape
    if n == 0:
        raise ValueError("empty training set")
    if not 1 <= mtry <= d:
        raise ValueError(f"mtry {mtry} out of range for {d} features")
    if nodesize < 1 or maxnodes < 1 or ntree < 1:
        raise ValueError("ntree, nodesize and maxnodes must be positive")
    if n > MAX_ROWS:
        raise ValueError(f"{n} training rows exceed the {MAX_ROWS} a tree can count exactly")
    coded = _CodedMatrix(X)
    trees = []
    importances = np.zeros(d)
    for child in seed_sequence(seed).spawn(ntree):
        rng = np.random.Generator(np.random.PCG64(child))
        tree, partial = _fit_tree(coded, y, mtry, nodesize, maxnodes, rng)
        trees.append(tree)
        importances += partial
    total = importances.sum()
    if total > 0:
        importances = importances / total
    return RandomForestModel(
        trees=trees,
        ntree=ntree,
        mtry=mtry,
        nodesize=nodesize,
        maxnodes=maxnodes,
        seed=seed,
        importances=importances,
        column_names=column_names,
    )


def _tree_scores(tree: Tree, X) -> np.ndarray:
    node = np.zeros(X.shape[0], dtype=np.int32)
    for _ in range(len(tree.feature)):
        active = np.flatnonzero(tree.feature[node] >= 0)
        if active.size == 0:
            break
        cur = node[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


def rf_predict_proba(model: RandomForestModel, X) -> np.ndarray:
    """Mean over trees of leaf positive-class fractions."""
    X = np.asarray(X, dtype=np.float64)
    total = np.zeros(X.shape[0])
    for tree in model.trees:
        total += _tree_scores(tree, X)
    return total / len(model.trees)


def rf_importances(model: RandomForestModel) -> list[tuple[str, float]]:
    """(feature, importance) pairs in descending importance; ties keep
    column order."""
    names = model.column_names or [f"x{i}" for i in range(model.importances.size)]
    order = sorted(range(len(names)), key=lambda i: (-model.importances[i], i))
    return [(names[i], float(model.importances[i])) for i in order]

