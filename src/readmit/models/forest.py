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
- Both children of a split are scored in one vectorized pass over the
  ``below`` columns of their drawn features only, in draw order, so the
  first maximum is the tie winner. Their features are drawn first, left
  child then right, the order in which nodes are considered, so the random
  stream does not depend on how the counting is batched.

The product runs in float32. Every sum is an integer no larger than n, so
it is exact for n <= 2**24 rows; ``fit_random_forest`` refuses more.

``below`` is built once per fit: a plain sort per column gives the
distinct values (no ``np.unique(return_inverse=True)``, which argsorts),
then each block of rows is compared with every candidate value at once,
straight into one preallocated float32 array.
It is C-ordered, n x (distinct values - 1 summed over columns), because a
node gathers whole rows of it; n x ~190 (~5.5 MB at 7,200 rows) on
readmit's design matrix, whose columns hold few distinct values. A
continuous column costs about n columns. -0.0 and 0.0 are one value.

Per-call overhead, not arithmetic, bounds a node: on 7,200 rows a split
costs ~100 us, of which the histogram product is ~15 us and the feature
draws ~25 us; the rest is a few dozen numpy calls on arrays of a few
hundred entries, the heap and bookkeeping. So the per-node code keeps its
numpy calls few, scores the two children of a split together and enters
``np.errstate`` once per fit.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ..seeding import seed_sequence

MAX_ROWS = 2 ** 24   # float32 holds every integer count up to here exactly
_CODE_ROWS = 32      # rows per block when building the 0/1 matrix


@dataclass
class Tree:
    feature: np.ndarray     # int32; -1 marks a leaf
    threshold: np.ndarray   # float64
    left: np.ndarray        # int32
    right: np.ndarray       # int32
    value: np.ndarray       # float64, positive-class fraction of node rows
    n_samples: np.ndarray   # int32, bootstrap rows reaching the node


@dataclass
class RandomForestModel:
    trees: list[Tree]
    ntree: int
    mtry: int
    nodesize: int
    maxnodes: int
    seed: int
    importances: np.ndarray


class _CodedMatrix:
    """Cumulative value indicators for split search by counting.

    ``uniques[j]`` holds the sorted distinct values of column j. ``below``
    has one 0/1 column per (j, b) for every b but the last, set on the rows
    where ``x_j <= uniques[j][b]``: the candidate split at that value.
    ``feature`` gives the column j of each ``below`` column and ``start``
    the first ``below`` column of each j, and ``columns[j]`` lists j's
    ``below`` columns.
    """

    def __init__(self, X):
        # A sort and a neighbour test, not np.unique: the first plain
        # np.unique call imports numpy.ma (~1 MB resident), and
        # return_inverse costs an argsort.
        self.uniques = []
        for j, column in enumerate(X.T):
            ordered = np.sort(column)
            if np.isnan(ordered[-1]):   # NaN sorts last
                raise ValueError(f"column {j} holds NaN")
            self.uniques.append(ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))])
        widths = [u.size - 1 for u in self.uniques]
        self.feature = np.repeat(np.arange(len(widths)), widths)
        self.start = np.cumsum(widths) - widths
        values = np.concatenate([u[:-1] for u in self.uniques])
        self.below = np.empty((X.shape[0], values.size), dtype=np.float32)
        for r in range(0, X.shape[0], _CODE_ROWS):
            np.less_equal(X[r:r + _CODE_ROWS].take(self.feature, axis=1), values,
                          out=self.below[r:r + _CODE_ROWS])
        self.columns = [list(range(s, s + w)) for s, w in zip(self.start.tolist(), widths)]

    def threshold(self, j: int, k: int, counts_below) -> float:
        """Threshold of the split at ``below`` column k (of column j) of a
        node whose weighted row counts per ``below`` column are
        ``counts_below``: the midpoint between k's value and the next larger
        value the node holds."""
        uniq = self.uniques[j]
        s = int(self.start[j])
        column = counts_below[s:s + uniq.size - 1]
        b = k - s
        lo = float(uniq[b])
        hi = float(uniq[column.searchsorted(column[b], side="right")])
        threshold = (lo + hi) / 2.0
        if not lo < threshold < hi:
            threshold = lo   # adjacent floats: keep the float and rank splits equal
        return threshold


def _fit_tree(coded: _CodedMatrix, y, mtry, nodesize, maxnodes, rng):
    n, d = coded.below.shape[0], len(coded.uniques)
    below, feature, columns = coded.below, coded.feature, coded.columns
    width = below.shape[1]
    w = np.bincount(rng.integers(0, n, n), minlength=n)
    wy = w * y
    counts = np.stack([w, wy]).astype(np.float32)
    sizes, positives = [n], [int(wy.sum())]
    splits = []                  # (node, feature, threshold, left child), in split order
    importances = [0.0] * d
    heap = []
    counter = itertools.count()

    def consider(nodes, parent_hist=None):
        """Draw features for each (node, rows, size, positives) in order and
        queue the best split of each node that has one. Ties go to the
        earliest drawn feature, then to the lowest value."""
        feats = [rng.choice(d, size=mtry, replace=False).tolist() for _ in nodes]
        open_ = [i for i, (_, _, size, pos) in enumerate(nodes)
                 if size >= 2 * nodesize and 0 < pos < size]
        if not open_ or not width:   # nothing to split, or every column constant
            return
        # hist[:, i] holds node i's weighted (rows, positives) at or below
        # each below column
        if parent_hist is None:
            hist = (counts @ below)[:, None]
        else:
            small = int(nodes[1][1].size < nodes[0][1].size)
            rows = nodes[small][1]
            hist = np.empty((2, 2, width), dtype=np.float32)
            hist[:, small] = counts.take(rows, axis=1) @ below.take(rows, axis=0)
            np.subtract(parent_hist, hist[:, small], out=hist[:, 1 - small])
        # Score only the drawn features' below columns, in draw order; idx
        # indexes hist.reshape(2, -1). An empty rank needs no test of its
        # own: its split equals that of the nearest non-empty rank below it,
        # which wins the tie, or leaves no rows on the left and is invalid.
        idx, lengths, totals = [], [], []
        for i in open_:
            found = [k + i * width for f in feats[i] for k in columns[f]]
            idx += found
            lengths.append(len(found))
            _, _, size, pos = nodes[i]
            totals.append((size, pos, 2.0 * pos * (size - pos) / size))
        if not idx:
            return
        tot = np.repeat(np.array(totals).T, lengths, axis=1)
        sides = np.empty((2, 2, len(idx)))           # (left, right) x (rows, positives)
        sides[0] = hist.reshape(2, -1)[:, idx]
        np.subtract(tot[:2], sides[0], out=sides[1])
        side_n, side_pos = sides[:, 0], sides[:, 1]
        gini = 2.0 * side_pos * (side_n - side_pos) / side_n
        gains = tot[2] - (gini[0] + gini[1])
        gains[side_n.min(axis=0) < nodesize] = -np.inf
        lo = 0
        for i, length in zip(open_, lengths):
            hi = lo + length
            if length:
                best = lo + int(gains[lo:hi].argmax())
                gain = float(gains[best])
                if gain > 0.0:
                    node, node_rows, size, pos = nodes[i]
                    heapq.heappush(heap, (-gain, next(counter), idx[best] - i * width,
                                          node, node_rows, size, pos, hist[:, i]))
            lo = hi

    consider([(0, np.flatnonzero(w), n, positives[0])])
    while heap and len(splits) + 1 < maxnodes:
        neg_gain, _, k, node, rows, size, pos, hist = heapq.heappop(heap)
        j = int(feature[k])
        importances[j] += -neg_gain
        left = len(sizes)
        splits.append((node, j, coded.threshold(j, k, hist[0]), left))
        go_left = below[rows, k] > 0
        size_l, pos_l = int(hist[0, k]), int(hist[1, k])
        sizes += [size_l, size - size_l]
        positives += [pos_l, pos - pos_l]
        consider([(left, rows[go_left], size_l, pos_l),
                  (left + 1, rows[~go_left], size - size_l, pos - pos_l)], hist)
    m = len(sizes)
    tree = Tree(
        feature=np.full(m, -1, dtype=np.int32),
        threshold=np.zeros(m),
        left=np.full(m, -1, dtype=np.int32),
        right=np.full(m, -1, dtype=np.int32),
        value=np.array(positives) / np.array(sizes),
        n_samples=np.array(sizes, dtype=np.int32),
    )
    if splits:
        nodes, feats, thresholds, lefts = (list(v) for v in zip(*splits))
        tree.feature[nodes] = feats
        tree.threshold[nodes] = thresholds
        tree.left[nodes] = lefts
        tree.right[nodes] = np.array(lefts) + 1
    return tree, np.array(importances)


def fit_random_forest(
    X,
    y,
    ntree: int,
    mtry: int,
    nodesize: int,
    maxnodes: int,
    seed: int,
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
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 on empty sides, masked
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


def rf_importances(model: RandomForestModel, names: list[str]) -> list[tuple[str, float]]:
    """(name, importance) pairs in descending importance, ``names`` giving
    the model's columns in order (e.g. ``ModelBundle.column_names``); ties
    keep column order."""
    return sorted(zip(names, model.importances.tolist(), strict=True), key=lambda p: -p[1])
