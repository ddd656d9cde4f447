"""Random forest classifier built from scratch.

Each tree trains on a seeded bootstrap sample (n draws with replacement).
Nodes are grown best-first by Gini impurity decrease so the terminal-node
budget (``maxnodes``) binds exactly; candidate splits consider ``mtry``
features sampled without replacement per node (the columns of the node's
``mtry`` smallest of ``d`` uniform keys, in key order), with thresholds at
midpoints between adjacent distinct sorted values, and both children must
keep at least ``nodesize`` bootstrap rows. Gini importances sum the
weighted impurity decrease of each split per feature and are normalized to
sum to one. They are a function of the trees (``_importances``): a split's
decrease is recomputed from its node's and children's ``n_samples`` and
``value``, as growth scored it, so a forest cut from another gets its own.

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
- Trees grow in blocks of ``_BLOCK_TREES`` (32), in lockstep rounds. A
  round pops the best queued node of every tree that still has budget and
  splits it: the rows of all popped nodes are routed in one gather, and
  all their children go to one ``consider``. That call expands the drawn
  features of every open node into their ``below`` columns with a few
  numpy calls, scores all of them in one pass and takes each node's winner
  as the first hit of its segment's maximum, in draw order, so the
  earliest drawn feature wins a tie.

Lockstep growth changes no tree. Each tree keeps its own generator and
draws in the order it would alone: its bootstrap, then one row of ``d``
double keys per created node (closed nodes too), for its root and then for
the left and the right child of each split, in split order. A round takes
each tree's rows in one ``random((k, d))`` call, k being 1 at the root and
2 for a split's children, and ranks the keys of every open node of the
round in one sort. A double costs one 64-bit output of the stream, so node
i's keys depend only on the nodes created before it. The tree's heap, tie
counter and histograms are its own, and the float32 sums are
exact in any order (below). So a tree grown in a block is the tree grown
alone, a smaller forest is a prefix of a larger one, and the tree grown to
a smaller ``maxnodes`` is the larger-budget tree cut after its first
splits: the same first nodes, where a node split later is a leaf.

``fit_random_forest(..., grown=forest)`` uses this: given a forest grown
with the same ``mtry``, ``nodesize`` and ``seed`` on the same rows, with
at least ``ntree`` trees and at least ``maxnodes``, it grows nothing and
returns that forest's first ``ntree`` trees, each cut after its first
``maxnodes - 1`` splits (``_cut``). Split k made nodes 2k+1 and 2k+2, so
the cut keeps the first ``2 * maxnodes - 1`` nodes and makes a leaf of
every kept node whose left child lies beyond them. The result equals, bit
for bit, the forest grown with those parameters.

Memory bounds the block: every queued node holds its own (2, C) float32
histogram, ~1.5 KB at readmit's C ~ 190, and a tree queues at most about
``maxnodes`` of them, so a block at ``maxnodes`` 300 holds <= ~15 MB.
``rf_predict_proba`` scores the same blocks: it walks every (tree, row)
pair of a block through the trees' concatenated nodes at once and adds
the trees' scores in tree order, so a block of 32 trees on 8,000 rows
holds ~2 MB per index array.

The product runs in float32. Every sum is an integer no larger than n, so
it is exact for n <= 2**24 rows; ``fit_random_forest`` refuses more.

``below`` is built once per fit: a column that holds only its min and max
needs no sort, the others get a plain sort and a neighbour test (no
``np.unique(return_inverse=True)``, which argsorts), then each block of
rows is compared with every candidate value at once, straight into one
preallocated float32 array.
It is C-ordered, n x (distinct values - 1 summed over columns), because a
node gathers whole rows of it; n x ~190 (~5.5 MB at 7,200 rows) on
readmit's design matrix, whose columns hold few distinct values. A
continuous column costs about n columns. -0.0 and 0.0 are one value.

Per-call overhead, not arithmetic, bounds a split: on 7,200 rows a tree
grown on its own pays ~100 us per split, of which the histogram product
is ~15 us. So the numpy calls of a round serve the whole block, and
``np.errstate`` is entered once per fit. In a 32-tree block a split costs
~60-70 us: the small child's row gather and product ~25-30 us, the two
children's key rows and their share of the round's sort ~5-7 us,
routing the rows ~10 us, and scoring and queueing ~10 us; the rest is
Python bookkeeping per split.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ..seeding import seed_sequence

MAX_ROWS = 2 ** 24   # float32 holds every integer count up to here exactly
_CODE_ROWS = 32      # rows per block when building the 0/1 matrix
_BLOCK_TREES = 32    # trees grown, and scored, together


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
    ``feature`` gives the column j of each ``below`` column, ``start`` the
    first ``below`` column of each j and ``widths`` how many j has.
    ``fixed`` maps the one ``below`` column of each two-valued column to its
    threshold, which is the same in every node.
    """

    def __init__(self, X):
        # A column holding only its min and max needs no sort. The rest are
        # sorted and neighbour-tested, not passed to np.unique: its first
        # plain call imports numpy.ma (~1 MB resident), and return_inverse
        # costs an argsort.
        lo, hi = X.min(axis=0), X.max(axis=0)
        nan = np.flatnonzero(np.isnan(lo))   # min propagates NaN
        if nan.size:
            raise ValueError(f"column {nan[0]} holds NaN")
        ends = X == lo
        ends |= X == hi
        ends = ends.all(axis=0)
        self.uniques = []
        for j, column in enumerate(X.T):
            if ends[j]:
                self.uniques.append(lo[j:j + 1] if lo[j] == hi[j] else np.array([lo[j], hi[j]]))
            else:
                ordered = np.sort(column)
                self.uniques.append(ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))])
        self.widths = np.array([u.size - 1 for u in self.uniques])
        self.feature = np.repeat(np.arange(self.widths.size), self.widths)
        self.start = np.cumsum(self.widths) - self.widths
        values = np.concatenate([u[:-1] for u in self.uniques])
        self.below = np.empty((X.shape[0], values.size), dtype=np.float32)
        for r in range(0, X.shape[0], _CODE_ROWS):
            np.less_equal(X[r:r + _CODE_ROWS].take(self.feature, axis=1), values,
                          out=self.below[r:r + _CODE_ROWS])
        self.fixed = {k: self.threshold(j, k, values)   # one candidate: any counts will do
                      for j, k in enumerate(self.start.tolist()) if self.widths[j] == 1}

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


def _drawn_columns(keys, mtry: int) -> np.ndarray:
    """The columns of each row's ``mtry`` smallest keys, smallest first.
    Keys are doubles in [0, 1), which sort as their int64 views; with its
    column in the low bits every key of a row is distinct, so an exact tie
    goes to the lower column whatever the sort."""
    column_bits = (1 << keys.shape[1].bit_length()) - 1
    ranked = keys.view(np.int64) & ~column_bits
    ranked |= np.arange(keys.shape[1])
    ranked.sort(axis=1)
    return ranked[:, :mtry] & column_bits


def _fit_trees(coded: _CodedMatrix, y, mtry, nodesize, maxnodes, rngs):
    """Grow one tree per generator in ``rngs``, all in lockstep rounds, and
    return the trees in ``rngs`` order."""
    n, d = coded.below.shape[0], len(coded.uniques)
    below, feature, width = coded.below, coded.feature, coded.below.shape[1]
    w = np.stack([np.bincount(rng.integers(0, n, n), minlength=n) for rng in rngs])
    wy = w * y
    counts = np.stack([w, wy], axis=1).astype(np.float32)   # tree x (rows, positives) x n
    sizes = [[n] for _ in rngs]
    positives = [[int(p)] for p in wy.sum(axis=1)]
    splits = [[] for _ in rngs]   # per tree: (node, feature, threshold, left child), in split order
    heaps = [[] for _ in rngs]
    counters = [itertools.count() for _ in rngs]

    def consider(trees, nodes, parents):
        """Draw features for each (node, rows, size, positives) of tree
        ``trees[i]`` in order and queue the best split of each node that has
        one. ``nodes`` are roots (``parents`` None) or sibling pairs, left
        then right, whose parent histograms ``parents`` holds. Ties go to
        the earliest drawn feature, then to the lowest value."""
        per_tree = 1 if parents is None else 2
        keys = np.concatenate([rngs[t].random((per_tree, d)) for t in trees[::per_tree]])
        size = np.array([node[2] for node in nodes])
        pos = np.array([node[3] for node in nodes])
        open_ = np.flatnonzero((size >= 2 * nodesize) & (0 < pos) & (pos < size))
        if not open_.size or not width:   # nothing to split, or every column constant
            return
        # hist[i] holds node i's weighted (rows, positives) at or below each
        # below column; only pairs with an open node are counted
        if parents is None:
            hist = (counts[trees].reshape(-1, n) @ below).reshape(len(nodes), 2, width)
        else:
            hist = np.empty((len(nodes), 2, width), dtype=np.float32)
            for p in dict.fromkeys((open_ // 2).tolist()):
                t, rows_l, rows_r = trees[2 * p], nodes[2 * p][1], nodes[2 * p + 1][1]
                small = int(rows_r.size < rows_l.size)
                rows = rows_r if small else rows_l
                np.matmul(counts[t].take(rows, axis=1), below.take(rows, axis=0),
                          out=hist[2 * p + small])
                np.subtract(parents[p], hist[2 * p + small], out=hist[2 * p + 1 - small])
        # Score only the drawn features' below columns, in draw order: each
        # (node, feature) expands to its range of below columns. An empty
        # rank needs no test of its own: its split equals that of the
        # nearest non-empty rank below it, which wins the tie, or leaves no
        # rows on the left and is invalid.
        drawn = _drawn_columns(keys[open_], mtry).ravel()
        per_draw = coded.widths[drawn]
        lengths = per_draw.reshape(open_.size, mtry).sum(axis=1)
        total = int(lengths.sum())
        if not total:
            return
        cols = np.arange(total) + np.repeat(coded.start[drawn] - (np.cumsum(per_draw) - per_draw),
                                            per_draw)
        at = np.repeat(open_ * (2 * width), lengths) + cols   # into hist.ravel()
        flat = hist.ravel()
        size_f, pos_f = size[open_].astype(np.float64), pos[open_].astype(np.float64)
        tot = np.repeat(np.stack([size_f, pos_f, 2.0 * pos_f * (size_f - pos_f) / size_f]),
                        lengths, axis=1)
        sides = np.empty((2, 2, total))                # (left, right) x (rows, positives)
        sides[0, 0], sides[0, 1] = flat[at], flat[at + width]
        np.subtract(tot[:2], sides[0], out=sides[1])
        side_n, side_pos = sides[:, 0], sides[:, 1]
        gini = 2.0 * side_pos * (side_n - side_pos) / side_n
        gains = tot[2] - (gini[0] + gini[1])
        gains[side_n.min(axis=0) < nodesize] = -np.inf
        # Each node's winner: its segment's max, at the segment's first hit.
        scored = lengths > 0
        lengths, first = lengths[scored], (np.cumsum(lengths) - lengths)[scored]
        best = np.maximum.reduceat(gains, first)
        hits = np.where(gains == np.repeat(best, lengths), np.arange(total), total)
        winners = np.minimum.reduceat(hits, first)
        for i, k, gain in zip(open_[scored].tolist(), cols[winners].tolist(), best.tolist()):
            if gain > 0.0:
                t = trees[i]
                node, node_rows, node_size, node_pos = nodes[i]
                heapq.heappush(heaps[t], (-gain, next(counters[t]), k, node, node_rows,
                                          node_size, node_pos, hist[i].copy()))

    consider(list(range(len(rngs))), [(0, np.flatnonzero(row), n, positives[t][0])
                                      for t, row in enumerate(w)], None)
    while True:
        popped = [(t, heapq.heappop(heap)) for t, heap in enumerate(heaps)
                  if heap and len(splits[t]) + 1 < maxnodes]
        if not popped:
            break
        ks = [entry[2] for _, entry in popped]
        node_rows = [entry[4] for _, entry in popped]
        go_left = below[np.concatenate(node_rows), np.repeat(ks, [r.size for r in node_rows])] > 0
        trees, children, parents = [], [], []
        lo = 0
        for t, (_, _, k, node, rows, size, pos, hist) in popped:
            j = int(feature[k])
            left = len(sizes[t])
            threshold = coded.fixed[k] if k in coded.fixed else coded.threshold(j, k, hist[0])
            splits[t].append((node, j, threshold, left))
            size_l, pos_l = int(hist[0, k]), int(hist[1, k])
            sizes[t] += [size_l, size - size_l]
            positives[t] += [pos_l, pos - pos_l]
            here = go_left[lo:lo + rows.size]
            lo += rows.size
            trees += [t, t]
            children += [(left, rows[here], size_l, pos_l),
                         (left + 1, rows[~here], size - size_l, pos - pos_l)]
            parents.append(hist)
        consider(trees, children, parents)
    return [_tree(sizes[t], positives[t], splits[t]) for t in range(len(rngs))]


def _tree(sizes, positives, splits) -> Tree:
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
    return tree


def _cut(tree: Tree, maxnodes: int) -> Tree:
    """``tree`` cut after its first ``maxnodes - 1`` splits: the tree the
    same draws grow to ``maxnodes``."""
    m = 2 * maxnodes - 1
    if tree.feature.size <= m:
        return tree
    later = tree.left[:m] >= m   # split k made its left child 2k+1
    cut = Tree(*(getattr(tree, field)[:m].copy() for field in
                 ("feature", "threshold", "left", "right", "value", "n_samples")))
    cut.feature[later] = -1
    cut.threshold[later] = 0.0
    cut.left[later] = -1
    cut.right[later] = -1
    return cut


def _importances(trees: list[Tree], d: int) -> np.ndarray:
    """Each split's weighted Gini decrease, scored as growth scores it from
    the node's and its children's (rows, positives), summed per feature in
    split order within a tree, then over trees in tree order, and
    normalized to sum to one. A node's positives are ``rint(value *
    n_samples)``, exact for n <= 2**24 rows."""
    sizes = [tree.feature.size for tree in trees]
    offset = np.repeat(np.cumsum(sizes) - sizes, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    # Split k of a tree made its nodes 2k+1 and 2k+2, so ordering the split
    # nodes by their left child's index orders them by tree, then split.
    left = np.concatenate([tree.left for tree in trees]) + offset
    node = np.flatnonzero(feature >= 0)
    node = node[np.argsort(left[node])]
    left = left[node]
    rows = np.concatenate([tree.n_samples for tree in trees]).astype(np.float64)
    pos = np.rint(np.concatenate([tree.value for tree in trees]) * rows)

    def gini(i):
        return 2.0 * pos[i] * (rows[i] - pos[i]) / rows[i]

    gains = gini(node) - (gini(left) + gini(left + 1))
    tree_index = np.repeat(np.arange(len(trees)), sizes)[node]
    per_tree = np.bincount(tree_index * d + feature[node], weights=gains,
                           minlength=len(trees) * d).reshape(len(trees), d)
    # cumsum adds in tree order; the dtype covers a forest with no split,
    # whose bincount holds ints
    importances = per_tree.cumsum(axis=0, dtype=np.float64)[-1]
    total = importances.sum()
    return importances / total if total > 0 else importances


def fit_random_forest(
    X,
    y,
    ntree: int,
    mtry: int,
    nodesize: int,
    maxnodes: int,
    seed: int,
    grown: RandomForestModel | None = None,
) -> RandomForestModel:
    """Tree t grows from child t of ``seed_sequence(seed).spawn(ntree)``.
    With ``grown``, a forest fitted on the same X and y with the same
    ``mtry``, ``nodesize`` and ``seed``, at least ``ntree`` trees and at
    least ``maxnodes``, no tree is grown: the forest is cut from ``grown``,
    bit for bit the one these parameters grow."""
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
    if grown is not None:
        if ((grown.mtry, grown.nodesize, grown.seed, grown.importances.size)
                != (mtry, nodesize, seed, d) or grown.ntree < ntree or grown.maxnodes < maxnodes):
            raise ValueError(
                f"cannot cut ntree {ntree}, mtry {mtry}, nodesize {nodesize}, maxnodes "
                f"{maxnodes}, seed {seed} on {d} columns from a forest of ntree {grown.ntree}, "
                f"mtry {grown.mtry}, nodesize {grown.nodesize}, maxnodes {grown.maxnodes}, "
                f"seed {grown.seed} on {grown.importances.size} columns")
        trees = [_cut(tree, maxnodes) for tree in grown.trees[:ntree]]
    else:
        coded = _CodedMatrix(X)
        children = seed_sequence(seed).spawn(ntree)
        trees = []
        with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 on empty sides, masked
            for b in range(0, ntree, _BLOCK_TREES):
                rngs = [np.random.Generator(np.random.PCG64(c))
                        for c in children[b:b + _BLOCK_TREES]]
                trees += _fit_trees(coded, y, mtry, nodesize, maxnodes, rngs)
    return RandomForestModel(
        trees=trees,
        ntree=ntree,
        mtry=mtry,
        nodesize=nodesize,
        maxnodes=maxnodes,
        seed=seed,
        importances=_importances(trees, d),
    )


def _block_scores(trees: list[Tree], X) -> np.ndarray:
    """Each tree's scores of the rows of X, shape (trees, rows), from one
    walk over every (tree, row) pair through the trees' concatenated nodes."""
    sizes = [tree.feature.size for tree in trees]
    offset = np.cumsum(sizes) - sizes
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left + o for tree, o in zip(trees, offset)])
    right = np.concatenate([tree.right + o for tree, o in zip(trees, offset)])
    rows = X.shape[0]
    node = np.repeat(offset, rows)   # pair p is tree p // rows at row p % rows
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        cur = node[active]
        go_left = X[active % rows, feature[cur]] <= threshold[cur]
        nxt = np.where(go_left, left[cur], right[cur])
        node[active] = nxt
        active = active[feature[nxt] >= 0]
    return np.concatenate([tree.value for tree in trees])[node].reshape(len(trees), rows)


def rf_predict_proba(model: RandomForestModel, X) -> np.ndarray:
    """Mean over trees of leaf positive-class fractions, summed in tree
    order."""
    X = np.asarray(X, dtype=np.float64)
    total = np.zeros(X.shape[0])
    for b in range(0, len(model.trees), _BLOCK_TREES):
        for scores in _block_scores(model.trees[b:b + _BLOCK_TREES], X):
            total += scores
    return total / len(model.trees)


def rf_importances(model: RandomForestModel, names: list[str]) -> list[tuple[str, float]]:
    """(name, importance) pairs in descending importance, ``names`` giving
    the model's columns in order (e.g. ``ModelBundle.column_names``); ties
    keep column order."""
    return sorted(zip(names, model.importances.tolist(), strict=True), key=lambda p: -p[1])
