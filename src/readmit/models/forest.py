"""Random forest classifier built from scratch.

Each tree trains on a seeded bootstrap sample (n draws with replacement).
Nodes split in the order they were made, as ``buildtree`` in R's
randomForest does (Liaw & Wiener, R News 2(3), 2002): node i is taken
after every node made before it and splits, if it has a valid split, while
the tree has made fewer than ``maxnodes - 1`` splits, so the terminal-node
budget binds exactly. A node considers ``mtry`` features sampled without
replacement (the columns of its ``mtry`` smallest of ``d`` uniform keys,
in key order), with thresholds at midpoints between adjacent distinct
values it holds, and both children keep at least ``nodesize`` bootstrap
rows. The largest Gini decrease wins, a tie going to the earliest drawn
feature, then to the lowest value. Gini importances sum each split's
weighted decrease per feature, normalized to sum to one; they are a
function of the trees (``_importances``), so a cut forest gets its own.

Trees grow by counting, not by copying rows. The bootstrap is kept as
multiplicities ``w``: a node holds the distinct rows it covers, and its
sizes and positive counts are sums of ``w`` and ``w * y``. A node that may
split holds its histogram, the weighted (rows, positives) at or below
every distinct value of every column: ``[w; w*y][:, rows] @ below[rows]``
with the 0/1 matrix of ``CodedMatrix``, which the fits on one set of rows
can share (a grid fold codes its rows once). Of a split's children only
the one with fewer rows is counted; the other is the parent minus it. The
product runs in float32, exact while every count is an integer no larger
than n <= 2**24 rows; ``fit_random_forest`` refuses more.

Per-call overhead, not arithmetic, bounds a split, so each numpy call
serves as many splits as it can. Best-first growth knows one node per
tree to split next; creation order knows a whole generation, the children
of the last round's splits. So trees grow in blocks of ``_BLOCK_TREES``, a
generation of every tree per round: one pass scores every open node, each
tree splits its valid nodes in index order until its budget is spent, the
rows are routed through ``columns`` in a few calls, and only the small
child's product and its sibling's subtraction loop in Python, per pair.
On readmit's lopsided splits a 300-leaf tree takes 30-50 rounds.

Each tree has its own generator and draws its bootstrap, then one row of
``d`` double keys per node it makes, closed nodes too, in creation order:
``random((1, d))`` for its root and ``random((2 * s, d))`` for the
children of a round's s splits; a tree with no open node draws no more. A
double costs one 64-bit output of the stream, so node i's keys depend only
on the nodes made before it, and sums of integers are exact in any order:
a tree grown in a block is the tree grown alone. Split k makes nodes 2k+1
and 2k+2, so a smaller forest is a prefix of a larger one, and the tree
grown to a smaller ``maxnodes`` is the larger-budget tree cut after its
first splits, the later-split nodes leaves: ``fit_random_forest(...,
grown=forest)`` cuts forests so (``_cut``), bit for bit the grown ones.

Memory: a round holds each open node's (2, C) float32 histogram, ~1.5 KB
at readmit's C ~ 190, and its d keys, ranked in one sort; a tree keeps
only its open nodes' keys. A tree has at most ``maxnodes`` open nodes in
a round, so a 32-tree block at ``maxnodes`` 300 holds at most ~15 MB of
histograms; on readmit's data a round of the block has at most ~800 open
nodes, ~1.2 MB of histograms and ~2.4 MB of keys and ranks. Nodes are
scored ``_SCORE_NODES`` at a time. Scoring walks every (tree, row) pair
of a block through its trees' nodes at once, by flat index into X: ~7 ms
for 32 300-leaf trees on 800 rows. ``rf_nested_proba`` walks a ladder of
nested forests, which share their tree objects, once.

On 7,200 rows in 32-tree blocks at ``maxnodes`` 300, a split costs ~20-30
us on a 2-vCPU x86 VM: the small child's gather, product and subtraction
~9-11, routing ~4-6, keys ~4-5, scoring ~2-4, the rest ~2-3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..seeding import seed_sequence
from .labels import binary_labels

MAX_ROWS = 2 ** 24   # float32 holds every integer count up to here exactly
_CODE_ROWS = 32      # rows per block when building the 0/1 matrix
_BLOCK_TREES = 32    # trees grown, and scored, together
_SCORE_NODES = 256   # nodes scored per call, bounding its float64 temporaries


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


class CodedMatrix:
    """Cumulative value indicators for split search by counting, built
    once per fit.

    ``uniques[j]`` holds the sorted distinct values of column j. ``below``
    has one 0/1 column per (j, b) for every b but the last, set on the rows
    where ``x_j <= uniques[j][b]``: the candidate split at that value, which
    ``values`` holds. It is C-ordered, as a node gathers whole rows of it:
    n x ~190 on readmit's design matrix (~5.5 MB at 7,200 rows); a
    continuous column costs about n columns. ``columns`` is ``below``
    transposed, as booleans, so routing a node's rows reads one line of it.
    ``feature`` gives the column j of each ``below`` column, ``start`` the
    first ``below`` column of each j and ``widths`` how many j has.
    """

    def __init__(self, X):
        # A column holding only its min and max needs no sort. The rest are
        # sorted and neighbour-tested, not passed to np.unique: its first
        # plain call imports numpy.ma (~1 MB resident), and return_inverse
        # costs an argsort.
        self.X = X = np.asarray(X, dtype=np.float64)
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
        self.values = np.concatenate([u[:-1] for u in self.uniques])
        self.below = np.empty((X.shape[0], self.values.size), dtype=np.float32)
        for r in range(0, X.shape[0], _CODE_ROWS):
            np.less_equal(X[r:r + _CODE_ROWS].take(self.feature, axis=1), self.values,
                          out=self.below[r:r + _CODE_ROWS])
        self.columns = self.below.T.astype(bool, order="C")


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


def _starts(lengths):
    return np.cumsum(lengths) - lengths


def _segments(starts, lengths):
    """The indices in ``[starts[i], starts[i] + lengths[i])``, i in turn."""
    return np.repeat(starts - _starts(lengths), lengths) + np.arange(lengths.sum())


def _best_splits(coded: CodedMatrix, hist, size, pos, drawn, nodesize):
    """Each node's best split over the ``below`` columns of its ``drawn``
    features: the column and its gain, -inf where no column splits the
    node. ``hist[i]`` holds node i's weighted (rows, positives) at or below
    each ``below`` column. Ties go to the earliest drawn feature, then to
    the lowest value."""
    m, width = hist.shape[0], hist.shape[2]
    k, gain = np.zeros(m, dtype=np.intp), np.full(m, -np.inf)
    # Score only the drawn features' below columns, in draw order: each
    # (node, feature) expands to its range of below columns. An empty rank
    # needs no test of its own: its split equals that of the nearest
    # non-empty rank below it, which wins the tie, or leaves no rows on the
    # left and is invalid.
    drawn = drawn.ravel()
    per_draw = coded.widths[drawn]
    lengths = per_draw.reshape(m, -1).sum(axis=1)
    total = int(lengths.sum())
    if not total:   # every drawn column constant
        return k, gain
    cols = _segments(coded.start[drawn], per_draw)
    at = np.repeat(np.arange(m) * (2 * width), lengths) + cols   # into hist.ravel()
    flat = hist.ravel()
    size_f, pos_f = size.astype(np.float64), pos.astype(np.float64)
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
    lengths, first = lengths[scored], _starts(lengths)[scored]
    best = np.maximum.reduceat(gains, first)
    hits = np.where(gains == np.repeat(best, lengths), np.arange(total), total)
    k[scored], gain[scored] = cols[np.minimum.reduceat(hits, first)], best
    return k, gain


def _fit_trees(coded: CodedMatrix, y, mtry, nodesize, maxnodes, rngs):
    """Grow one tree per generator in ``rngs``, a generation of every tree
    per round, and return the trees in ``rngs`` order."""
    below, (n, d), block = coded.below, coded.X.shape, len(rngs)
    w = np.stack([np.bincount(rng.integers(0, n, n), minlength=n) for rng in rngs])
    wy = w * y
    counts = np.stack([w, wy], axis=1).astype(np.float32)   # tree x (rows, positives) x n
    budget = np.full(block, maxnodes - 1)   # splits each tree may still make
    # Per round: every created node (tree, rows, positives) and every split
    # (tree, node, feature, threshold, left child)
    nodes, splits = [(np.arange(block), w.sum(axis=1), wy.sum(axis=1))], []

    def splittable(tree, size, pos):
        return (size >= 2 * nodesize) & (0 < pos) & (pos < size) & (budget[tree] > 0)

    def draw(tree, open_):
        # The drawn columns of the open ones of new nodes of trees ``tree``,
        # in order; a tree with none open is done and draws nothing.
        keys, lo = [np.empty((0, d))], 0
        for t, (c, o) in enumerate(zip(np.bincount(tree, minlength=block).tolist(),
                                       np.bincount(tree[open_], minlength=block).tolist())):
            if o:
                keys.append(rngs[t].random((c, d))[open_[lo:lo + c]])
            lo += c
        return _drawn_columns(np.concatenate(keys), mtry)

    # The generation's open nodes, by tree then index; the rows of node i
    # are rows[start[i]:start[i] + length[i]].
    open_ = splittable(*nodes[0])
    drawn = draw(nodes[0][0], open_)
    (tree, size, pos), index = (a[open_] for a in nodes[0]), np.zeros(open_.sum(), int)
    hist = (counts[tree].reshape(-1, n) @ below).reshape(tree.size, 2, below.shape[1])
    length = np.count_nonzero(w[tree], axis=1)
    rows, start = np.flatnonzero(w[tree]) % n, _starts(length)
    while tree.size:
        scores = [_best_splits(coded, hist[a:a + _SCORE_NODES], size[a:a + _SCORE_NODES],
                               pos[a:a + _SCORE_NODES], drawn[a:a + _SCORE_NODES], nodesize)
                  for a in range(0, tree.size, _SCORE_NODES)]
        k, gain = (np.concatenate(v) for v in zip(*scores))
        # Split the valid nodes in index order while the tree's budget lasts.
        valid = gain > 0.0
        seen = np.cumsum(valid)
        rank = seen - (seen - valid)[np.searchsorted(tree, tree)]   # among the tree's valid
        take = np.flatnonzero(valid & (rank <= budget[tree]))
        if not take.size:
            break
        hist, k, tree, size, pos = hist[take], k[take], tree[take], size[take], pos[take]
        per_tree = np.bincount(tree, minlength=block)
        split = maxnodes - 1 - budget[tree] + np.arange(take.size) - _starts(per_tree)[tree]
        left = 2 * split + 1   # split k of a tree makes its nodes 2k+1 and 2k+2
        budget -= per_tree
        length = length[take]
        rows = rows.take(_segments(start[take], length))
        go_left = coded.columns.take(np.repeat(k * n, length) + rows)   # columns[k, rows]
        rows_l, rows_r = rows[go_left], rows[~go_left]
        length_l = np.add.reduceat(go_left, _starts(length), dtype=np.int64)
        length_r = length - length_l
        # Threshold: the midpoint of the split's value and the next larger
        # value the node holds, the least on the right.
        feature, lo = coded.feature[k], coded.values[k]
        hi = np.minimum.reduceat(coded.X.take(rows_r * d + np.repeat(feature, length_r)),
                                 _starts(length_r))
        threshold = (lo + hi) / 2.0
        threshold = np.where((lo < threshold) & (threshold < hi), threshold, lo)
        splits.append((tree, index[take], feature, threshold, left))
        # The children, left then right of each split
        size_l, pos_l = hist[np.arange(take.size), :, k].T.astype(np.int64)
        tree = np.repeat(tree, 2)
        size = np.stack([size_l, size - size_l], axis=1).ravel()
        pos = np.stack([pos_l, pos - pos_l], axis=1).ravel()
        nodes.append((tree, size, pos))
        index = np.stack([left, left + 1], axis=1).ravel()
        length = np.stack([length_l, length_r], axis=1).ravel()
        start = np.stack([_starts(length_l), rows_l.size + _starts(length_r)], axis=1).ravel()
        rows = np.concatenate([rows_l, rows_r])
        open_ = splittable(tree, size, pos)
        drawn = draw(tree, open_)
        # Of each pair with an open child, count the child with fewer rows
        # (the left on a tie); the other is the parent minus it.
        slot = np.where(open_, np.cumsum(open_) - 1, -1)   # the last row of counted is spare
        counted = np.empty((int(open_.sum()) + 1, 2, below.shape[1]), dtype=np.float32)
        pairs = np.flatnonzero(open_.reshape(-1, 2).any(axis=1))
        small = 2 * pairs + (length_r < length_l)[pairs]
        for p, t, a, b, s, o in zip(pairs.tolist(), tree[small].tolist(), start[small].tolist(),
                                    (start + length)[small].tolist(), slot[small].tolist(),
                                    slot[small ^ 1].tolist()):
            r = rows[a:b]
            np.matmul(counts[t].take(r, axis=1), below.take(r, axis=0), out=counted[s])
            if o >= 0:
                np.subtract(hist[p], counted[s], out=counted[o])
        hist, tree, size, pos = counted[:-1], tree[open_], size[open_], pos[open_]
        index, start, length = index[open_], start[open_], length[open_]
    return _trees(block, nodes, splits)


def _trees(block, nodes, splits) -> list[Tree]:
    """The block's trees from the rounds' created nodes and splits, each
    round's (tree, ...) arrays holding a tree's in index order."""
    def by_tree(arrays):
        tree, *fields = (np.concatenate(v) for v in zip(*arrays))
        order = np.argsort(tree, kind="stable")
        bounds = np.cumsum(np.bincount(tree, minlength=block))[:-1]
        return zip(*(np.split(f[order], bounds) for f in fields))

    trees = []
    for (size, pos), (node, feature, threshold, left) in zip(
            by_tree(nodes), by_tree(splits or [(np.empty(0, int),) * 5])):
        m = size.size
        tree = Tree(np.full(m, -1, dtype=np.int32), np.zeros(m), np.full(m, -1, dtype=np.int32),
                    np.full(m, -1, dtype=np.int32), pos / size, size.astype(np.int32))
        tree.feature[node], tree.threshold[node] = feature, threshold
        tree.left[node], tree.right[node] = left, left + 1
        trees.append(tree)
    return trees


def _cut(tree: Tree, maxnodes: int) -> Tree:
    """``tree`` cut after its first ``maxnodes - 1`` splits: the tree the
    same draws grow to ``maxnodes``."""
    m = 2 * maxnodes - 1
    if tree.feature.size <= m:
        return tree
    later = tree.left[:m] >= m   # split k made its left child 2k+1
    cut = Tree(*(getattr(tree, field)[:m].copy() for field in
                 ("feature", "threshold", "left", "right", "value", "n_samples")))
    for field, leaf in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
        getattr(cut, field)[later] = leaf
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
    # A tree splits its nodes in index order, so its split nodes in index
    # order are in split order.
    node = np.flatnonzero(feature >= 0)
    left = (np.concatenate([tree.left for tree in trees]) + offset)[node]
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
    """Tree t grows from child t of ``seed_sequence(seed).spawn(ntree)``;
    ``X`` is the rows or their ``CodedMatrix``. With ``grown``, a forest
    fitted on the same X and y with the same ``mtry``, ``nodesize`` and
    ``seed``, at least ``ntree`` trees and at least ``maxnodes``, no tree is
    grown: it is cut from ``grown``, bit for bit, sharing the trees it keeps."""
    coded = X if isinstance(X, CodedMatrix) else None
    X = coded.X if coded else np.asarray(X, dtype=np.float64)
    n, d = X.shape
    y = binary_labels(y, n).astype(np.int64)
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
        coded = coded or CodedMatrix(X)
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
    if feature.max() >= X.shape[1]:
        raise ValueError(f"a tree splits on column {feature.max()} of X's {X.shape[1]}")
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left + o for tree, o in zip(trees, offset)])
    right = np.concatenate([tree.right + o for tree, o in zip(trees, offset)])
    rows, flat = X.shape[0], X.ravel()   # X is C-ordered
    node = np.repeat(offset, rows)   # pair p is tree p // rows at row p % rows
    active = np.flatnonzero(feature[node] >= 0)
    at = active % rows * X.shape[1]   # where each active pair's row starts in flat
    while active.size:
        cur = node[active]
        go_left = flat.take(at + feature[cur]) <= threshold[cur]   # NaN goes right
        nxt = np.where(go_left, left[cur], right[cur])
        node[active] = nxt
        inner = feature[nxt] >= 0
        active, at = active[inner], at[inner]
    return np.concatenate([tree.value for tree in trees])[node].reshape(len(trees), rows)


def rf_nested_proba(forests: list[RandomForestModel], X) -> list[np.ndarray]:
    """``rf_predict_proba`` of each of ``forests``, whose trees are the
    largest one's first trees, the same objects: each tree is walked once,
    its scores summed in tree order and the sum kept at each forest's size."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    trees = max(forests, key=lambda forest: len(forest.trees)).trees
    for forest in forests:
        if X.ndim != 2 or X.shape[1] != forest.importances.size:
            raise ValueError(f"X has shape {X.shape}, the forest {forest.importances.size} columns")
        if not forest.trees or any(a is not b for a, b in zip(forest.trees, trees)):
            raise ValueError("the forests do not nest, or one has no trees")
    stops, total, proba = {len(forest.trees) for forest in forests}, np.zeros(X.shape[0]), {}
    for b in range(0, len(trees), _BLOCK_TREES):
        for t, scores in enumerate(_block_scores(trees[b:b + _BLOCK_TREES], X), b + 1):
            total += scores
            if t in stops:
                proba[t] = total / t
    return [proba[len(forest.trees)] for forest in forests]


def rf_predict_proba(model: RandomForestModel, X) -> np.ndarray:
    """Mean over trees of leaf positive-class fractions, summed in tree
    order."""
    return rf_nested_proba([model], X)[0]


def rf_importances(model: RandomForestModel, names: list[str]) -> list[tuple[str, float]]:
    """(name, importance) pairs in descending importance, ``names`` giving
    the model's columns in order (e.g. ``ModelBundle.column_names``); ties
    keep column order."""
    return sorted(zip(names, model.importances.tolist(), strict=True), key=lambda p: -p[1])
