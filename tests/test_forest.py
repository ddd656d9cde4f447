import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from readmit.codes import load_code_mappings
from readmit.dataset import SplitSpec, one_hot_encode, stratified_kfold, train_test_split
from readmit.episodes import build_labeled_admissions
from readmit.features import extract_features
from readmit.models.forest import (
    RandomForestModel, Tree, _block_scores, _drawn_columns, _fit_trees, _importances,
    fit_random_forest, rf_importances, rf_nested_proba, rf_predict_proba,
)
from readmit.models.forest import CodedMatrix as _CodedMatrix
from readmit.seeding import FOREST_GRID_STREAM, derive_seed, seed_sequence
from readmit.synth import GeneratorConfig, SignalSpec, generate

from conftest import rf_model_text


def xor_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
    return X, y


class TestFit:
    def test_single_class_predicts_that_class_exactly(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 4))
        model = fit_random_forest(X, np.ones(30, dtype=int), ntree=5, mtry=2,
                                  nodesize=1, maxnodes=50, seed=0)
        assert np.all(rf_predict_proba(model, X) == 1.0)
        model = fit_random_forest(X, np.zeros(30, dtype=int), ntree=5, mtry=2,
                                  nodesize=1, maxnodes=50, seed=0)
        assert np.all(rf_predict_proba(model, X) == 0.0)

    def test_xor_is_learnable_with_unrestricted_depth(self):
        X, y = xor_data()
        model = fit_random_forest(X, y, ntree=100, mtry=2, nodesize=1,
                                  maxnodes=10_000, seed=3)
        predictions = (rf_predict_proba(model, X) >= 0.5).astype(int)
        assert (predictions == y).mean() == 1.0

    def test_same_seed_bitwise_identical(self):
        X, y = xor_data(150, seed=5)
        a = fit_random_forest(X, y, ntree=40, mtry=2, nodesize=2, maxnodes=64, seed=9)
        b = fit_random_forest(X, y, ntree=40, mtry=2, nodesize=2, maxnodes=64, seed=9)
        assert rf_model_text(a) == rf_model_text(b)

    def test_different_seeds_differ(self):
        X, y = xor_data(150, seed=5)
        a = fit_random_forest(X, y, ntree=10, mtry=2, nodesize=2, maxnodes=64, seed=1)
        b = fit_random_forest(X, y, ntree=10, mtry=2, nodesize=2, maxnodes=64, seed=2)
        assert rf_model_text(a) != rf_model_text(b)

    def test_mtry_out_of_range_rejected(self):
        X, y = xor_data(50)
        with pytest.raises(ValueError):
            fit_random_forest(X, y, ntree=5, mtry=3, nodesize=1, maxnodes=10, seed=0)

    def test_nan_rejected(self):
        X, y = xor_data(50)
        X[7, 1] = np.nan
        with pytest.raises(ValueError, match="column 1"):
            fit_random_forest(X, y, ntree=5, mtry=1, nodesize=1, maxnodes=10, seed=0)

    @pytest.mark.parametrize("labels, message", [
        ([0, 2] * 15, "labels must be 0 or 1, got 2 at row 1"),
        ([1, 0] * 14 + [1, -1], "labels must be 0 or 1, got -1 at row 29"),
        ([0, 1] * 14, r"28 labels of shape \(28,\) for 30 rows of X"),
    ])
    def test_bad_labels_named(self, labels, message):
        X = np.random.default_rng(1).normal(size=(30, 4))
        with pytest.raises(ValueError, match=message):
            fit_random_forest(X, np.array(labels), ntree=2, mtry=2, nodesize=1,
                              maxnodes=8, seed=0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit_random_forest(np.empty((0, 2)), np.empty(0), ntree=5, mtry=1,
                              nodesize=1, maxnodes=10, seed=0)


def _leaf_index(tree, X):
    node = np.zeros(X.shape[0], dtype=np.intp)
    while True:
        active = np.flatnonzero(tree.feature[node] >= 0)
        if active.size == 0:
            return node
        cur = node[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])


class TestStructuralInvariants:
    @pytest.mark.parametrize("nodesize,maxnodes", [(1, 8), (5, 32), (9, 4)])
    def test_leaf_size_and_node_budget(self, nodesize, maxnodes):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 6))
        y = (rng.random(300) < 0.4).astype(int)
        model = fit_random_forest(X, y, ntree=20, mtry=3, nodesize=nodesize,
                                  maxnodes=maxnodes, seed=11)
        for tree in model.trees:
            leaves = tree.feature < 0
            assert tree.n_samples[leaves].min() >= nodesize
            assert int(leaves.sum()) <= maxnodes
            # children partition the parent rows
            internal = np.flatnonzero(~leaves)
            for node in internal:
                left, right = tree.left[node], tree.right[node]
                assert tree.n_samples[node] == tree.n_samples[left] + tree.n_samples[right]

    @given(st.data())
    def test_node_bookkeeping_on_small_random_inputs(self, data):
        n = data.draw(st.integers(2, 40), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        levels = data.draw(st.integers(1, 6), label="levels")
        X = np.array(data.draw(st.lists(st.integers(0, levels - 1), min_size=n * d,
                                        max_size=n * d)), dtype=float).reshape(n, d)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        nodesize = data.draw(st.integers(1, 5), label="nodesize")
        maxnodes = data.draw(st.integers(1, 20), label="maxnodes")
        model = fit_random_forest(X, y, ntree=data.draw(st.integers(1, 3)),
                                  mtry=data.draw(st.integers(1, d)), nodesize=nodesize,
                                  maxnodes=maxnodes, seed=data.draw(st.integers(0, 2**32)))
        trees = seed_sequence(model.seed).spawn(model.ntree)
        split_anywhere = False
        for tree, tree_seed in zip(model.trees, trees):
            positives = np.rint(tree.value * tree.n_samples).astype(int)
            assert tree.n_samples[0] == n
            # Each leaf holds exactly the bootstrap rows its thresholds route
            # to it: the tree's first draw is its bootstrap sample.
            boot = np.random.Generator(np.random.PCG64(tree_seed)).integers(0, n, n)
            leaf = _leaf_index(tree, X[boot])
            routed = np.bincount(leaf, minlength=tree.feature.size)
            routed_pos = np.bincount(leaf, weights=y[boot], minlength=tree.feature.size)
            is_leaf = tree.feature < 0
            assert np.array_equal(routed[is_leaf], tree.n_samples[is_leaf])
            assert np.array_equal(routed_pos[is_leaf], positives[is_leaf])
            internal = np.flatnonzero(tree.feature >= 0)
            split_anywhere |= internal.size > 0
            for node in internal:
                children = [tree.left[node], tree.right[node]]
                assert tree.n_samples[node] == tree.n_samples[children].sum()
                assert positives[node] == positives[children].sum()
            leaves = np.flatnonzero(tree.feature < 0)
            assert leaves.size <= maxnodes
            if internal.size:
                assert tree.n_samples[leaves].min() >= nodesize
        total = model.importances.sum()
        assert abs(total - 1.0) < 1e-12 if split_anywhere else total == 0.0

    @pytest.mark.parametrize("ntree", [7, 70])
    def test_forest_prediction_is_mean_of_trees(self, ntree):
        # 70 trees span three scoring blocks; the sum runs in tree order
        X, y = xor_data(100, seed=2)
        model = fit_random_forest(X, y, ntree=ntree, mtry=2, nodesize=1,
                                  maxnodes=50, seed=13)
        total = np.zeros(X.shape[0])
        for tree in model.trees:
            total += tree.value[_leaf_index(tree, X)]
        assert np.array_equal(rf_predict_proba(model, X), total / ntree)

    def test_probabilities_bounded(self):
        X, y = xor_data(80, seed=3)
        model = fit_random_forest(X, y, ntree=9, mtry=1, nodesize=4,
                                  maxnodes=16, seed=17)
        rng = np.random.default_rng(0)
        probs = rf_predict_proba(model, rng.normal(size=(50, 2)) * 10)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


def _assert_same_tree(a, b):
    for field in ("feature", "threshold", "left", "right", "value", "n_samples"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestLockstep:
    """Trees grown together in blocks equal trees grown alone."""

    @pytest.mark.parametrize("ntree", [1, 31, 32, 33])
    def test_smaller_forest_is_prefix_of_larger(self, ntree):
        rng = np.random.default_rng(83)
        X = np.column_stack([rng.integers(0, 2, (240, 4)), rng.integers(0, 5, (240, 2)),
                             rng.normal(size=240).round(1)]).astype(float)
        y = (rng.random(240) < 0.15 + 0.4 * X[:, 0]).astype(int)
        params = dict(mtry=3, nodesize=2, maxnodes=20, seed=89)
        full = fit_random_forest(X, y, ntree=70, **params)
        part = fit_random_forest(X, y, ntree=ntree, **params)
        assert len(part.trees) == ntree
        for a, b in zip(part.trees, full.trees):
            _assert_same_tree(a, b)

    @given(st.data())
    def test_block_mates_equal_trees_grown_alone(self, data):
        # Tiny designs, so trees often stop early: a pure bootstrap,
        # maxnodes 1 or every column constant.
        n = data.draw(st.integers(1, 30), label="n")
        d = data.draw(st.integers(1, 3), label="d")
        levels = data.draw(st.integers(1, 3), label="levels")
        X = np.array(data.draw(st.lists(st.integers(0, levels - 1), min_size=n * d,
                                        max_size=n * d)), dtype=float).reshape(n, d)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        ntree = data.draw(st.integers(1, 40), label="ntree")
        params = dict(mtry=data.draw(st.integers(1, d)), nodesize=data.draw(st.integers(1, 4)),
                      maxnodes=data.draw(st.sampled_from([1, 2, 3, 8])))
        seed = data.draw(st.integers(0, 2**32), label="seed")
        model = fit_random_forest(X, y, ntree=ntree, seed=seed, **params)
        coded = _CodedMatrix(X)
        grown_alone = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for tree, child in zip(model.trees, seed_sequence(seed).spawn(ntree), strict=True):
                rng = np.random.Generator(np.random.PCG64(child))
                [alone] = _fit_trees(coded, y, rngs=[rng], **params)
                _assert_same_tree(tree, alone)
                grown_alone.append(alone)
        assert model.importances.tobytes() == _importances(grown_alone, d).tobytes()


def _best_drawn_feature(X, y, w, drawn, nodesize):
    """The feature of a node's best split by brute force, over the drawn
    features in draw order (a tie keeps the earlier), or -1 if the node
    stays a leaf; ``w`` holds the node's bootstrap multiplicities."""
    size, pos = w.sum(), (w * y).sum()
    if size < 2 * nodesize or pos in (0, size):
        return -1
    parent = 2.0 * pos * (size - pos) / size
    best, best_gain = -1, 0.0
    for j in drawn:
        for v in np.unique(X[w > 0, j])[:-1]:
            left = X[:, j] <= v
            n_l, p_l = w[left].sum(), (w * y)[left].sum()
            n_r, p_r = size - n_l, pos - p_l
            if min(n_l, n_r) < nodesize:
                continue
            gain = parent - (2.0 * p_l * (n_l - p_l) / n_l + 2.0 * p_r * (n_r - p_r) / n_r)
            if gain > best_gain:
                best, best_gain = j, gain
    return best


class TestKeyedDraws:
    """A node draws the ``mtry`` columns of its smallest keys, one row of
    ``d`` keys per created node from its tree's stream."""

    def test_exact_key_ties_go_to_the_lower_column(self):
        keys = np.array([[0.5, 0.25, 0.5, 0.0], [0.75, 0.75, 0.75, 0.75]])
        assert _drawn_columns(keys, 3).tolist() == [[3, 1, 0], [0, 1, 2]]

    @pytest.mark.parametrize("seed", range(8))
    def test_root_and_its_children_split_on_their_drawn_features(self, seed):
        rng = np.random.default_rng(97)
        X = rng.normal(size=(60, 6)).round(1)
        y = (rng.random(60) < 0.5).astype(int)
        mtry, nodesize = 2, 1
        model = fit_random_forest(X, y, ntree=1, mtry=mtry, nodesize=nodesize,
                                  maxnodes=10_000, seed=seed)
        tree = model.trees[0]
        stream = np.random.Generator(np.random.PCG64(seed_sequence(seed).spawn(1)[0]))
        w = np.bincount(stream.integers(0, 60, 60), minlength=60)
        root_keys = stream.random(6)
        assert tree.feature[0] == _best_drawn_feature(X, y, w, np.argsort(root_keys)[:mtry],
                                                      nodesize)
        left = X[:, tree.feature[0]] <= tree.threshold[0]
        for node, keys, side in zip((1, 2), stream.random((2, 6)), (left, ~left)):
            assert tree.feature[node] == _best_drawn_feature(
                X, y, w * side, np.argsort(keys)[:mtry], nodesize)


def _oracle_tree(X, y, rng, mtry, nodesize, maxnodes):
    """A tree grown one node at a time in creation order, by brute force
    on bootstrap multiplicities. Node i draws ``random((1, d))`` when it is
    taken and splits on the best value of its drawn columns (the columns of
    its ``mtry`` smallest keys, in key order, the lower column first on a
    tie), if the budget of ``maxnodes - 1`` splits is not spent. Returns
    the tree and its splits' (feature, Gini decrease) in split order."""
    n, d = X.shape
    held = [np.bincount(rng.integers(0, n, n), minlength=n)]   # each node's multiplicities
    feature, threshold, left, gains = {}, {}, {}, []
    i = 0
    while i < len(held) and len(gains) < maxnodes - 1:
        w = held[i]
        size, pos = int(w.sum()), int(w @ y)
        drawn = np.argsort(rng.random((1, d))[0], kind="stable")[:mtry]
        best = None
        if size >= 2 * nodesize and 0 < pos < size:
            parent = 2.0 * pos * (size - pos) / size
            best_gain = 0.0
            for j in drawn:
                values = np.unique(X[w > 0, j])
                for b, v in enumerate(values[:-1]):
                    side = X[:, j] <= v
                    n_l, p_l = int(w[side].sum()), int(w[side] @ y[side])
                    n_r, p_r = size - n_l, pos - p_l
                    if min(n_l, n_r) < nodesize:
                        continue
                    gain = parent - (2.0 * p_l * (n_l - p_l) / n_l
                                     + 2.0 * p_r * (n_r - p_r) / n_r)
                    if gain > best_gain:
                        best, best_gain = (j, v, values[b + 1], side), gain
        if best is not None:
            j, lo, hi, side = best
            mid = (lo + hi) / 2.0
            feature[i], threshold[i], left[i] = j, mid if lo < mid < hi else lo, len(held)
            gains.append((j, best_gain))
            held += [w * side, w * ~side]
        i += 1
    m = len(held)
    sizes = np.array([h.sum() for h in held])
    tree = Tree(feature=np.full(m, -1, dtype=np.int32), threshold=np.zeros(m),
                left=np.full(m, -1, dtype=np.int32), right=np.full(m, -1, dtype=np.int32),
                value=np.array([h @ y for h in held]) / sizes,
                n_samples=sizes.astype(np.int32))
    for node in feature:
        tree.feature[node], tree.threshold[node] = feature[node], threshold[node]
        tree.left[node], tree.right[node] = left[node], left[node] + 1
    return tree, gains


@st.composite
def _oracle_designs(draw):
    """Small designs whose values come from a drawn seed, so most of them
    split: integer levels, quarters, constant and duplicate columns."""
    n = draw(st.integers(1, 40), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32), label="data seed"))
    columns = []
    for _ in range(draw(st.integers(1, 5), label="d")):
        kind = draw(st.sampled_from(["levels", "quarters", "constant", "duplicate"]))
        if kind == "duplicate" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))].copy())
        elif kind == "constant":
            columns.append(np.full(n, float(draw(st.integers(-2, 2)))))
        else:
            values = rng.integers(0, draw(st.integers(2, 12)), n).astype(float)
            columns.append(values / 4.0 if kind == "quarters" else values)
    X = np.column_stack(columns)
    y = (rng.random(n) < draw(st.sampled_from([0.2, 0.5]))).astype(int)
    params = dict(ntree=draw(st.sampled_from([1, 2, 31, 33])),
                  mtry=draw(st.integers(1, X.shape[1])),
                  nodesize=draw(st.sampled_from([1, 2, 5])),
                  maxnodes=draw(st.sampled_from([1, 2, 3, 6, 10_000])),
                  seed=draw(st.integers(0, 2**32), label="seed"))
    return X, y, params


class TestCreationOrder:
    """Trees grow in creation (FIFO) order: node i is taken after every
    node made before it, and split k makes nodes 2k+1 and 2k+2."""

    @given(_oracle_designs())
    def test_every_tree_equals_the_one_node_at_a_time_grower(self, design):
        X, y, params = design
        model = fit_random_forest(X, y, **params)
        importances = np.zeros(X.shape[1])
        children = seed_sequence(params["seed"]).spawn(params["ntree"])
        for tree, child in zip(model.trees, children, strict=True):
            rng = np.random.Generator(np.random.PCG64(child))
            oracle, gains = _oracle_tree(X, y, rng, params["mtry"], params["nodesize"],
                                         params["maxnodes"])
            for field in ("feature", "threshold", "left", "right", "value", "n_samples"):
                a, b = getattr(tree, field), getattr(oracle, field)
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), field
            per_tree = np.zeros(X.shape[1])
            for j, gain in gains:
                per_tree[j] += gain
            importances += per_tree
        total = importances.sum()
        if total > 0:
            importances = importances / total
        assert model.importances.tobytes() == importances.tobytes()

    @given(st.data())
    def test_split_nodes_come_in_index_order(self, data):
        n = data.draw(st.integers(2, 60), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="data seed"))
        X = rng.integers(0, data.draw(st.integers(2, 8)), (n, 4)).astype(float)
        y = (rng.random(n) < 0.4).astype(int)
        model = fit_random_forest(X, y, ntree=data.draw(st.integers(1, 40)), mtry=2,
                                  nodesize=data.draw(st.integers(1, 3)),
                                  maxnodes=data.draw(st.sampled_from([2, 5, 10_000])), seed=3)
        for tree in model.trees:
            split = np.flatnonzero(tree.feature >= 0)
            # Ordered by index, split nodes made their children in turn:
            # split k, the k-th split node by index, made nodes 2k+1 and 2k+2.
            assert np.array_equal(tree.left[split], 2 * np.arange(split.size) + 1)


class TestPrediction:
    def test_single_pure_leaf_tree(self):
        tree = Tree(
            feature=np.array([-1], dtype=np.int32),
            threshold=np.array([0.0]),
            left=np.array([-1], dtype=np.int32),
            right=np.array([-1], dtype=np.int32),
            value=np.array([1.0]),
            n_samples=np.array([10], dtype=np.int32),
        )
        model = RandomForestModel(trees=[tree], ntree=1, mtry=1, nodesize=1, maxnodes=1,
                                  seed=0, importances=np.zeros(3))
        assert np.all(rf_predict_proba(model, np.zeros((4, 3))) == 1.0)

    def test_two_tree_vote_averages(self):
        def constant_tree(v):
            return Tree(
                feature=np.array([-1], dtype=np.int32),
                threshold=np.array([0.0]),
                left=np.array([-1], dtype=np.int32),
                right=np.array([-1], dtype=np.int32),
                value=np.array([v]),
                n_samples=np.array([5], dtype=np.int32),
            )
        model = RandomForestModel(
            trees=[constant_tree(1.0), constant_tree(0.0)],
            ntree=2, mtry=1, nodesize=1, maxnodes=1, seed=0,
            importances=np.zeros(2),
        )
        assert np.all(rf_predict_proba(model, np.zeros((3, 2))) == 0.5)


    @pytest.mark.parametrize("columns", [2, 8])
    def test_x_of_another_width_raises_naming_both(self, columns):
        X, y = xor_data(60, seed=6)
        X = np.column_stack([X, X])
        model = fit_random_forest(X, y, ntree=3, mtry=2, nodesize=1, maxnodes=16, seed=5)
        with pytest.raises(ValueError, match=rf"\(60, {columns}\).* 4 columns"):
            rf_predict_proba(model, np.zeros((60, columns)))

    def test_a_forest_with_no_trees_raises(self):
        model = RandomForestModel(trees=[], ntree=0, mtry=1, nodesize=1, maxnodes=1,
                                  seed=0, importances=np.zeros(2))
        with pytest.raises(ValueError, match="no trees"):
            rf_predict_proba(model, np.zeros((3, 2)))

    def test_a_tree_split_outside_x_raises(self):
        # A loaded model's importances may claim more columns than its trees use,
        # or fewer: a flat read past a row would score a neighbouring row's cell.
        tree = Tree(*(np.array(v, dtype=t) for v, t in zip(
            ([2, -1, -1], [0.5, 0, 0], [1, -1, -1], [2, -1, -1], [0.5, 0, 1], [4, 2, 2]),
            (np.int32, float, np.int32, np.int32, float, np.int32))))
        model = RandomForestModel(trees=[tree], ntree=1, mtry=1, nodesize=1, maxnodes=2,
                                  seed=0, importances=np.zeros(2))
        with pytest.raises(ValueError, match="column 2 of X's 2"):
            rf_predict_proba(model, np.zeros((3, 2)))


def _ladder(X, y, ntrees, maxnodes, **params):
    """The forests of ``ntrees`` (most first) at one budget, each cut from
    the one before it, the first from a forest grown to ``maxnodes[0]``."""
    grown = fit_random_forest(X, y, ntree=ntrees[0], maxnodes=maxnodes[0], **params)
    ladders = []
    for budget in maxnodes:
        ladder = []
        for ntree in ntrees:
            source = ladder[-1] if ladder else grown
            ladder.append(fit_random_forest(X, y, ntree=ntree, maxnodes=budget,
                                            grown=source, **params))
        ladders.append(ladder)
    return ladders


class TestNestedScoring:
    """``rf_nested_proba`` walks each tree of a ladder of nested forests once."""

    def test_equals_each_forests_own_scores_across_the_block_boundary(self):
        X, y = xor_data(300, seed=8)
        params = dict(mtry=2, nodesize=1, seed=19)
        ladders = _ladder(X, y, [40, 33, 3], [64, 6], **params)
        binds = False
        for budget, ladder in zip([64, 6], ladders):
            assert all(a is b for a, b in zip(ladder[1].trees, ladder[0].trees))
            rows = np.random.default_rng(budget).random((90, 2))
            order = [2, 0, 1]   # any order of the ladder's forests
            for i, proba in zip(order, rf_nested_proba([ladder[i] for i in order], rows)):
                alone = fit_random_forest(X, y, ntree=len(ladder[i].trees), maxnodes=budget,
                                          **params)
                assert proba.tobytes() == rf_predict_proba(alone, rows).tobytes()
            binds |= ladder[0].trees[0].feature.size < ladders[0][0].trees[0].feature.size
        assert binds

    def test_forests_that_do_not_nest_are_refused(self):
        X, y = xor_data(120, seed=9)
        params = dict(ntree=4, mtry=2, nodesize=1, maxnodes=8, seed=3)
        a, b = fit_random_forest(X, y, **params), fit_random_forest(X, y, **params)
        assert rf_model_text(a) == rf_model_text(b)   # equal trees, other objects
        with pytest.raises(ValueError, match="do not nest"):
            rf_nested_proba([a, b], X)
        small = fit_random_forest(X, y, grown=a, **{**params, "ntree": 2, "maxnodes": 4})
        with pytest.raises(ValueError, match="do not nest"):
            rf_nested_proba([a, small], X)

    @pytest.mark.parametrize("decimals", [0, 2])
    def test_a_fit_given_the_coding_equals_a_fit_given_x(self, decimals):
        rng = np.random.default_rng(decimals)
        X = rng.normal(size=(150, 5)).round(decimals)
        y = (rng.random(150) < 0.3 + 0.4 * (X[:, 0] > 0)).astype(int)
        coded = _CodedMatrix(X)
        params = dict(ntree=35, mtry=3, nodesize=2, maxnodes=12, seed=decimals)
        cut = dict(params, ntree=20, maxnodes=5)
        for a, b in [(fit_random_forest(coded, y, **params), fit_random_forest(X, y, **params)),
                     (fit_random_forest(coded, y, grown=fit_random_forest(coded, y, **params),
                                        **cut),
                      fit_random_forest(X, y, **cut))]:
            assert rf_model_text(a) == rf_model_text(b)
            for s, t in zip(a.trees, b.trees, strict=True):
                for field in ("feature", "threshold", "left", "right", "value", "n_samples"):
                    u, v = getattr(s, field), getattr(t, field)
                    assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), field
            assert a.importances.tobytes() == b.importances.tobytes()

    @given(st.data())
    def test_flat_walk_equals_the_gathered_walk_on_rows_with_nan(self, data):
        X, y = xor_data(80, seed=data.draw(st.integers(0, 2**16), label="data seed"))
        model = fit_random_forest(X, y, ntree=data.draw(st.integers(1, 40)), mtry=2,
                                  nodesize=1, maxnodes=data.draw(st.integers(1, 30)), seed=7)
        cells = st.one_of(st.floats(0, 1), st.sampled_from([np.nan, np.inf, -np.inf]))
        rows = data.draw(st.integers(1, 12), label="rows")
        Z = np.array(data.draw(st.lists(cells, min_size=2 * rows, max_size=2 * rows)))
        Z = Z.reshape(rows, 2)
        gathered = np.stack([tree.value[_leaf_index(tree, Z)] for tree in model.trees])
        assert _block_scores(model.trees, Z).tobytes() == gathered.tobytes()


class TestImportances:
    def test_sum_to_one_and_planted_feature_first(self):
        rng = np.random.default_rng(23)
        n = 500
        signal = rng.integers(0, 2, n).astype(float)
        X = np.column_stack([rng.normal(size=(n, 3)), signal, rng.normal(size=(n, 3))])
        y = (rng.random(n) < np.where(signal == 1, 0.9, 0.1)).astype(int)
        model = fit_random_forest(X, y, ntree=60, mtry=3, nodesize=5,
                                  maxnodes=64, seed=29)
        assert abs(model.importances.sum() - 1.0) < 1e-12
        ranked = rf_importances(model, [f"c{i}" for i in range(7)])
        assert ranked[0][0] == "c3"

    def test_unused_feature_has_zero_importance(self):
        rng = np.random.default_rng(31)
        n = 200
        X = np.zeros((n, 3))
        X[:, 0] = rng.normal(size=n)
        # columns 1, 2 constant: never splittable
        y = (X[:, 0] > 0).astype(int)
        model = fit_random_forest(X, y, ntree=10, mtry=3, nodesize=1,
                                  maxnodes=32, seed=37)
        assert model.importances[1] == 0.0 and model.importances[2] == 0.0

    def test_importances_nonnegative(self):
        X, y = xor_data(120, seed=4)
        model = fit_random_forest(X, y, ntree=15, mtry=2, nodesize=2,
                                  maxnodes=32, seed=41)
        assert np.all(model.importances >= 0.0)


def _reference_coding(X):
    """``_CodedMatrix``'s fields built from dense ranks, one
    ``np.unique(return_inverse=True)`` per column."""
    uniques, blocks = [], []
    for column in X.T:
        uniq, rank = np.unique(column, return_inverse=True)
        uniques.append(uniq)
        blocks.append(rank.reshape(-1, 1) <= np.arange(uniq.size - 1))
    widths = [u.size - 1 for u in uniques]
    below = np.concatenate(blocks, axis=1, dtype=np.float32)
    return below, np.repeat(np.arange(len(widths)), widths), np.cumsum(widths) - widths, uniques


_POOL = [-0.0, 0.0, 1.0, -1.0, 2.5, np.nextafter(1.0, 2.0), np.nextafter(0.0, 1.0), 1e300]


@st.composite
def _coding_inputs(draw):
    n = draw(st.integers(1, 40), label="n")
    columns = []
    for _ in range(draw(st.integers(1, 6), label="d")):
        kind = draw(st.sampled_from(["pool", "constant", "fifteen", "ulp", "duplicate"]))
        if kind == "duplicate" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))].copy())
        elif kind == "constant":
            columns.append(np.full(n, draw(st.sampled_from(_POOL))))
        elif kind == "fifteen":
            values = draw(st.permutations([i % 15 for i in range(n)]))
            columns.append(np.array(values, dtype=float) * draw(st.sampled_from([1.0, -0.5])))
        elif kind == "ulp":
            base = draw(st.floats(-1e6, 1e6, allow_nan=False))
            near = [base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)]
            columns.append(np.array(draw(st.lists(st.sampled_from(near), min_size=n,
                                                  max_size=n))))
        else:
            columns.append(np.array(draw(st.lists(st.sampled_from(_POOL), min_size=n,
                                                  max_size=n))))
    return np.column_stack(columns)


class TestCodedMatrix:
    @given(_coding_inputs())
    def test_matches_dense_rank_coding(self, X):
        coded = _CodedMatrix(X)
        below, feature, start, uniques = _reference_coding(X)
        assert coded.below.dtype == np.float32 and coded.below.flags.c_contiguous
        assert np.array_equal(coded.below, below)
        assert np.array_equal(coded.feature, feature)
        assert np.array_equal(coded.start, start)
        # -0.0 and 0.0 are one value; either may stand for it
        assert len(coded.uniques) == len(uniques)
        assert all(np.array_equal(a, b) for a, b in zip(coded.uniques, uniques))


def _golden_xor():
    X, y = xor_data(200, seed=0)
    return X, y, dict(ntree=10, mtry=2, nodesize=1, maxnodes=10_000, seed=3)


def _golden_tied_integers():
    rng = np.random.default_rng(43)
    X = np.column_stack([rng.integers(0, 4, 150), rng.integers(0, 2, 150),
                         np.round(rng.random(150), 1), rng.integers(0, 7, 150)])
    y = (rng.random(150) < 0.2 + 0.15 * X[:, 0]).astype(int)
    return X.astype(float), y, dict(ntree=10, mtry=2, nodesize=3, maxnodes=40, seed=47)


def _golden_maxnodes_binding():
    rng = np.random.default_rng(53)
    X = rng.normal(size=(300, 6))
    y = (rng.random(300) < 0.4).astype(int)
    return X, y, dict(ntree=10, mtry=3, nodesize=1, maxnodes=8, seed=59)


def _golden_single_class():
    X = np.random.default_rng(61).normal(size=(30, 4))
    return X, np.ones(30, dtype=int), dict(ntree=5, mtry=2, nodesize=1,
                                           maxnodes=50, seed=67)


def _golden_design_matrix():
    """A small design matrix built as criterion 7 builds its own: the
    default generator, episodes, features and the fixed-domain encoding."""
    mappings = load_code_mappings()
    data = generate(GeneratorConfig(n_users=150, mean_admissions_per_user=2.0,
                                    readmission_fraction=0.2, seed=71))
    labeled, _ = build_labeled_admissions(data.medical, mappings)
    feats = extract_features(labeled, data.medical, data.pharmacy,
                             data.demographics, mappings)
    matrix = one_hot_encode(feats, mappings)
    return matrix.X, matrix.y, dict(ntree=10, mtry=50, nodesize=7, maxnodes=300, seed=2027)


def _golden_gain_ties():
    """Exact gain ties between features: two copies of each 0/1 column,
    three constant columns and ``mtry`` 2, so some nodes draw two copies and
    some draw only constants."""
    rng = np.random.default_rng(73)
    a, b = rng.integers(0, 2, (2, 160))
    zeros, ones = np.zeros(160), np.ones(160)
    X = np.column_stack([a, zeros, b, a, ones, b, rng.integers(0, 3, 160), zeros])
    y = (rng.random(160) < 0.1 + 0.3 * a + 0.25 * b).astype(int)
    return X.astype(float), y, dict(ntree=20, mtry=2, nodesize=2, maxnodes=24, seed=79)


# sha256 of the saved rf_best model file; a change to tree growth that
# keeps these digests keeps every model file byte for byte.
GOLDEN_MODEL_SHA256 = {
    "xor": "d1c3087132a4564df068f1fd5d6d7aebed7de259a18c1d255e032a4d50d44284",
    "tied_integers": "3983243fe0be9bf83d2ff8c6462f466500ad629676cc055cf38855df10b8497e",
    "maxnodes_binding": "10a0c12e188cddaa07e9ce1c3efa4792694b501e5dbafe2365f841eb82d9f5b5",
    "single_class": "867743c7fe9f9c659ed65db40738af703f1f77c5187c9a4590660b51d077e64e",
    "design_matrix": "08f28b05a4abc4e227621de41e47233323616833c95667ee062aed22e5d8fc65",
    "gain_ties": "8b6b9a8cbff9e93ac5e6ddc6853c4712d7b9da2ba92bb9cf9580c984e43c216b",
}
GOLDEN_CASES = {
    "xor": _golden_xor,
    "tied_integers": _golden_tied_integers,
    "maxnodes_binding": _golden_maxnodes_binding,
    "single_class": _golden_single_class,
    "design_matrix": _golden_design_matrix,
    "gain_ties": _golden_gain_ties,
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_saved_model_bytes_are_pinned(case):
    X, y, params = GOLDEN_CASES[case]()
    model = fit_random_forest(X, y, **params)
    text = rf_model_text(model)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_MODEL_SHA256[case]


def _fold_zero(config: GeneratorConfig, fold_count: int):
    """The fit rows of fold 0 of the training side of generated claims,
    split and folded as a run with ``config.seed`` splits them."""
    mappings = load_code_mappings()
    data = generate(config)
    labeled, _ = build_labeled_admissions(data.medical, mappings)
    feats = extract_features(labeled, data.medical, data.pharmacy,
                             data.demographics, mappings)
    train, _ = train_test_split(one_hot_encode(feats, mappings), SplitSpec(seed=config.seed))
    fit, _ = stratified_kfold(train.y, fold_count, config.seed)[0]
    return train.X[fit], train.y[fit]


def _chf_signal(strength):
    return (SignalSpec("comorbidity", "4280", strength, 0.5),)


def _golden_pipeline_m_fold():
    """A 60-tree cell on fold 0 of ``pipeline_m``'s data at seed 1 (300
    users, 3 folds: ~320 fit rows)."""
    X, y = _fold_zero(GeneratorConfig(n_users=300, readmission_fraction=0.1,
                                      signals=_chf_signal(3.0), seed=1), 3)
    return X, y, dict(ntree=60, mtry=20, nodesize=7, maxnodes=64,
                      seed=derive_seed(1, FOREST_GRID_STREAM, 20, 7, 0))


def _golden_forest_l_fold():
    """A ``forest_l`` cell on its fold 0 at seed 7 (5,000 users, 10 folds:
    ~7,200 fit rows), with ``maxnodes`` 300 binding."""
    X, y = _fold_zero(GeneratorConfig(n_users=5000, readmission_fraction=0.05,
                                      signals=_chf_signal(math.log(3.0)), seed=7), 10)
    return X, y, dict(ntree=10, mtry=50, nodesize=7, maxnodes=300,
                      seed=derive_seed(7, FOREST_GRID_STREAM, 50, 7, 0))


# sha256 of ``importances.tobytes()``.
GOLDEN_IMPORTANCES_SHA256 = {
    "design_matrix": "e0a1c6e32327b163ad0ef6c39f5d6d8d2a6a5925f5b8fa3275151c3c6ddd0555",
    "forest_l_fold": "50dc275778626c4245b9ddc376c240e63ee8840d2b431007524466516f12fb87",
    "gain_ties": "38d4d876a61a2ef79151385e8f079f143672ba993165da2a3f815c0438d999aa",
    "maxnodes_binding": "6eea37d407d82d3e43b157941adc86668a5504d2525f47e3403247b45d939c03",
    "pipeline_m_fold": "c2a6c301c27fd020b543aa5c45b5edf857331b4c63e2fa1f8b233b826f53ed6e",
    "single_class": "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    "tied_integers": "03ed0a51231c286fd748fc53994fabc0c13f6ddeb0cb86691d7efaaec50932a6",
    "xor": "226c151c47cc383285fa5f0d62e2b6a2c77895ad1729f3d93e1b25df81436dda",
}
IMPORTANCE_CASES = {
    **GOLDEN_CASES,
    "pipeline_m_fold": _golden_pipeline_m_fold,
    "forest_l_fold": _golden_forest_l_fold,
}


@pytest.mark.parametrize("case", sorted(IMPORTANCE_CASES))
def test_importances_are_pinned(case):
    X, y, params = IMPORTANCE_CASES[case]()
    model = fit_random_forest(X, y, **params)
    assert model.importances.dtype == np.float64
    digest = hashlib.sha256(model.importances.tobytes()).hexdigest()
    assert digest == GOLDEN_IMPORTANCES_SHA256[case]
