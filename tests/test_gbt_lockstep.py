"""The one group fit path for every family, and the level-wise grower's CART trees, AdaBoost stumps
and Newton trees against the per-node references and a brute-force split oracle."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fbcsurv.classifiers import MODEL_FAMILIES, Hyperparameters, ModelFamily, fit_group, fit_model, predict
from fbcsurv.classifiers.splits import BinnedMatrix
from fbcsurv.classifiers.tree import NewtonGrower, StumpGrower
from fbcsurv.evaluation import LOCKSTEP_GROUP_ELEMENTS, _lockstep_groups

from adaboost_reference import best_stump, fit_adaboost_ensemble
from cart_reference import grow_classification_tree
from gbt_reference import fit_gbt_reference, grow_regression_tree
from tree_reference import nodes_from_tree


@st.composite
def integer_matrices(draw, max_rows=40, max_cols=6):
    """Small integer matrices; some columns constant, some with a wide value span."""
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_cols))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["constant", "narrow", "wide"]))
        if kind == "constant":
            columns.append([draw(st.integers(-3, 3))] * n)
        else:
            high = 3 if kind == "narrow" else 2000
            columns.append(draw(st.lists(st.integers(0, high), min_size=n, max_size=n)))
    return np.array(columns, dtype=np.int64).T.reshape(n, d)


def grow_round(grower, g, h, row_values):
    """One round's trees, one per model."""
    grower.grow(g, h, row_values)
    return [trees[0] for trees in grower.pop_trees()]


@st.composite
def prefix_groups(draw, d):
    """A non-empty ascending set of column-prefix lengths; often a group of one."""
    return tuple(sorted(draw(st.sets(st.integers(1, d), min_size=1, max_size=min(d, 4)))))


FAMILIES = [pytest.param(family, id=family.value) for family in MODEL_FAMILIES]


# ---------------------------------------------------------------------------
# one fit path: fit_group over one binning against one fit_model per k
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(X=integer_matrices())
def test_prefix_binning_equals_binning_of_the_prefix(X):
    binned = BinnedMatrix(X)
    for k in range(1, X.shape[1] + 1):
        prefix, alone = binned.prefix(k), BinnedMatrix(X[:, :k])
        assert (prefix.n, prefix.d, prefix.n_bins) == (alone.n, alone.d, alone.n_bins)
        for name in ("offsets", "bin_values", "col_of_bin", "flat_codes", "seg_start"):
            assert np.array_equal(getattr(prefix, name), getattr(alone, name))
        assert np.shares_memory(prefix.flat_codes, binned.flat_codes)
    with pytest.raises(ValueError, match="column prefix"):
        binned.prefix(X.shape[1] + 1)


def _check_group_against_single_fits(family, X, y, hp, ks):
    """Each group model serialises like fit_model on its columns; its training classes are its predictions."""
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    models, train_classes = fit_group(family, BinnedMatrix(X), y, hp, ks, names)
    assert train_classes.shape == (len(ks), len(y))
    for model, classes, k in zip(models, train_classes, ks):
        alone = fit_model(family, X[:, :k], y, hp, names[:k])
        assert json.dumps(model.to_dict(), sort_keys=True) == json.dumps(alone.to_dict(), sort_keys=True)
        assert np.array_equal(classes, predict(model, X[:, :k]))
    return models


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_group_fit_matches_single_fits(family, data):
    X = data.draw(integer_matrices())
    n, d = X.shape
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    hp = Hyperparameters(
        tree_max_depth=data.draw(st.sampled_from([None, 1, 2, 4])),
        tree_min_leaf=data.draw(st.integers(1, n)),
        ada_rounds=data.draw(st.integers(0, 8)),
        gbt_rounds=data.draw(st.integers(0, 4)),
        gbt_depth=data.draw(st.integers(1, 3)),
    )
    _check_group_against_single_fits(family, X, y, hp, data.draw(prefix_groups(d)))


_X_20 = np.random.default_rng(5).integers(0, 4, size=(20, 4))
_Y_20 = np.random.default_rng(6).integers(0, 2, size=20)
# name -> (X, y, hyperparameters)
EDGE_CASES = {
    "no_boosting_rounds": (_X_20, _Y_20, Hyperparameters(ada_rounds=0, gbt_rounds=0)),
    # balanced targets and no usable split: the first stump's weighted error is 0.5
    "first_stump_error_half": (np.ones((6, 2), dtype=int), np.array([0, 1] * 3), Hyperparameters()),
    "single_row": (np.array([[3, 4]]), np.array([1]), Hyperparameters(tree_min_leaf=1)),
    "constant_columns": (np.full((8, 3), 2), np.array([0, 1, 1, 0, 1, 1, 0, 1]), Hyperparameters()),
    "min_leaf_above_half": (_X_20, _Y_20, Hyperparameters(tree_min_leaf=11)),
    "unbounded_depth": (_X_20, _Y_20, Hyperparameters(tree_max_depth=None, tree_min_leaf=1)),
    "depth_one": (_X_20, _Y_20, Hyperparameters(tree_max_depth=1, tree_min_leaf=1)),
    # column 2 separates the classes: the k=3 model stops on a perfect first stump, the others boost on
    "perfect_stump": (np.column_stack((_X_20[:, :2], 3 * _Y_20)), _Y_20, Hyperparameters()),
    # column 0 is constant and the classes balanced: the k=1 model stops at once, the k=2 model boosts on
    "first_stump_error_half_in_one_model": (np.column_stack((np.full(20, 2), _X_20[:, 0])), _Y_20, Hyperparameters()),
}
# AdaBoost stumps kept per k, for the cases whose models stop in different rounds
STUMPS_KEPT = {"perfect_stump": [50, 50, 1], "first_stump_error_half_in_one_model": [0, 50]}


@pytest.mark.parametrize("case", EDGE_CASES)
@pytest.mark.parametrize("family", FAMILIES)
def test_group_fit_edge_cases(family, case):
    X, y, hp = EDGE_CASES[case]
    models = _check_group_against_single_fits(family, X, y, hp, tuple(range(1, X.shape[1] + 1)))
    if family is ModelFamily.ADABOOST and case in ("no_boosting_rounds", "first_stump_error_half"):
        # no stump kept: every row gets fallback_class
        assert all(model.model.stumps == [] for model in models)
    if family is ModelFamily.DECISION_TREE and case in ("single_row", "constant_columns", "min_leaf_above_half"):
        assert all(model.model.feature.tolist() == [-1] for model in models)


def _check_group_against_references(family, X, y, hp, ks):
    """Each group model and its training classes equal the per-node reference fit on its columns, bit for bit."""
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    models, train_classes = fit_group(family, BinnedMatrix(X), y, hp, ks, names)
    for model, classes, k in zip(models, train_classes, ks):
        bm = BinnedMatrix(X[:, :k])
        if family is ModelFamily.DECISION_TREE:
            reference, reference_classes = grow_classification_tree(bm, y, hp.tree_max_depth, hp.tree_min_leaf)
        else:
            reference, reference_classes = fit_adaboost_ensemble(bm, y, hp.ada_rounds)
            assert model.model.alphas == reference.alphas
            assert model.model.weighted_errors == reference.weighted_errors
            assert model.model.weight_sums == reference.weight_sums
        assert json.dumps(model.model.to_dict(), sort_keys=True) == json.dumps(reference.to_dict(), sort_keys=True)
        assert np.array_equal(classes, reference_classes)
    return models


REFERENCE_FAMILIES = [pytest.param(family, id=family.value) for family in (ModelFamily.DECISION_TREE, ModelFamily.ADABOOST)]


@pytest.mark.parametrize("family", REFERENCE_FAMILIES)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_lockstep_trees_and_stumps_match_per_node_references(family, data):
    X = data.draw(integer_matrices())
    n, d = X.shape
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    hp = Hyperparameters(
        tree_max_depth=data.draw(st.sampled_from([None, 1, 2, 4])),
        tree_min_leaf=data.draw(st.integers(1, n)),
        ada_rounds=data.draw(st.integers(0, 12)),
    )
    _check_group_against_references(family, X, y, hp, data.draw(prefix_groups(d)))


@pytest.mark.parametrize("case", EDGE_CASES)
@pytest.mark.parametrize("family", REFERENCE_FAMILIES)
def test_edge_cases_match_per_node_references(family, case):
    X, y, hp = EDGE_CASES[case]
    models = _check_group_against_references(family, X, y, hp, tuple(range(1, X.shape[1] + 1)))
    if family is ModelFamily.ADABOOST and case in STUMPS_KEPT:
        assert [len(model.model.stumps) for model in models] == STUMPS_KEPT[case]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_lockstep_stumps_match_best_stump_for_arbitrary_weights(data):
    X = data.draw(integer_matrices())
    n, d = X.shape
    ks = data.draw(prefix_groups(d))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    w = [np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))) for _ in ks]
    grower = StumpGrower(BinnedMatrix(X), ks, y)
    classes = np.empty((len(ks), n))
    grower.grow(w, classes)
    for stumps, model_classes, model_w, k in zip(grower.pop_trees(), classes, w, ks):
        stump, _, expected_classes = best_stump(BinnedMatrix(X[:, :k]), y, model_w)
        assert json.dumps(stumps[0].to_dict()) == json.dumps(stump.to_dict())
        assert np.array_equal(model_classes, expected_classes)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_lockstep_boosting_matches_per_node_reference(data):
    X = data.draw(integer_matrices())
    n, d = X.shape
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    ks = data.draw(prefix_groups(d))
    learning_rate = data.draw(st.sampled_from([0.1, 0.3, 1.0]))
    # with l2 = 0 and full steps, scores saturate the sigmoid and the reference divides 0 by 0
    l2 = data.draw(st.sampled_from([0.25, 1.0] if learning_rate == 1.0 else [0.0, 0.25, 1.0]))
    hp = Hyperparameters(
        gbt_rounds=data.draw(st.integers(0, 6)),
        gbt_depth=data.draw(st.integers(1, 4)),
        gbt_learning_rate=learning_rate,
        gbt_l2=l2,
    )
    names = tuple(f"f{j}" for j in range(d))
    models, train_classes = fit_group(ModelFamily.GBT, BinnedMatrix(X), y, hp, ks, names)
    assert [m.feature_names for m in models] == [names[:k] for k in ks]
    for model, classes, k in zip(models, train_classes, ks):
        reference, reference_scores = fit_gbt_reference(
            X[:, :k], y, hp.gbt_rounds, hp.gbt_depth, hp.gbt_learning_rate, hp.gbt_l2
        )
        # every node's feature, threshold, row count and leaf value
        assert [nodes_from_tree(tree) for tree in model.model.trees] == reference.trees
        assert (model.model.init_score, model.model.learning_rate) == (reference.init_score, reference.learning_rate)
        assert model.model.train_losses == reference.train_losses
        assert np.array_equal(classes, reference_scores > 0)
        assert np.array_equal(model.model.decision_scores(X[:, :k]), reference.decision_scores(X[:, :k]))
        alone = fit_model(ModelFamily.GBT, X[:, :k], y, hp, names[:k])
        assert json.dumps(alone.to_dict(), sort_keys=True) == json.dumps(model.to_dict(), sort_keys=True)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_lockstep_trees_match_reference_for_arbitrary_gradients(data):
    X = data.draw(integer_matrices())
    n, d = X.shape
    ks = data.draw(prefix_groups(d))
    l2 = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    depth = data.draw(st.integers(1, 5))
    hess = st.floats(1e-3, 4.0) if l2 == 0.0 else st.floats(0.0, 4.0)
    g = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n * len(ks), max_size=n * len(ks))))
    h = np.array(data.draw(st.lists(hess, min_size=n * len(ks), max_size=n * len(ks))))
    g = g.reshape(len(ks), n)
    h = h.reshape(len(ks), n)
    row_values = np.empty((len(ks), n))
    trees = grow_round(NewtonGrower(BinnedMatrix(X), ks, depth, l2), g, h, row_values)
    for m, k in enumerate(ks):
        expected_values = np.empty(n)
        expected = grow_regression_tree(BinnedMatrix(X[:, :k]), g[m], h[m], depth, l2, expected_values)
        assert nodes_from_tree(trees[m]) == expected
        assert np.array_equal(row_values[m], expected_values)


def test_group_fit_rejects_bad_inputs():
    X = np.array([[0, 1], [1, 0], [2, 2]])
    binned = BinnedMatrix(X)
    hp = Hyperparameters(gbt_rounds=2)
    for family in MODEL_FAMILIES:
        with pytest.raises(ValueError, match="binary"):
            fit_group(family, binned, np.array([0, 1]), hp, (1,), ("a", "b"))
        with pytest.raises(ValueError, match="binary"):
            fit_group(family, binned, np.array([0, 2, 1]), hp, (1,), ("a", "b"))
        with pytest.raises(ValueError, match="column prefixes"):
            fit_group(family, binned, np.array([0, 1, 1]), hp, (0, 2), ("a", "b"))
        with pytest.raises(ValueError, match="column prefixes"):
            fit_group(family, binned, np.array([0, 1, 1]), hp, (3,), ("a", "b", "c"))
        with pytest.raises(ValueError, match="feature_names"):
            fit_group(family, binned, np.array([0, 1, 1]), hp, (2,), ("a",))


def test_single_row_and_constant_columns_make_single_leaves():
    X = np.array([[4, 7]])
    for ks in [(1,), (2,), (1, 2)]:
        row_values = np.empty((len(ks), 1))
        trees = grow_round(NewtonGrower(BinnedMatrix(X), ks, 3, 1.0), np.full((len(ks), 1), 0.5), np.full((len(ks), 1), 0.25), row_values)
        assert all(tree.feature.tolist() == [-1] and tree.n.tolist() == [1] for tree in trees)
        assert row_values.tolist() == [[-0.5 / 1.25]] * len(ks)
    constant = np.full((6, 3), 2)
    trees = grow_round(NewtonGrower(BinnedMatrix(constant), (3,), 3, 0.0), np.ones((1, 6)), np.ones((1, 6)), np.empty((1, 6)))
    assert trees[0].feature.tolist() == [-1] and trees[0].value.tolist() == [-1.0]


def test_saturated_leaf_without_l2_fails_clearly():
    # pure leaves with l2 = 0 push the scores until the sigmoid saturates and a leaf's hessian sum is 0
    X = np.array([[0], [1]])
    y = np.array([0, 1])
    hp = Hyperparameters(gbt_rounds=100, gbt_depth=1, gbt_learning_rate=1.0, gbt_l2=0.0)
    with pytest.raises(ZeroDivisionError):
        fit_gbt_reference(X, y, hp.gbt_rounds, hp.gbt_depth, hp.gbt_learning_rate, hp.gbt_l2)
    with pytest.raises(ValueError, match="zero hessian sum"):
        fit_model(ModelFamily.GBT, X, y, hp)


# ---------------------------------------------------------------------------
# brute-force Newton split oracle
# ---------------------------------------------------------------------------


def _newton_gain(GL, HL, GR, HR, l2):
    G, H = GL + GR, HL + HR
    return 0.5 * (GL * GL / (HL + l2) + GR * GR / (HR + l2) - G * G / (H + l2))


def _brute_force_root_split(X, g, h, l2):
    """(gain, feature, threshold) of the best split in (feature, threshold) order; None if gain <= 0."""
    n, d = X.shape
    best = None
    for j in range(d):
        distinct = sorted(set(X[:, j].tolist()))
        for a, b in zip(distinct, distinct[1:]):
            threshold = (a + b) / 2.0
            left = [i for i in range(n) if X[i, j] <= threshold]
            right = [i for i in range(n) if X[i, j] > threshold]
            gain = _newton_gain(
                sum(g[i] for i in left), sum(h[i] for i in left), sum(g[i] for i in right), sum(h[i] for i in right), l2
            )
            if best is None or gain > best[0]:
                best = (gain, j, threshold)
    if best is None or best[0] <= 0.0:
        return None
    return best


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_root_split_matches_brute_force_oracle(data):
    X = data.draw(integer_matrices(max_rows=30, max_cols=4))
    n, d = X.shape
    # multiples of 1/8 keep every sum exact, so equal gains tie exactly and the tie-break is checked
    eighths = st.integers(-16, 16).map(lambda v: v / 8.0)
    g = data.draw(st.lists(eighths, min_size=n, max_size=n))
    h = data.draw(st.lists(st.integers(1, 16).map(lambda v: v / 8.0), min_size=n, max_size=n))
    l2 = data.draw(st.sampled_from([0.0, 1.0]))
    (tree,) = grow_round(NewtonGrower(BinnedMatrix(X), (d,), 1, l2), np.array([g]), np.array([h]), np.empty((1, n)))
    expected = _brute_force_root_split(X, g, h, l2)
    if expected is None:
        assert tree.feature.tolist() == [-1]
        return
    _, feature, threshold = expected
    assert (tree.feature[0], tree.threshold[0]) == (feature, threshold)
    left = X[:, feature] <= threshold
    GL = sum(v for v, m in zip(g, left) if m)
    HL = sum(v for v, m in zip(h, left) if m)
    assert tree.n[tree.left[0]] == int(left.sum())
    assert tree.value[tree.left[0]] == -GL / (HL + l2)


def test_oracle_tie_break_prefers_lowest_feature_then_threshold():
    # columns 0 and 1 are identical: both give the same best gain, feature 0 must win
    X = np.array([[0, 0, 5], [1, 1, 5], [2, 2, 5], [3, 3, 5]])
    g = np.array([[-1.0, -1.0, 1.0, 1.0]])
    h = np.ones((1, 4))
    (tree,) = grow_round(NewtonGrower(BinnedMatrix(X), (3,), 1, 1.0), g, h, np.empty((1, 4)))
    assert (tree.feature[0], tree.threshold[0]) == (0, 1.5)
    # symmetric gradients: thresholds 0.5 and 2.5 tie, the lower one must win
    g = np.array([[-1.0, 1.0, 1.0, -1.0]])
    (tree,) = grow_round(NewtonGrower(BinnedMatrix(X[:, :1]), (1,), 1, 1.0), g, h, np.empty((1, 4)))
    assert tree.threshold[0] == 0.5


# ---------------------------------------------------------------------------
# lockstep groups in the sweep
# ---------------------------------------------------------------------------


def test_lockstep_groups_respect_the_element_budget():
    k_values = tuple(range(5, 26))
    groups = _lockstep_groups(k_values, 424)
    assert tuple(k for group in groups for k in group) == k_values
    assert all(424 * sum(group) <= LOCKSTEP_GROUP_ELEMENTS for group in groups)
    # a group cannot take the next k without going over the budget
    assert all(424 * (sum(group) + nxt[0]) > LOCKSTEP_GROUP_ELEMENTS for group, nxt in zip(groups, groups[1:]))
    # at large n every model boosts alone, and an oversized k still gets its group of one
    assert _lockstep_groups((5, 6, 7), 4500) == [(5,), (6,), (7,)]
    assert _lockstep_groups((25,), 10**6) == [(25,)]
