"""The flat trees' vectorised prediction against the per-node reference walk."""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from fbcsurv.classifiers import MODEL_FAMILIES, Hyperparameters, ModelFamily, fit_model, predict
from fbcsurv.classifiers import tree

import tree_reference


def _matrix(data, n_rows, d, low, high):
    rows = st.lists(st.lists(st.integers(low, high), min_size=d, max_size=d), min_size=n_rows, max_size=n_rows)
    return np.array(data.draw(rows), dtype=np.int64).reshape(n_rows, d)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_flat_prediction_matches_per_node_walk(data):
    n = data.draw(st.integers(1, 40))
    d = data.draw(st.integers(1, 4))
    high = data.draw(st.sampled_from([1, 4, 60]))
    X = _matrix(data, n, d, 0, high)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    # test rows reach past the training values on both sides
    X_test = _matrix(data, data.draw(st.integers(0, 30)), d, -3, high + 3)
    family = data.draw(st.sampled_from(MODEL_FAMILIES))
    hp = Hyperparameters(
        tree_max_depth=data.draw(st.sampled_from([None, 1, 2, 4])),
        tree_min_leaf=data.draw(st.integers(1, 3)),
        ada_rounds=data.draw(st.integers(0, 8)),
        gbt_rounds=data.draw(st.integers(0, 8)),
        gbt_depth=data.draw(st.integers(1, 4)),
        gbt_learning_rate=data.draw(st.sampled_from([0.1, 0.5])),
    )
    model = fit_model(family, X, y, hp)
    for rows in (X, X_test):
        assert np.array_equal(predict(model, rows), tree_reference.predict(model, rows, hp, y))
        # the reference scores an AdaBoost model without stumps by its fallback class only
        if family is ModelFamily.GBT or (family is ModelFamily.ADABOOST and model.model.trees):
            assert np.array_equal(model.model.decision_scores(rows), tree_reference.decision_scores(model, rows, hp))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_prediction_walks_split_mid_model_match_per_node_walk(data):
    # with a walk of at most 1..7 (tree, row) pairs, every model of several trees is scored over several chunks
    family = data.draw(st.sampled_from([ModelFamily.ADABOOST, ModelFamily.GBT]))
    # a first column no stump can fit perfectly, so AdaBoost mostly keeps more stumps than a chunk holds
    X = np.column_stack((np.arange(30) % 7, _matrix(data, 30, 2, 0, 6)))
    y = np.arange(30) % 2
    X_test = _matrix(data, data.draw(st.integers(1, 9)), 3, -1, 7)
    hp = Hyperparameters(ada_rounds=12, gbt_rounds=12, gbt_depth=data.draw(st.integers(1, 3)))
    model = fit_model(family, X, y, hp)
    assume(len(model.model.weights) > 7)
    with mock.patch.object(tree, "_WALK_PAIRS", data.draw(st.integers(1, 7))):
        for rows in (X, X_test):
            assert np.array_equal(model.model.decision_scores(rows), tree_reference.decision_scores(model, rows, hp))
            assert np.array_equal(predict(model, rows), tree_reference.predict(model, rows, hp, y))


def test_adaboost_without_stumps_predicts_the_training_majority():
    X = np.array([[0, 3], [1, 2], [2, 1], [3, 0], [4, 4]])
    X_test = np.array([[-1, 9], [2, 2], [9, -1]])
    hp = Hyperparameters(ada_rounds=0)
    # class 1 is the majority, a minority and half of the rows
    for y, majority in (([1, 1, 0, 1, 0], 1), ([0, 1, 0, 0, 0], 0), ([1, 0, 1, 0], 0)):
        y = np.array(y)
        model = fit_model(ModelFamily.ADABOOST, X[: len(y)], y, hp)
        assert model.model.trees == [] and model.model.init_score == float(majority)
        for rows in (X, X_test):
            assert predict(model, rows).tolist() == [majority] * len(rows)
            assert np.array_equal(predict(model, rows), tree_reference.predict(model, rows, hp, y))
