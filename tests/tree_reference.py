"""Linked tree nodes and the per-node prediction walk, kept as the reference for the flat array tree.

`apply` is the depth-first walk the package used before prediction became one
vectorised step per tree level: a stack of (node, rows) pairs, one comparison
per inner node. `nodes_from_tree` rebuilds linked nodes from a flat `Tree`.
`decision_scores` and `predict` keep each family's own scoring rule, which
the package replaced with one sum over every family's trees. Tests require
the package's predictions and decision scores to equal the ones computed
here, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fbcsurv.classifiers import Hyperparameters, ModelFamily, TrainedModel
from fbcsurv.classifiers.tree import Tree


@dataclass
class Node:
    n: int
    feature: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    value: float | None = None  # leaf payload: a class, or a regression weight

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def nodes_from_tree(tree: Tree) -> Node:
    """The root of linked nodes equal to the flat tree, node for node."""
    feature, threshold, left, right, value, n = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value, tree.n)
    )
    nodes = [Node(n=count) for count in n]
    for i, node in enumerate(nodes):
        if feature[i] < 0:
            node.value = value[i]
        else:
            node.feature, node.threshold = feature[i], threshold[i]
            node.left, node.right = nodes[left[i]], nodes[right[i]]
    return nodes[0]


def apply(root: Node, X: np.ndarray) -> np.ndarray:
    """Leaf payload of every row of X, one node at a time."""
    out = np.empty(len(X), dtype=np.float64)
    stack = [(root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def decision_scores(model: TrainedModel, X: np.ndarray, hp: Hyperparameters) -> np.ndarray:
    """An ensemble's scores from per-node walks, added tree by tree in fit order, each family by its own formula.

    AdaBoost adds alpha * (2c - 1) from 0 for each stump's class c (class 1
    where its leaf votes +1); GBT adds learning_rate * leaf from its init score.
    """
    ensemble = model.model
    if model.family is ModelFamily.ADABOOST:
        scores = np.zeros(len(X), dtype=np.float64)
        for stump, alpha in zip(ensemble.trees, ensemble.weights):
            classes = (apply(nodes_from_tree(stump), X) > 0).astype(np.float64)
            scores += alpha * (2.0 * classes - 1.0)
        return scores
    scores = np.full(len(X), ensemble.init_score, dtype=np.float64)
    for tree in ensemble.trees:
        scores += hp.gbt_learning_rate * apply(nodes_from_tree(tree), X)
    return scores


def predict(model: TrainedModel, X: np.ndarray, hp: Hyperparameters, y_train: np.ndarray) -> np.ndarray:
    """Class predictions of any model family from per-node walks.

    A CART model predicts its one tree's leaf class. An AdaBoost model with
    no stump predicts the fallback class: 1 when class 1 is the strict
    majority of y_train, else 0.
    """
    if model.family is ModelFamily.DECISION_TREE:
        return apply(nodes_from_tree(model.model.trees[0]), X).astype(np.int64)
    if model.family is ModelFamily.ADABOOST and not model.model.trees:
        fallback_class = 1 if int(y_train.sum()) * 2 > len(y_train) else 0
        return np.full(len(X), fallback_class, dtype=np.int64)
    return (decision_scores(model, X, hp) > 0).astype(np.int64)
