"""Linked tree nodes and the per-node prediction walk, kept as the reference for the flat array tree.

`apply` is the depth-first walk the package used before prediction became one
vectorised step per tree level: a stack of (node, rows) pairs, one comparison
per inner node. `nodes_from_tree` rebuilds linked nodes from a flat `Tree`.
Tests require the package's predictions and decision scores to equal the ones
computed here, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fbcsurv.classifiers import ModelFamily, TrainedModel
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


def decision_scores(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """An ensemble's scores from per-node walks, added tree by tree in fit order."""
    ensemble = model.model
    if model.family is ModelFamily.ADABOOST:
        scores = np.zeros(len(X), dtype=np.float64)
        for stump, alpha in zip(ensemble.stumps, ensemble.alphas):
            scores += alpha * (2.0 * apply(nodes_from_tree(stump), X) - 1.0)
        return scores
    scores = np.full(len(X), ensemble.init_score, dtype=np.float64)
    for tree in ensemble.trees:
        scores += ensemble.learning_rate * apply(nodes_from_tree(tree), X)
    return scores


def predict(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Class predictions of any model family from per-node walks."""
    if model.family is ModelFamily.DECISION_TREE:
        return apply(nodes_from_tree(model.model), X).astype(np.int64)
    if model.family is ModelFamily.ADABOOST and not model.model.stumps:
        return np.full(len(X), model.model.fallback_class, dtype=np.int64)
    return (decision_scores(model, X) > 0).astype(np.int64)
