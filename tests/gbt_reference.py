"""Per-node Newton tree grower and boosting loop, kept as the reference for the lockstep grower.

This is the depth-first implementation the package used before trees were
grown level by level: one `BinnedMatrix.scan` per node, node totals from
`ndarray.sum()` over the node's rows. It grows linked `Node` trees. Tests
require the package's grower to reproduce its trees, leaf values, training
losses and scores bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fbcsurv.classifiers.splits import BinnedMatrix

from cart_reference import argbest
from tree_reference import Node, apply

_PRIOR_EPS = 1e-12


@dataclass
class ReferenceGbt:
    init_score: float
    learning_rate: float
    trees: list[Node] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.full(len(X), self.init_score, dtype=np.float64)
        for tree in self.trees:
            scores += self.learning_rate * apply(tree, X)
        return scores


def newton_split(bm: BinnedMatrix, idx: np.ndarray, g: np.ndarray, h: np.ndarray, l2: float):
    """Best (feature, threshold, flat_bin) by second-order gain; None unless gain > 0."""
    counts, _, (lg, lh), valid = bm.scan(idx, (g, h))
    G = float(g.sum())
    H = float(h.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        parent_score = G * G / (H + l2)
        rg = G - lg
        rh = H - lh
        gain = 0.5 * (lg * lg / (lh + l2) + rg * rg / (rh + l2) - parent_score)
    best = argbest(gain, valid, maximize=True)
    if best is None or gain[best] <= 0.0:
        return None
    feature, threshold = bm.split_at(best, counts)
    return feature, threshold, best


def grow_regression_tree(
    bm: BinnedMatrix,
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    l2: float,
    row_values: np.ndarray,
) -> Node:
    """Depth-first Newton regression tree; writes each row's leaf weight into row_values."""
    root = Node(n=len(g))
    stack = [(root, np.arange(len(g)), 0)]
    while stack:
        node, idx, depth = stack.pop()
        node.n = len(idx)
        split = None
        if depth < max_depth and node.n >= 2:
            split = newton_split(bm, idx, g[idx], h[idx], l2)
        if split is None:
            node.value = -float(g[idx].sum()) / (float(h[idx].sum()) + l2)
            row_values[idx] = node.value
            continue
        node.feature, node.threshold, flat_bin = split
        mask = bm.flat_codes[idx, node.feature] <= flat_bin
        node.left = Node(n=int(mask.sum()))
        node.right = Node(n=int((~mask).sum()))
        stack.append((node.right, idx[~mask], depth + 1))
        stack.append((node.left, idx[mask], depth + 1))
    return root


def fit_gbt_reference(
    X: np.ndarray, y: np.ndarray, rounds: int, depth: int, learning_rate: float, l2: float
) -> tuple[ReferenceGbt, np.ndarray]:
    """One model boosted alone; returns the ensemble and its final training scores."""
    n = len(y)
    y_f = y.astype(np.float64)
    prior = min(max(float(y_f.mean()), _PRIOR_EPS), 1.0 - _PRIOR_EPS)
    init = math.log(prior / (1.0 - prior))
    ensemble = ReferenceGbt(init_score=init, learning_rate=learning_rate)
    bm = BinnedMatrix(np.asarray(X, dtype=np.int64))
    scores = np.full(n, init, dtype=np.float64)
    ensemble.train_losses.append(float(np.mean(np.logaddexp(0.0, scores) - y_f * scores)))
    row_values = np.empty(n, dtype=np.float64)
    for _ in range(rounds):
        p = 1.0 / (1.0 + np.exp(-scores))
        g = p - y_f
        h = p * (1.0 - p)
        tree = grow_regression_tree(bm, g, h, depth, l2, row_values)
        ensemble.trees.append(tree)
        scores = scores + learning_rate * row_values
        ensemble.train_losses.append(float(np.mean(np.logaddexp(0.0, scores) - y_f * scores)))
    return ensemble, scores
