"""Per-node CART grower and the split picker, kept as the reference for the level-wise grower.

This is the breadth-first implementation the package used before CART trees
were grown level by level for a whole group of models: one
`BinnedMatrix.scan` per node, its Gini gains reduced to a split by `argbest`.
Tests require the package's trees and training classes to equal the ones
grown here, bit for bit. `argbest` also serves the AdaBoost and GBT
references.
"""

from __future__ import annotations

import numpy as np

from fbcsurv.classifiers.splits import BinnedMatrix
from fbcsurv.classifiers.tree import Tree


def argbest(scores: np.ndarray, valid: np.ndarray, maximize: bool = True) -> int | None:
    """Index of the best valid score; first occurrence wins ties. None if no valid cell."""
    if not valid.any():
        return None
    masked = np.where(valid, scores, -np.inf if maximize else np.inf)
    best = int(np.argmax(masked) if maximize else np.argmin(masked))
    if not valid[best]:
        return None
    return best


def _gini_split(bm: BinnedMatrix, idx: np.ndarray, y_f: np.ndarray, min_leaf: int):
    """Best (feature, threshold, flat_bin) by Gini gain; None if no valid split.

    Zero-gain splits are allowed: growth stops on purity, depth, or leaf-size
    grounds, not on lack of immediate impurity improvement.
    """
    n = len(idx)
    counts, left_n, (left_1,), valid = bm.scan(idx, (y_f,))
    valid = valid & (left_n >= min_leaf) & ((n - left_n) >= min_leaf)
    if not valid.any():
        return None
    n1 = float(y_f.sum())
    n0 = n - n1
    parent = 1.0 - (n0 * n0 + n1 * n1) / (n * n)
    lnf = left_n.astype(np.float64)
    rnf = n - lnf
    l1 = left_1
    l0 = lnf - l1
    r1 = n1 - l1
    r0 = n0 - l0
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_left = 1.0 - (l0 * l0 + l1 * l1) / (lnf * lnf)
        gini_right = 1.0 - (r0 * r0 + r1 * r1) / (rnf * rnf)
        gain = parent - (lnf / n) * gini_left - (rnf / n) * gini_right
    best = argbest(gain, valid, maximize=True)
    if best is None:
        return None
    feature, threshold = bm.split_at(best, counts)
    return feature, threshold, best


def grow_classification_tree(
    bm: BinnedMatrix, y: np.ndarray, max_depth: int | None, min_leaf: int
) -> tuple[Tree, np.ndarray]:
    """CART tree on Gini impurity over the rows of bm, and its class for every training row.

    Nodes are numbered breadth first, in the order they are grown. Every
    node's value is its majority class, ties predicting class 0.
    """
    y_f = y.astype(np.float64)
    classes = np.empty(len(y), dtype=np.int64)  # each row's leaf class
    rows = [(np.arange(len(y)), 0)]  # (row indices, depth) per node
    nodes = []  # (feature, threshold, left, right, n1) per node
    for idx, depth in rows:  # rows grows as nodes split
        n1 = int(y[idx].sum())
        pure = n1 in (0, len(idx))
        depth_capped = max_depth is not None and depth >= max_depth
        split = None
        if not pure and not depth_capped and len(idx) >= 2 * min_leaf:
            split = _gini_split(bm, idx, y_f[idx], min_leaf)
        if split is None:
            nodes.append((-1, 0.0, -1, -1, n1))
            classes[idx] = 2 * n1 > len(idx)
            continue
        feature, threshold, flat_bin = split
        mask = bm.flat_codes[idx, feature] <= flat_bin
        nodes.append((feature, threshold, len(rows), len(rows) + 1, n1))
        rows += [(idx[mask], depth + 1), (idx[~mask], depth + 1)]
    feature, threshold, left, right, n1 = (np.array(column) for column in zip(*nodes))
    n = np.array([len(idx) for idx, _ in rows])
    klass = 2 * n1 > n
    tree = Tree(feature, threshold, left, right, klass.astype(np.float64), n, n1, np.where(klass, n1, n - n1) / n)
    return tree, classes
