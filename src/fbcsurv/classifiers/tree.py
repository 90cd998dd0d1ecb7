"""The flat array tree every model family shares, its CART and Newton growers, and its prediction walk.

Ties during split search are broken deterministically: lowest feature index
first, then lowest threshold. Growth, prediction, serialisation and the dump
are iterative, so unbounded-depth trees cannot hit the interpreter recursion
limit. Newton regression trees grow level by level, for a group of boosted
models at once.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .splits import BinnedMatrix, argbest

# (tree, row) pairs a prediction walk holds at once, so its temporaries stay small
_WALK_PAIRS = 1 << 14
# per-node arrays and their dtypes; n1 and p are kept by CART trees only
_ARRAYS = {
    "feature": np.int64,
    "threshold": np.float64,
    "left": np.int64,
    "right": np.int64,
    "value": np.float64,
    "n": np.int64,
    "n1": np.int64,
    "p": np.float64,
}


@dataclass(eq=False, slots=True)
class Tree:
    """A binary tree as parallel per-node arrays; node 0 is the root.

    An inner node sends a row to `left` when X[row, feature] <= threshold and
    to `right` otherwise. A leaf has feature, left and right -1. `value` is
    the leaf payload: the class (0.0 or 1.0) of a CART tree or an AdaBoost
    stump, the weight of a Newton regression tree. `n` counts the training
    rows that reached each node. A CART tree also keeps `n1`, the class-1
    rows among them, and `p`, the share of the node's class.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    n1: np.ndarray | None = None
    p: np.ndarray | None = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf payload of every row of X."""
        return next(predict_trees([self], X))

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _ARRAYS if getattr(self, name) is not None}

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "Tree":
        """A tree from per-node lists, as `to_dict` writes them, over n_features columns.

        Raises ValueError unless the arrays have one length, every leaf has
        left = right = -1, and every inner node splits on a feature below
        n_features and has both children after it in the arrays, so every
        walk from the root ends in a leaf.
        """
        if not set(_ARRAYS) - {"n1", "p"} <= set(d) <= set(_ARRAYS):
            raise ValueError(f"a tree needs the arrays {list(_ARRAYS)[:6]}, optionally n1 and p; got {sorted(d)}")
        try:
            tree = cls(**{name: np.asarray(values, dtype=_ARRAYS[name]) for name, values in d.items()})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"a tree array holds a value of the wrong type: {exc}") from None
        size = len(tree.feature)
        if size == 0 or any(getattr(tree, name).shape != (size,) for name in d):
            raise ValueError("a tree's per-node arrays must be non-empty lists of one length")
        leaf = tree.feature == -1
        if (tree.left[leaf] != -1).any() or (tree.right[leaf] != -1).any():
            raise ValueError("a leaf (feature -1) must have left = right = -1")
        inner = np.flatnonzero(~leaf)
        if ((tree.feature[inner] < 0) | (tree.feature[inner] >= n_features)).any():
            raise ValueError(f"a split feature must lie in 0..{n_features - 1}")
        children = np.stack((tree.left[inner], tree.right[inner]))
        if ((children <= inner) | (children >= size)).any():
            raise ValueError("an inner node's children must lie after it and inside the tree's arrays")
        return tree

    def dump(self, feature_names: tuple[str, ...]) -> str:
        """Human-readable indented dump of a classification tree: one line per leaf, two per split."""
        lines: list[str] = []
        stack = [(0, "")]  # (node, indent); node None is the "else" line of a split
        while stack:
            node, pad = stack.pop()
            if node is None:
                lines.append(f"{pad}else")
            elif self.feature[node] < 0:
                lines.append(f"{pad}leaf class={self.value[node]:.0f} p={self.p[node]:.4f} n={self.n[node]}")
            else:
                lines.append(f"{pad}if {feature_names[self.feature[node]]} <= {self.threshold[node]:g}")
                stack += [(self.right[node], pad + "    "), (None, pad), (self.left[node], pad + "    ")]
        return "\n".join(lines)


def predict_trees(trees: list[Tree], X: np.ndarray) -> Iterator[np.ndarray]:
    """Leaf payload of every row of X, yielded tree by tree.

    Trees walk together, as one array tree with a root per tree, in chunks of
    at most _WALK_PAIRS (tree, row) pairs: one vectorised step per level of a
    chunk's deepest tree. A row at an inner node moves to the child that
    X[row, feature] <= threshold selects, and a row at a leaf stays there.
    """
    step = max(1, _WALK_PAIRS // max(len(X), 1))
    for chunk in (trees[i : i + step] for i in range(0, len(trees), step)):
        sizes = [len(tree.feature) for tree in chunk]
        roots = np.cumsum([0] + sizes[:-1])
        feature, threshold, left, right, value = (
            np.concatenate([getattr(tree, name) for tree in chunk])
            for name in ("feature", "threshold", "left", "right", "value")
        )
        inner = feature >= 0
        nodes = np.arange(len(feature))
        shift = np.repeat(roots, sizes)
        # a leaf's feature -1 reads the last column, and both of its branches lead back to it
        left = np.where(inner, left + shift, nodes)
        right = np.where(inner, right + shift, nodes)
        rows = np.arange(len(X))
        at = np.repeat(roots, len(X)).reshape(len(chunk), len(X))
        while inner[at].any():
            at = np.where(X[rows, feature[at]] <= threshold[at], left[at], right[at])
        yield from value[at]


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


class NewtonGrower:
    """Level-wise Newton regression trees for a group of models boosted in lockstep.

    Model m sees the first ks[m] columns of `bm`, so its flat bins are a
    prefix of bm's. At each tree level one bincount over a (model-node,
    flat-bin) code space scores every node of every model. The trees equal
    those of growing each model alone, node by node, bit for bit:

    - each (node, bin) sum adds the node's rows in ascending row order;
    - each node's cumulative sums start at 0 and run across all its columns;
    - node totals G and H are `ndarray.sum()` over the node's rows in
      ascending order (numpy's pairwise sum).

    A node shallower than max_depth splits on its best second-order gain when
    that gain is > 0; otherwise it is a leaf of weight -G / (H + l2).
    """

    def __init__(self, bm: BinnedMatrix, ks: tuple[int, ...], max_depth: int, l2: float):
        bm = bm.prefix(max(ks))
        n = bm.n
        self.bm = bm
        self.max_depth = max_depth
        self.l2 = l2
        self.n_models = len(ks)
        self.n_bins = bm.n_bins
        # One element per (model, column < k, row), in that order. A bin lies in
        # one column, so every (node, bin) sum adds rows in ascending order.
        # Model m's elements are a (k, n) block of each buffer; the buffers are
        # reused every level.
        size = n * sum(ks)
        self._codes = np.empty(size, dtype=np.int64)
        self._wg = np.empty(size, dtype=np.float64)
        self._wh = np.empty(size, dtype=np.float64)
        codes_by_column = np.ascontiguousarray(bm.flat_codes.T)
        self._blocks = []
        start = 0
        for k in ks:
            end = start + n * k
            views = (buf[start:end].reshape(k, n) for buf in (self._codes, self._wg, self._wh))
            self._blocks.append((codes_by_column[:k], *views))
            start = end
        # the root level's counts do not depend on the gradients
        self._fill_codes(np.arange(self.n_models * n), np.repeat(np.arange(self.n_models), n), self.n_models)
        self._root_counts = self._bin_sums(self.n_models)
        # per level of every round grown, for every open node: tree (round * n_models +
        # model), row count, feature and threshold (-1 and 0 at a leaf), leaf weight (0 at a split)
        self._levels = []
        self._rounds = 0

    def _fill_codes(self, order: np.ndarray, slot_of_pos: np.ndarray, n_slots: int) -> None:
        """Write each element's (slot, flat bin) code; rows already in leaves go to slot n_slots."""
        slot_base = np.full(self.n_models * self.bm.n, n_slots * self.n_bins, dtype=np.int64)
        slot_base[order] = slot_of_pos * self.n_bins
        slot_base = slot_base.reshape(self.n_models, -1)
        for m, (bins, codes, _, _) in enumerate(self._blocks):
            np.add(slot_base[m], bins, out=codes)

    def _bin_sums(self, n_slots: int, weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Per open slot and flat bin: element counts (or weight sums) and their left-cumulative sums."""
        size = n_slots * self.n_bins
        sums = np.bincount(self._codes, weights=weights, minlength=size + self.n_bins)[:size].reshape(n_slots, -1)
        cum = np.zeros((n_slots, self.n_bins + 1), dtype=sums.dtype)
        np.cumsum(sums, axis=1, out=cum[:, 1:])
        return sums, cum[:, 1:] - cum[:, self.bm.seg_start]

    def _histograms(self, depth: int, order: np.ndarray, slot_of_pos: np.ndarray, n_slots: int):
        """Counts, left counts, left gradient sums and left hessian sums per (open slot, flat bin)."""
        self._fill_codes(order, slot_of_pos, n_slots)
        counts, left_counts = self._root_counts if depth == 0 else self._bin_sums(n_slots)
        return counts, left_counts, self._bin_sums(n_slots, self._wg)[1], self._bin_sums(n_slots, self._wh)[1]

    def grow(self, g: np.ndarray, h: np.ndarray, row_values: np.ndarray) -> None:
        """Grow one round: a tree per model for (M, n) gradients and hessians.

        Each training row's leaf weight is written into row_values (M, n), so
        boosting can update scores without a separate prediction pass.
        `pop_trees` hands the trees over.
        """
        n_models, n = g.shape
        l2 = self.l2
        bm = self.bm
        for m, (_, _, wg, wh) in enumerate(self._blocks):
            wg[...] = g[m]
            wh[...] = h[m]
        g = g.ravel()
        h = h.ravel()
        values = row_values.reshape(-1)
        # (model, row) pairs of the open nodes, grouped by node and ascending within one
        order = np.arange(n_models * n)
        sizes = np.full(n_models, n, dtype=np.int64)
        # the tree of each open node; open nodes stay grouped by tree, in model order
        slot_tree = np.arange(n_models) + self._rounds * n_models
        self._rounds += 1
        for depth in range(self.max_depth + 1):
            n_slots = len(sizes)
            bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
            slot_of_pos = np.repeat(np.arange(n_slots), sizes)
            g_ord = g[order]
            h_ord = h[order]
            totals = np.array([(g_ord[a:b].sum(), h_ord[a:b].sum()) for a, b in zip(bounds, bounds[1:])])
            G = totals[:, :1]
            H = totals[:, 1:]
            split = np.zeros(n_slots, dtype=bool)
            if depth < self.max_depth:
                counts, left_counts, lg, lh = self._histograms(depth, order, slot_of_pos, n_slots)
                valid = (counts > 0) & (left_counts < sizes[:, np.newaxis])
                with np.errstate(divide="ignore", invalid="ignore"):
                    parent_score = G * G / (H + l2)
                    rg = G - lg
                    rh = H - lh
                    gain = 0.5 * (lg * lg / (lh + l2) + rg * rg / (rh + l2) - parent_score)
                # first maximum wins: lowest feature, then lowest threshold
                gain = np.where(valid, gain, -np.inf)
                best = gain.argmax(axis=1)
                slots = np.arange(n_slots)
                split = valid[slots, best] & ~(gain[slots, best] <= 0.0)
            is_leaf = ~split
            feature = np.full(n_slots, -1)
            threshold = np.zeros(n_slots)
            value = np.zeros(n_slots)
            self._levels.append((slot_tree, sizes, feature, threshold, value))
            if is_leaf.any():
                denominators = totals[:, 1] + l2
                if (denominators[is_leaf] == 0.0).any():
                    raise ValueError("a GBT leaf has a zero hessian sum; use gbt_l2 > 0")
                leaf_values = -totals[:, 0] / denominators
                in_leaf = is_leaf[slot_of_pos]
                values[order[in_leaf]] = leaf_values[slot_of_pos[in_leaf]]
                value[is_leaf] = leaf_values[is_leaf]
                if not split.any():
                    break
                order = order[~in_leaf]
            # split nodes: feature, midpoint threshold to the next occupied bin, child sizes
            flat_bin = best[split]
            n_split = len(flat_bin)
            occupied = counts[split] > 0
            after = np.arange(self.n_bins) > flat_bin[:, np.newaxis]
            nxt = (occupied & after).argmax(axis=1)
            features = bm.col_of_bin[flat_bin]
            feature[split] = features
            threshold[split] = (bm.bin_values[flat_bin] + bm.bin_values[nxt]) / 2.0
            n_left = left_counts[split][np.arange(n_split), flat_bin]
            parent_sizes = sizes[split]
            # stable partition of each node's pairs: left child first, then right
            parent = np.repeat(np.arange(n_split), parent_sizes)
            goes_left = bm.flat_codes[order % n, features[parent]] <= flat_bin[parent]
            child = 2 * parent + ~goes_left
            order = order[np.argsort(child.astype(np.min_scalar_type(2 * n_split)), kind="stable")]
            sizes = np.column_stack((n_left, parent_sizes - n_left)).ravel()
            slot_tree = np.repeat(slot_tree[split], 2)

    def pop_trees(self) -> list[list[Tree]]:
        """The trees grown since the last call, per model one tree per round; the grower forgets them.

        A tree's nodes are numbered breadth first, so its k-th split node
        (from 0) has children 2k + 1 and 2k + 2.
        """
        if not self._rounds:
            return [[] for _ in range(self.n_models)]
        tree_of, n_rows, feature, threshold, value = (np.concatenate(column) for column in zip(*self._levels))
        self._levels, self._rounds = [], 0
        # each tree's nodes, level after level
        by_tree = np.argsort(tree_of, kind="stable")
        n_rows, feature, threshold, value = (a[by_tree] for a in (n_rows, feature, threshold, value))
        split = feature >= 0
        per_tree = np.bincount(tree_of)
        starts = np.concatenate(([0], np.cumsum(per_tree)))
        splits_before = np.concatenate(([0], np.cumsum(split)))
        k = splits_before[:-1] - np.repeat(splits_before[starts[:-1]], per_tree)
        left = np.where(split, 2 * k + 1, -1)
        right = np.where(split, 2 * k + 2, -1)
        starts = starts.tolist()
        trees = [
            Tree(feature[a:b], threshold[a:b], left[a:b], right[a:b], value[a:b], n_rows[a:b])
            for a, b in zip(starts, starts[1:])
        ]
        return [trees[m :: self.n_models] for m in range(self.n_models)]
