"""The flat array tree every model family shares, the one level-wise grower, and the prediction walk.

`LevelGrower` grows the trees of all three families, for a group of models
at once, one histogram pass per tree level; `GiniGrower` (CART),
`StumpGrower` (AdaBoost) and `NewtonGrower` (GBT) supply each family's
totals, gain, acceptance rule and node values. Ties during split search are
broken deterministically: lowest feature index first, then lowest threshold.
Growth, prediction, serialisation and the dump are iterative, so
unbounded-depth trees cannot hit the interpreter recursion limit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .splits import BinnedMatrix

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


def check_saved_keys(d: dict, keys: tuple[str, ...], what: str) -> None:
    """Raise ValueError unless the saved model d has every key."""
    missing = [key for key in keys if key not in d]
    if missing:
        raise ValueError(f"{what} needs the keys {list(keys)}; {missing} missing")


def is_finite_number(value) -> bool:
    """True for a finite int or float; False for a bool, a string, None, NaN or an infinity."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


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


class LevelGrower:
    """Level-wise trees for a group of models grown in lockstep: the one tree grower of every family.

    Model m sees the first ks[m] columns of `bm`, so its flat bins are a
    prefix of bm's. At each tree level one bincount per weight channel over a
    (node, flat-bin) code space scores every open node of every model; each
    (node, bin) sum adds the node's rows in ascending order and each node's
    cumulative sums run from 0 across all its columns, as scanning the node
    alone does. A node takes its first best bin: lowest feature, then lowest
    threshold. A family subclass supplies its weight channels and three
    methods: `_nodes` (each open node's totals, and whether it may split),
    `_gain` (every split's gain and validity, and the floor the best gain
    must beat) and `_payload` (node values, then any extra `Tree` columns).
    """

    def __init__(self, bm: BinnedMatrix, ks: tuple[int, ...], n_channels: int):
        bm = bm.prefix(max(ks))
        n = bm.n
        self.bm = bm
        self.n_models = len(ks)
        self.n_bins = bm.n_bins
        # One element per (model, column < k, row), in that order, so a (node, bin) sum adds rows in
        # ascending order. Model m's elements are a (k, n) block of each buffer, reused every level.
        size = n * sum(ks)
        self._codes = np.empty(size, dtype=np.int64)
        self._channels = [np.empty(size, dtype=np.float64) for _ in range(n_channels)]
        # flat bin of (column, row) at column * n + row
        self._column_codes = np.ascontiguousarray(bm.flat_codes.T).ravel()
        self._blocks = []
        start = 0
        for k in ks:
            end = start + n * k
            views = (buf[start:end].reshape(k, n) for buf in (self._codes, *self._channels))
            self._blocks.append((self._column_codes[: n * k].reshape(k, n), *views))
            start = end
        # the root level's codes and counts do not depend on the weights
        self._fill_codes(np.arange(self.n_models * n), np.repeat(np.arange(self.n_models), n), self.n_models)
        self._root_codes = self._codes.copy()
        self._root_counts = self._bin_sums(self._root_codes, self.n_models)
        # per level of every round grown, for every open node: tree (round * n_models + model),
        # row count, feature and threshold (-1 and 0 at a leaf), then the family's payload columns
        self._levels = []
        self._rounds = 0

    def _fill_codes(self, order: np.ndarray, slot_of_pos: np.ndarray, n_slots: int) -> None:
        """Write each element's (slot, flat bin) code; rows outside the slots go to slot n_slots."""
        slot_base = np.full(self.n_models * self.bm.n, n_slots * self.n_bins, dtype=np.int64)
        slot_base[order] = slot_of_pos * self.n_bins
        slot_base = slot_base.reshape(self.n_models, -1)
        for m, (bins, codes, *_) in enumerate(self._blocks):
            np.add(slot_base[m], bins, out=codes)

    def _bin_sums(self, codes: np.ndarray, n_slots: int, weights: np.ndarray | None = None):
        """Per slot and flat bin of codes: element counts (or weight sums) and their left-cumulative sums."""
        size = n_slots * self.n_bins
        sums = np.bincount(codes, weights=weights, minlength=size + self.n_bins)[:size].reshape(n_slots, -1)
        cum = np.zeros((n_slots, self.n_bins + 1), dtype=sums.dtype)
        np.cumsum(sums, axis=1, out=cum[:, 1:])
        return sums, cum[:, 1:] - cum[:, self.bm.seg_start]

    def _grow(self, channels, row_values: np.ndarray) -> None:
        """Grow a tree per model on its row weights channels[c][m]; row_values (M, n) gets each row's leaf value."""
        n_models, n = row_values.shape
        bm = self.bm
        for m, (_, _, *buffers) in enumerate(self._blocks):
            for buffer, weights in zip(buffers, channels):
                buffer[...] = weights[m]
        values = row_values.reshape(-1)
        # (model, row) pairs of the open nodes, grouped by node and ascending within one
        order = np.arange(n_models * n)
        sizes = np.full(n_models, n, dtype=np.int64)
        # the tree of each open node; open nodes stay grouped by tree, in model order
        slot_tree = np.arange(n_models) + self._rounds * n_models
        self._rounds += 1
        split_level = None
        for depth in itertools.count():
            n_slots = len(sizes)
            slot_of_pos = np.repeat(np.arange(n_slots), sizes)
            bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
            totals, split = self._nodes(depth, order, bounds, sizes, split_level)
            if split.any():
                # every open node gets a histogram row, as its rows are binned anyway; one that may not split
                # has no valid bin
                if depth == 0:
                    codes, (counts, left_counts) = self._root_codes, self._root_counts
                else:
                    self._fill_codes(order, slot_of_pos, n_slots)
                    codes = self._codes
                    counts, left_counts = self._bin_sums(codes, n_slots)
                left_sums = [self._bin_sums(codes, n_slots, weights)[1] for weights in self._channels]
                valid = split[:, np.newaxis] & (counts > 0) & (left_counts < sizes[:, np.newaxis])
                gain, valid, floor = self._gain(sizes, totals, left_counts, left_sums, valid)
                # first maximum wins: lowest feature, then lowest threshold
                gain = np.where(valid, gain, -np.inf)
                best = gain.argmax(axis=1)
                at = (np.arange(n_slots), best)
                split = valid[at] & ~(gain[at] <= floor)
            is_leaf = ~split
            feature = np.full(n_slots, -1)
            threshold = np.zeros(n_slots)
            payload = self._payload(totals, sizes, is_leaf)
            self._levels.append((slot_tree, sizes, feature, threshold, *payload))
            if is_leaf.any():
                in_leaf = is_leaf[slot_of_pos]
                values[order[in_leaf]] = payload[0][slot_of_pos[in_leaf]]
                if not split.any():
                    break
                order = order[~in_leaf]
            # split nodes: feature, midpoint threshold to the next occupied bin, child sizes
            at = (split.nonzero()[0], best[split])
            flat_bin = at[1]
            n_split = len(flat_bin)
            occupied = counts[at[0]] > 0
            after = np.arange(self.n_bins) > flat_bin[:, np.newaxis]
            nxt = (occupied & after).argmax(axis=1)
            features = bm.col_of_bin[flat_bin]
            feature[split] = features
            threshold[split] = (bm.bin_values[flat_bin] + bm.bin_values[nxt]) / 2.0
            n_left = left_counts[at]
            split_level = (totals, at, left_sums)
            parent_sizes = sizes[split]
            # stable partition of each node's pairs: left child first, then right
            parent = np.repeat(np.arange(n_split), parent_sizes)
            goes_left = self._column_codes[features[parent] * n + order % n] <= flat_bin[parent]
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
        tree_of, *columns = (np.concatenate(column) for column in zip(*self._levels))
        self._levels, self._rounds = [], 0
        # each tree's nodes, level after level
        by_tree = np.argsort(tree_of, kind="stable")
        n_rows, feature, threshold, value, *kept = (a[by_tree] for a in columns)
        split = feature >= 0
        per_tree = np.bincount(tree_of)
        starts = np.concatenate(([0], np.cumsum(per_tree)))
        splits_before = np.concatenate(([0], np.cumsum(split)))
        k = splits_before[:-1] - np.repeat(splits_before[starts[:-1]], per_tree)
        left = np.where(split, 2 * k + 1, -1)
        right = np.where(split, 2 * k + 2, -1)
        starts = starts.tolist()
        trees = [
            Tree(*(a[start:end] for a in (feature, threshold, left, right, value, n_rows, *kept)))
            for start, end in zip(starts, starts[1:])
        ]
        return [trees[m :: self.n_models] for m in range(self.n_models)]


class NewtonGrower(LevelGrower):
    """Newton regression trees on channels g and h, for a group of models boosted in lockstep.

    Node totals G and H are `ndarray.sum()` over the node's rows in ascending
    order (numpy's pairwise sum), as growing each model alone computes them.
    A node shallower than max_depth splits on its best second-order gain when
    that gain is > 0; otherwise it is a leaf of weight -G / (H + l2).
    """

    def __init__(self, bm: BinnedMatrix, ks: tuple[int, ...], max_depth: int, l2: float):
        super().__init__(bm, ks, n_channels=2)
        self.max_depth = max_depth
        self.l2 = l2

    def grow(self, g: np.ndarray, h: np.ndarray, row_values: np.ndarray) -> None:
        """Grow one round: a tree per model for (M, n) gradients and hessians; leaf weights go to row_values."""
        self._g, self._h = g.ravel(), h.ravel()
        self._grow((g, h), row_values)

    def _nodes(self, depth, order, bounds, sizes, split_level):
        g_ord = self._g[order]
        h_ord = self._h[order]
        totals = np.array([(g_ord[a:b].sum(), h_ord[a:b].sum()) for a, b in zip(bounds, bounds[1:])])
        return totals, np.full(len(sizes), depth < self.max_depth)

    def _gain(self, sizes, totals, left_counts, left_sums, valid):
        G = totals[:, :1]
        H = totals[:, 1:]
        lg, lh = left_sums
        l2 = self.l2
        with np.errstate(divide="ignore", invalid="ignore"):
            parent_score = G * G / (H + l2)
            rg = G - lg
            rh = H - lh
            gain = 0.5 * (lg * lg / (lh + l2) + rg * rg / (rh + l2) - parent_score)
        return gain, valid, 0.0

    def _payload(self, totals, sizes, is_leaf):
        value = np.zeros(len(sizes))  # 0 at a split
        if is_leaf.any():
            denominators = totals[is_leaf, 1] + self.l2
            if (denominators == 0.0).any():
                raise ValueError("a GBT leaf has a zero hessian sum; use gbt_l2 > 0")
            value[is_leaf] = -totals[is_leaf, 0] / denominators
        return (value,)


class GiniGrower(LevelGrower):
    """CART trees on Gini impurity over channel y, for a group of models; one round grows them all.

    Class counts are exact integers, so their summation order does not
    matter. A node that is pure, at max_depth (None is unbounded) or smaller
    than 2 * min_leaf is a leaf. Any other node splits on its best Gini gain,
    zero included, among the splits that leave min_leaf rows on each side.
    Every node's value is its majority class, ties predicting class 0, and
    the tree keeps `n1` and `p`.
    """

    def __init__(self, bm: BinnedMatrix, ks: tuple[int, ...], y: np.ndarray, max_depth: int | None, min_leaf: int):
        super().__init__(bm, ks, n_channels=1)
        self.y = y
        self.max_depth = max_depth
        self.min_leaf = min_leaf

    def grow(self) -> list[tuple[Tree, np.ndarray]]:
        """Each model's tree and its class for every training row."""
        classes = np.empty((self.n_models, self.bm.n))
        self._grow(([self.y.astype(np.float64)] * self.n_models,), classes)
        return [(trees[0], model_classes) for trees, model_classes in zip(self.pop_trees(), classes.astype(np.int64))]

    def _nodes(self, depth, order, bounds, sizes, split_level):
        n1 = np.add.reduceat(self.y[order % self.bm.n], bounds[:-1])
        depth_capped = self.max_depth is not None and depth >= self.max_depth
        return n1, (n1 > 0) & (n1 < sizes) & (sizes >= 2 * self.min_leaf) & (not depth_capped)

    def _gain(self, sizes, n1, left_n, left_sums, valid):
        (l1,) = left_sums
        n = sizes[:, np.newaxis]
        valid = valid & (left_n >= self.min_leaf) & ((n - left_n) >= self.min_leaf)
        n1 = n1[:, np.newaxis].astype(np.float64)
        n0 = n - n1
        parent = 1.0 - (n0 * n0 + n1 * n1) / (n * n)
        lnf = left_n.astype(np.float64)
        rnf = n - lnf
        l0 = lnf - l1
        r1 = n1 - l1
        r0 = n0 - l0
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_left = 1.0 - (l0 * l0 + l1 * l1) / (lnf * lnf)
            gini_right = 1.0 - (r0 * r0 + r1 * r1) / (rnf * rnf)
            gain = parent - (lnf / n) * gini_left - (rnf / n) * gini_right
        return gain, valid, -np.inf

    def _payload(self, n1, sizes, is_leaf):
        klass = 2 * n1 > sizes
        return klass.astype(np.float64), n1, np.where(klass, n1, sizes - n1) / sizes


class StumpGrower(LevelGrower):
    """AdaBoost decision stumps over channels w1 (w on class-1 rows, else 0) and w, for models boosted in lockstep.

    The root splits on its minimum weighted error when that error is below
    the constant stump's; otherwise the stump is a single leaf. Every node's
    value is its weighted majority class: the root's from each model's 1-D
    weight sums, as boosting it alone takes them, the leaves' from the root's
    histogram at the chosen bin.
    """

    def __init__(self, bm: BinnedMatrix, ks: tuple[int, ...], y: np.ndarray):
        super().__init__(bm, ks, n_channels=2)
        self.class_1 = y == 1

    def grow(self, w: list[np.ndarray], row_classes: np.ndarray) -> None:
        """Grow one round: a stump per model for its row weights w[m]; each row's class goes to row_classes."""
        w1_totals = [float(wm[self.class_1].sum()) for wm in w]
        # per model: class-1 and class-0 weight
        self._root = np.array([(w1_total, float(wm.sum()) - w1_total) for w1_total, wm in zip(w1_totals, w)])
        self._grow(([np.where(self.class_1, wm, 0.0) for wm in w], w), row_classes)

    def _nodes(self, depth, order, bounds, sizes, split_level):
        if split_level is None:
            return self._root, np.full(len(sizes), True)
        totals, at, (lw1, lw) = split_level
        parents = totals[at[0]]
        lw1 = lw1[at]
        lw0 = lw[at] - lw1
        children = np.column_stack((lw1, lw0, parents[:, 0] - lw1, parents[:, 1] - lw0)).reshape(-1, 2)
        return children, np.full(len(sizes), False)

    def _gain(self, sizes, totals, left_counts, left_sums, valid):
        lw1, lw = left_sums
        w1_total = totals[:, :1]
        w0_total = totals[:, 1:]
        err = np.minimum(lw - lw1, lw1) + np.minimum(w0_total - (lw - lw1), w1_total - lw1)
        # the first maximum of -err is the first minimum error; it must beat the constant stump's
        return -err, valid, -np.minimum(totals[:, 1], totals[:, 0])

    def _payload(self, totals, sizes, is_leaf):
        return ((totals[:, 0] > totals[:, 1]).astype(np.float64),)
