"""The flat node columns every model family shares, the one model built from them, the one
level-wise grower, each family's grower and fit, and the prediction walk.

Every family's model is a `TreeEnsemble`: a start score plus weighted tree
leaf values, with class = score > 0, its trees kept as the grower records
them, in one `Tree` of node columns. `LevelGrower` grows the trees of all
three families, for a group of models at once, one histogram pass per tree
level. Each family is one subclass holding its rules and its fit:
`GiniGrower` (CART), `StumpGrower` (AdaBoost) and `NewtonGrower` (GBT) supply
the family's totals, gain, acceptance rule and node values, and their `fit`
runs the family's rounds. Ties during split search are broken
deterministically: lowest feature index first, then lowest threshold.
Growth, prediction, serialisation and the dump are iterative, so
unbounded-depth trees cannot hit the interpreter recursion limit.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .splits import BinnedMatrix

if TYPE_CHECKING:
    from .model import Hyperparameters

# (tree, row) pairs a prediction walk holds at once, so its temporaries stay small
_WALK_PAIRS = 1 << 14
# per-node arrays and their dtypes; n1 is kept by CART trees only
_ARRAYS = {
    "feature": np.int64,
    "threshold": np.float64,
    "left": np.int64,
    "right": np.int64,
    "value": np.float64,
    "n": np.int64,
    "n1": np.int64,
}
_ENSEMBLE_KEYS = ("init_score", "weights", "trees")
# AdaBoost's error floor for a perfect stump's alpha; the clamp on GBT's class-1 share for its log-odds prior
_EPS = 1e-10
_PRIOR_EPS = 1e-12


def _is_finite_number(value) -> bool:
    """True for a finite int or float; False for a bool, a string, None, NaN, an infinity or an int beyond float."""
    # int and float compare exactly, so a huge int is compared, not converted
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _is_int64(value) -> bool:
    """True for an int in int64's range; False for a bool, a float, a string or None."""
    return isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63


@dataclass(eq=False, slots=True)
class Tree:
    """A binary tree as parallel per-node arrays; node 0 is the root. A `TreeEnsemble`'s `nodes` hold many trees.

    An inner node sends a row to `left` when X[row, feature] <= threshold and
    to `right` otherwise. A leaf has feature, left and right -1. `value` is
    the leaf payload: the class (0.0 or 1.0) of a CART tree, the vote (-1.0
    or +1.0) of an AdaBoost stump, the weight of a Newton regression tree.
    `n` counts the training rows that reached each node. A CART tree also
    keeps `n1`, the class-1 rows among them.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    n1: np.ndarray | None = None

    def __getitem__(self, nodes: slice) -> "Tree":
        """The nodes in a slice, as views of these columns."""
        return Tree(*(None if column is None else column[nodes] for column in map(self.__getattribute__, _ARRAYS)))

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _ARRAYS if getattr(self, name) is not None}

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "Tree":
        """A tree from per-node lists, as `to_dict` writes them, over n_features columns.

        Raises ValueError unless every array is a list, of finite numbers
        (threshold, value) or of int64 integers (the rest), the arrays have
        one length, every leaf has left = right = -1, every inner node splits
        on a feature below n_features and has both children after it in the
        arrays, so every walk from the root ends in a leaf, and every node
        counts n >= 1 rows, n1 of them of class 1, with 0 <= n1 <= n.
        """
        if not isinstance(d, dict):
            raise ValueError("a tree must be a JSON object of per-node arrays")
        if not set(_ARRAYS) - {"n1"} <= set(d) <= set(_ARRAYS):
            raise ValueError(f"a tree needs the arrays {list(_ARRAYS)[:6]}, optionally n1; got {sorted(d)}")
        for name, values in d.items():
            integers = _ARRAYS[name] is np.int64
            if not (isinstance(values, list) and all(map(_is_int64 if integers else _is_finite_number, values))):
                raise ValueError(f"a tree's {name} must list {'int64 integers' if integers else 'finite numbers'}")
        tree = cls(**{name: np.asarray(values, dtype=_ARRAYS[name]) for name, values in d.items()})
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
        if (tree.n < 1).any() or (tree.n1 is not None and ((tree.n1 < 0) | (tree.n1 > tree.n)).any()):
            raise ValueError("a node's row count n must be >= 1, and its class-1 count n1 must lie in 0..n")
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
                value, n, n1 = self.value[node], self.n[node], self.n1[node]
                # the share of the leaf's class among its training rows
                p = (n1 if value > 0 else n - n1) / n
                lines.append(f"{pad}leaf class={value:.0f} p={p:.4f} n={n}")
            else:
                lines.append(f"{pad}if {feature_names[self.feature[node]]} <= {self.threshold[node]:g}")
                stack += [(self.right[node], pad + "    "), (None, pad), (self.left[node], pad + "    ")]
        return "\n".join(lines)


@dataclass(eq=False)
class TreeEnsemble:
    """The one model of every family: a start score plus weighted tree leaf values.

    Tree t is nodes[starts[t]:starts[t + 1]], its children numbered within
    it, as it is saved. A row's score is init_score plus weights[t] times its
    leaf value in tree t, added tree by tree in fit order; its class is score
    > 0. A CART model is one tree of class leaves with weight 1.0; an
    AdaBoost model weighs its stumps' votes by their alphas; a GBT model
    starts at the log-odds prior and weighs every tree by the learning rate.
    """

    init_score: float
    weights: list[float]
    nodes: Tree
    starts: np.ndarray
    # training diagnostics, recorded during fit and never saved; empty where a family has none:
    # GBT's mean loss after 0, 1, ..., n rounds, AdaBoost's weighted error and weight sum per round
    train_losses: list[float] = field(default_factory=list)
    weighted_errors: list[float] = field(default_factory=list)
    weight_sums: list[float] = field(default_factory=list)

    @property
    def trees(self) -> list[Tree]:
        """Each tree, as views of `nodes`."""
        return [self.nodes[start:end] for start, end in itertools.pairwise(self.starts.tolist())]

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        """Every row's score. The trees walk their node columns together, a root per tree, in chunks of at most
        _WALK_PAIRS (tree, row) pairs: one vectorised step per level of a chunk's deepest tree. A row at an inner
        node moves to the child that X[row, feature] <= threshold selects, and a row at a leaf stays there.
        """
        nodes, roots = self.nodes, self.starts[:-1]
        inner = nodes.feature >= 0
        shift = np.repeat(roots, np.diff(self.starts))
        # a leaf's feature -1 reads the last column, and both of its branches lead back to it
        left, right = (np.where(inner, child + shift, np.arange(len(inner))) for child in (nodes.left, nodes.right))
        scores = np.full(len(X), self.init_score, dtype=np.float64)
        rows = np.arange(len(X))
        step = max(1, _WALK_PAIRS // max(len(X), 1))
        for first in range(0, len(roots), step):
            at = np.repeat(roots[first : first + step, np.newaxis], len(X), axis=1)
            while inner[at].any():
                at = np.where(X[rows, nodes.feature[at]] <= nodes.threshold[at], left[at], right[at])
            for weight, values in zip(self.weights[first : first + step], nodes.value[at]):
                scores += weight * values
        return scores

    def to_dict(self) -> dict:
        return {"init_score": self.init_score, "weights": self.weights, "trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "TreeEnsemble":
        """A model as `to_dict` writes it, over n_features columns; each tree is checked by `Tree.from_dict`.

        Raises ValueError unless d has exactly the keys init_score, weights
        and trees, init_score is a finite number, weights holds one finite
        number per tree, and either every tree keeps n1 or none does.
        """
        if not isinstance(d, dict) or sorted(d) != sorted(_ENSEMBLE_KEYS):
            raise ValueError(f"a model's params need exactly the keys {list(_ENSEMBLE_KEYS)}")
        weights, trees = d["weights"], d["trees"]
        if not _is_finite_number(d["init_score"]):
            raise ValueError("a model's init_score must be a finite number")
        if not (isinstance(weights, list) and isinstance(trees, list) and len(weights) == len(trees)):
            raise ValueError("a model needs a list of trees and one weight per tree")
        if not all(map(_is_finite_number, weights)):
            raise ValueError("a model's weights must be finite numbers")
        trees = [Tree.from_dict(tree, n_features) for tree in trees]
        if len({tree.n1 is None for tree in trees}) > 1:
            raise ValueError("either every tree of a model keeps n1 or none does")
        names = [name for name in _ARRAYS if name != "n1" or (trees and trees[0].n1 is not None)]
        nodes = Tree(*(np.concatenate([np.empty(0, _ARRAYS[c])] + [getattr(t, c) for t in trees]) for c in names))
        starts = np.cumsum([0] + [len(tree.feature) for tree in trees])
        return cls(float(d["init_score"]), [float(weight) for weight in weights], nodes, starts)


# a grower's `fit`: one model per k, and each model's class for every training row, one row per model
_GroupFit = tuple[list[TreeEnsemble], np.ndarray]


def segment_sums(values: np.ndarray, bounds: list[int]) -> np.ndarray:
    """Per segment [bounds[i], bounds[i + 1]) of a C-contiguous (c, N) array: the sum of each row's slice.

    One reduce per segment; each sum is numpy's pairwise sum of contiguous
    values, so it equals `ndarray.sum()` of that row slice bit for bit. (The
    rows of an F-ordered array would be summed in another order.)
    """
    return np.array([np.add.reduce(values[:, a:b], axis=1) for a, b in zip(bounds, bounds[1:])])


class LevelGrower:
    """Level-wise trees for a group of models grown in lockstep: the one tree grower of every family.

    Model m sees the first ks[m] columns of `bm`, so its flat bins are a
    prefix of bm's. At each tree level one bincount per weight channel scores
    every open node of every model. It bins each model's distinct columns
    only (`BinnedMatrix.source`), in a compact (node, bin) space with one
    empty bin per node; one index per level expands each histogram to the
    full (node, flat-bin) layout, where a repeat copies its source's sums and
    a column beyond the model's k reads the empty bin. No bit changes: each
    (node, bin) sum adds the node's rows in ascending order, a repeat's the
    same rows with the same weights as its source's, and each node's
    cumulative sums run from 0 across all its columns of the full layout, as
    scanning the node alone does, so a repeat that wins by rounding still
    wins, with its own threshold. A node takes its first best bin: lowest
    feature, then lowest threshold. A family subclass supplies its weight
    channels and three methods: `_nodes` (each open node's totals, and
    whether it may split), `_gain` (every split's gain and validity, and the
    floor the best gain must beat) and `_payload` (node values, then the
    `_extras` columns), plus the classmethod `fit`, which runs the family's
    rounds. A grower is sized for `rounds` trees per model of at most
    max_depth levels below the root (None is unbounded); `trees` ends the fit.
    """

    # the family's `Tree` columns after value, as `_payload` returns them
    _extras: tuple[str, ...] = ()
    # the children of a split one level above max_depth are leaves that `_nodes` totals from the split's
    # histogram, so their rows need no partition
    _leaves_from_split = False

    def __init__(self, bm: BinnedMatrix, ks: tuple[int, ...], n_channels: int, max_depth: int | None, rounds: int):
        bm = bm.prefix(max(ks))
        n = bm.n
        self.bm = bm
        self.n_models = len(ks)
        self.n_bins = bm.n_bins
        self.max_depth = max_depth
        # Only the distinct columns are binned, each into its segment of a compact per-slot bin space whose
        # last bin no element reaches. Per column: the position of its source among the distinct columns.
        distinct = np.flatnonzero(bm.source == np.arange(bm.d))
        compact_start = np.concatenate(([0], np.cumsum(np.diff(bm.offsets)[distinct])))
        self._width = int(compact_start[-1]) + 1
        self._position = np.searchsorted(distinct, bm.source)
        # per flat bin: its compact bin, in its column's source; per model, the one its histogram copies,
        # which for a column beyond the model's k is the empty bin
        self._compact_bin = compact_start[self._position][bm.col_of_bin] + np.arange(self.n_bins) - bm.seg_start
        self._expand = np.where(bm.col_of_bin < np.array(ks)[:, np.newaxis], self._compact_bin, self._width - 1)
        # compact bin of (distinct column, row) at position * n + row, straight from the flat codes
        column_codes = bm.flat_codes.T[distinct]
        column_codes += (compact_start[:-1] - bm.offsets[distinct])[:, np.newaxis]
        self._column_codes = column_codes.ravel()
        # One element per (model, distinct column < k, row), in that order, so a (node, bin) sum adds rows in
        # ascending order. Model m's elements are a (distinct columns, n) block of each buffer, reused every level.
        n_distinct = np.searchsorted(distinct, ks).tolist()
        size = n * sum(n_distinct)
        self._codes = np.empty(size, dtype=np.int64)
        self._channels = [np.empty(size, dtype=np.float64) for _ in range(n_channels)]
        self._blocks = []
        start = 0
        for columns in n_distinct:
            end = start + n * columns
            views = (buf[start:end].reshape(columns, n) for buf in (self._codes, *self._channels))
            self._blocks.append((column_codes[:columns], *views))
            start = end
        # the root level's codes and counts do not depend on the weights
        self._fill_codes(np.arange(self.n_models * n), np.repeat(np.arange(self.n_models), n), self.n_models)
        self._root_codes = self._codes.copy()
        self._root_counts = self._bin_sums(self._root_codes, self._expansion(np.arange(self.n_models)))
        # One record per grown node, level after level of every round, in columns allocated once: its tree
        # (round * n_models + model), row count, feature and threshold (-1 and 0 at a leaf), value and extras.
        # A tree has at most 2n - 1 nodes, and at most 2 ** (max_depth + 1) - 1; its depth is below n.
        depth = n if max_depth is None else min(max_depth, n)
        per_tree = min((1 << (depth + 1)) - 1, 2 * n - 1)
        capacity = rounds * self.n_models * per_tree
        names = ("tree", "n", "feature", "threshold", "value", *self._extras)
        self._records = {name: np.empty(capacity, dtype=_ARRAYS.get(name, np.int64)) for name in names}
        self._n_records = 0
        self._rounds = 0
        self._max_rounds = rounds

    def _fill_codes(self, order: np.ndarray, slot_of_pos: np.ndarray, n_slots: int) -> None:
        """Write each element's (slot, compact bin) code; rows outside the slots go to slot n_slots."""
        slot_base = np.full(self.n_models * self.bm.n, n_slots * self._width, dtype=np.int64)
        slot_base[order] = slot_of_pos * self._width
        slot_base = slot_base.reshape(self.n_models, -1)
        for m, (bins, codes, *_) in enumerate(self._blocks):
            np.add(slot_base[m], bins, out=codes)

    def _expansion(self, slot_model: np.ndarray) -> np.ndarray:
        """Per slot (of model slot_model[slot]) and flat bin: the compact histogram element it copies."""
        return self._expand[slot_model] + (np.arange(len(slot_model)) * self._width)[:, np.newaxis]

    def _bin_sums(self, codes: np.ndarray, index: np.ndarray, weights: np.ndarray | None = None):
        """Per slot and flat bin of index: element counts (or weight sums) and their left-cumulative sums.

        The compact histogram is expanded first, so the cumulative sums run across every column.
        """
        n_slots = len(index)
        compact = np.bincount(codes, weights=weights, minlength=(n_slots + 1) * self._width)
        sums = np.take(compact, index)
        cum = np.zeros((n_slots, self.n_bins + 1), dtype=sums.dtype)
        np.cumsum(sums, axis=1, out=cum[:, 1:])
        left = cum[:, 1:]
        left -= cum[:, self.bm.seg_start]
        return sums, left

    def _record(self, slot_tree: np.ndarray, sizes: np.ndarray, payload) -> tuple[np.ndarray, np.ndarray]:
        """Append one level's nodes as leaves; returns their feature and threshold columns, for the splits to set."""
        start = self._n_records
        self._n_records = end = start + len(sizes)
        records = self._records
        records["tree"][start:end] = slot_tree
        records["n"][start:end] = sizes
        records["feature"][start:end] = -1
        records["threshold"][start:end] = 0.0
        for name, column in zip(("value", *self._extras), payload):
            records[name][start:end] = column
        return records["feature"][start:end], records["threshold"][start:end]

    def _grow(self, channels, row_values: np.ndarray) -> None:
        """Grow a tree per model on its row weights channels[c][m]; row_values (M, n) gets each row's leaf value."""
        if self._rounds == self._max_rounds:
            raise ValueError(f"this grower is sized for {self._max_rounds} rounds")
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
                # has no valid bin. One index expands the count and weight histograms alike.
                index = self._expansion(slot_tree % n_models)
                if depth == 0:
                    codes, (counts, left_counts) = self._root_codes, self._root_counts
                else:
                    self._fill_codes(order, slot_of_pos, n_slots)
                    codes = self._codes
                    counts, left_counts = self._bin_sums(codes, index)
                left_sums = [self._bin_sums(codes, index, weights)[1] for weights in self._channels]
                valid = split[:, np.newaxis] & (counts > 0) & (left_counts < sizes[:, np.newaxis])
                gain, valid, floor = self._gain(sizes, totals, left_counts, left_sums, valid)
                # first maximum wins: lowest feature, then lowest threshold
                np.copyto(gain, -np.inf, where=~valid)
                best = gain.argmax(axis=1)
                at = (np.arange(n_slots), best)
                split = valid[at] & ~(gain[at] <= floor)
            is_leaf = ~split
            payload = self._payload(totals, sizes, is_leaf)
            feature, threshold = self._record(slot_tree, sizes, payload)
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
            parent = np.repeat(np.arange(n_split), parent_sizes)
            # a row's compact code in the split column's source against the split bin's compact bin
            column_start = self._position[features] * n
            goes_left = self._column_codes[column_start[parent] + order % n] <= self._compact_bin[flat_bin][parent]
            child = 2 * parent + ~goes_left
            sizes = np.column_stack((n_left, parent_sizes - n_left)).ravel()
            slot_tree = np.repeat(slot_tree[split], 2)
            if self._leaves_from_split and depth + 1 == self.max_depth:
                # every child is a leaf, so each row takes its side's value without a partition
                totals, _ = self._nodes(depth + 1, None, None, sizes, split_level)
                payload = self._payload(totals, sizes, np.ones(len(sizes), dtype=bool))
                self._record(slot_tree, sizes, payload)
                values[order] = payload[0][child]
                break
            # stable partition of each node's pairs: left child first, then right
            order = order[np.argsort(child.astype(np.min_scalar_type(2 * n_split)), kind="stable")]

    def trees(self) -> list[tuple[Tree, np.ndarray]]:
        """Per model, its trees' nodes in fit order, as views, and each tree's start among them, then their end.

        This ends the fit: the grower frees its buffers first. A tree's nodes are numbered breadth first, so its
        k-th split node (from 0) has children 2k + 1 and 2k + 2.
        """
        records, count = self._records, self._n_records
        self._codes = self._channels = self._root_codes = self._blocks = self._records = None
        tree_of, *columns = (column[:count] for column in records.values())
        # model-major: each model's trees in fit order, each tree's nodes level after level, gathered in place
        tree_of = tree_of % self.n_models * self._rounds + tree_of // self.n_models
        by_tree = np.argsort(tree_of, kind="stable")
        for column in columns:
            column[...] = column[by_tree]
        n_rows, feature, threshold, value, *kept = columns
        per_tree = np.bincount(tree_of)
        del records, tree_of, by_tree
        starts = np.concatenate(([0], np.cumsum(per_tree)))
        split = feature >= 0
        # each split's k: the splits before it in its tree
        left = np.cumsum(split)
        left -= split
        left -= np.repeat(left[starts[:-1]], per_tree)
        left *= 2
        left += 1
        right = left + 1
        left[~split] = right[~split] = -1
        nodes = Tree(feature, threshold, left, right, value, n_rows, *kept)
        bounds = starts[np.arange(self.n_models + 1) * self._rounds].tolist()
        return [
            (nodes[start:end], starts[m * self._rounds : (m + 1) * self._rounds + 1] - start)
            for m, (start, end) in enumerate(itertools.pairwise(bounds))
        ]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _mean_logistic_loss(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per model (row of scores): the mean logistic loss over the training rows."""
    return np.mean(np.logaddexp(0.0, scores) - y * scores, axis=-1)


class NewtonGrower(LevelGrower):
    """GBT: Newton-style gradient boosting with logistic loss (the XGBoost-family stand-in).

    Each round grows a Newton regression tree per model on channels g and h,
    the per-row gradients and hessians of the logistic loss. Node totals G
    and H are `segment_sums` over the node's rows in ascending order, which
    equal `ndarray.sum()`, as growing each model alone computes them. A node
    shallower than max_depth splits on its best second-order gain when that
    gain is > 0; otherwise it is a leaf of weight -G / (H + l2), an L2
    penalty on the leaf weights. No row or column subsampling, so fits are
    fully deterministic.
    """

    def __init__(self, bm: BinnedMatrix, ks: tuple[int, ...], max_depth: int, l2: float, rounds: int):
        super().__init__(bm, ks, 2, max_depth, rounds)
        self.l2 = l2

    @classmethod
    def fit(cls, bm: BinnedMatrix, ks: tuple[int, ...], y: np.ndarray, hp: Hyperparameters) -> _GroupFit:
        """Boost one ensemble per k in lockstep; model i trains on the first ks[i] columns of bm.

        Each equals boosting it alone. The classes come from the final training scores.
        """
        rounds, learning_rate = hp.gbt_rounds, hp.gbt_learning_rate
        y_f = y.astype(np.float64)
        prior = min(max(float(y_f.mean()), _PRIOR_EPS), 1.0 - _PRIOR_EPS)
        init = math.log(prior / (1.0 - prior))
        grower = cls(bm, ks, hp.gbt_depth, hp.gbt_l2, rounds)
        scores = np.full((len(ks), len(y)), init, dtype=np.float64)
        row_values = np.empty_like(scores)
        losses = [_mean_logistic_loss(scores, y_f)]
        for _ in range(rounds):
            p = _sigmoid(scores)
            grower.grow(p - y_f, p * (1.0 - p), row_values)
            scores = scores + learning_rate * row_values
            losses.append(_mean_logistic_loss(scores, y_f))
        trees = zip(grower.trees(), np.transpose(losses).tolist())
        ensembles = [TreeEnsemble(init, [learning_rate] * rounds, *tree, train_losses=loss) for tree, loss in trees]
        return ensembles, (scores > 0).astype(np.int64)

    def grow(self, g: np.ndarray, h: np.ndarray, row_values: np.ndarray) -> None:
        """Grow one round: a tree per model for (M, n) gradients and hessians; leaf weights go to row_values."""
        self._gh = np.stack((g.ravel(), h.ravel()))
        self._grow((g, h), row_values)

    def _nodes(self, depth, order, bounds, sizes, split_level):
        # np.take keeps the gather C-contiguous, so each node's rows are summed pairwise
        totals = segment_sums(np.take(self._gh, order, axis=1), bounds)
        return totals, np.full(len(sizes), depth < self.max_depth)

    def _gain(self, sizes, totals, left_counts, left_sums, valid):
        G, H, (lg, lh), l2 = totals[:, :1], totals[:, 1:], left_sums, self.l2
        with np.errstate(divide="ignore", invalid="ignore"):
            rg = G - lg
            gain = 0.5 * (lg * lg / (lh + l2) + rg * rg / (H - lh + l2) - G * G / (H + l2))
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
    the tree keeps `n1`.
    """

    _extras = ("n1",)

    def __init__(self, bm: BinnedMatrix, ks: tuple[int, ...], y: np.ndarray, max_depth: int | None, min_leaf: int):
        super().__init__(bm, ks, 1, max_depth, rounds=1)
        self.y = y
        self.min_leaf = min_leaf

    @classmethod
    def fit(cls, bm: BinnedMatrix, ks: tuple[int, ...], y: np.ndarray, hp: Hyperparameters) -> _GroupFit:
        """Each model's tree, as a `TreeEnsemble` of one tree of weight 1.0, and its class for every training row."""
        grower = cls(bm, ks, y, hp.tree_max_depth, hp.tree_min_leaf)
        classes = np.empty((len(ks), len(y)))
        grower._grow(([y.astype(np.float64)] * len(ks),), classes)
        return [TreeEnsemble(0.0, [1.0], nodes, starts) for nodes, starts in grower.trees()], classes.astype(np.int64)

    def _nodes(self, depth, order, bounds, sizes, split_level):
        n1 = np.add.reduceat(self.y[order % self.bm.n], bounds[:-1])
        depth_capped = self.max_depth is not None and depth >= self.max_depth
        return n1, (n1 > 0) & (n1 < sizes) & (sizes >= 2 * self.min_leaf) & (not depth_capped)

    def _gain(self, sizes, n1, left_n, left_sums, valid):
        # gini = 1 - (c0 * c0 + c1 * c1) / (m * m) for the class counts c0, c1 and size m of a node or side
        (l1,) = left_sums
        n = sizes[:, np.newaxis]
        valid = valid & (left_n >= self.min_leaf) & ((n - left_n) >= self.min_leaf)
        n1 = n1[:, np.newaxis].astype(np.float64)
        n0 = n - n1
        parent = 1.0 - (n0 * n0 + n1 * n1) / (n * n)
        ln = left_n.astype(np.float64)
        rn = n - ln
        l0 = ln - l1
        r0, r1 = n0 - l0, n1 - l1
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_left = 1.0 - (l0 * l0 + l1 * l1) / (ln * ln)
            gini_right = 1.0 - (r0 * r0 + r1 * r1) / (rn * rn)
            gain = parent - ln / n * gini_left - rn / n * gini_right
        return gain, valid, -np.inf

    def _payload(self, n1, sizes, is_leaf):
        klass = 2 * n1 > sizes
        return klass.astype(np.float64), n1


class StumpGrower(LevelGrower):
    """AdaBoost: discrete SAMME with two classes over decision stumps, depth-1 trees or a single leaf.

    Each round grows a stump per model over channels w1 (w on class-1 rows,
    else 0) and w. The root splits on its minimum weighted error when that
    error is below the constant stump's; otherwise the stump is a single
    leaf. Every node's value is the vote of its weighted majority class, +1.0
    for class 1 and -1.0 for class 0: the root's from each model's 1-D weight
    sums, as boosting it alone takes them, the leaves' from the root's
    histogram at the chosen bin, so a row's vote is its side's without a row
    partition.
    """

    _leaves_from_split = True

    def __init__(self, bm: BinnedMatrix, ks: tuple[int, ...], y: np.ndarray, rounds: int):
        super().__init__(bm, ks, 2, 1, rounds)
        self.class_1 = y == 1

    @classmethod
    def fit(cls, bm: BinnedMatrix, ks: tuple[int, ...], y: np.ndarray, hp: Hyperparameters) -> _GroupFit:
        """Boost one ensemble per k in lockstep with SAMME updates (alpha = log((1-err)/err) for 2 classes).

        Model i trains on the first ks[i] columns of bm; one `grow` per round
        grows every model's stump. A model stops on a perfect stump (kept, its
        error clamped to eps for a finite alpha) or at a weighted error >=
        0.5, and then keeps no later stump or diagnostics. Its error and
        weights are 1-D sums over its own rows, so it equals boosting it
        alone. Its `TreeEnsemble` weighs the stumps it kept by their alphas
        from a start score of 0.0, except that a model with no stump scores
        its training majority class, 1.0 or 0.0. The classes come from the
        scores `decision_scores` adds.
        """
        n, rounds = len(y), hp.ada_rounds
        diagnostics = [([], [], []) for _ in ks]
        w = [np.full(n, 1.0 / n, dtype=np.float64) for _ in ks]
        scores = np.zeros((len(ks), n), dtype=np.float64)
        votes = np.empty((len(ks), n), dtype=np.float64)
        grower = cls(bm, ks, y, rounds)
        boosting = list(range(len(ks)))
        for _ in range(rounds):
            if not boosting:
                break
            grower.grow(w, votes)
            for m in list(boosting):
                alphas, errors, sums = diagnostics[m]
                miss = (votes[m] > 0) != y  # `_payload` votes +1.0 for class 1
                err = float(w[m][miss].sum())
                if err >= 0.5:
                    boosting.remove(m)
                    continue
                alpha = math.log((1.0 - err) / err) if err > 0.0 else math.log((1.0 - _EPS) / _EPS)
                errors.append(err)
                alphas.append(alpha)
                scores[m] += alpha * votes[m]
                if err > 0.0:
                    w[m] = w[m] * np.exp(alpha * miss)
                    w[m] = w[m] / w[m].sum()
                sums.append(float(w[m].sum()))
                if err <= 0.0:
                    boosting.remove(m)
        majority = float(int(y.sum()) * 2 > n)
        ensembles = []
        for (nodes, starts), (alphas, errors, sums), model_scores in zip(grower.trees(), diagnostics, scores):
            if not alphas:
                model_scores += majority
            kept = (alphas, nodes[: starts[len(alphas)]], starts[: len(alphas) + 1])
            ensembles.append(TreeEnsemble(0.0 if alphas else majority, *kept, weighted_errors=errors, weight_sums=sums))
        return ensembles, (scores > 0).astype(np.int64)

    def grow(self, w: list[np.ndarray], row_votes: np.ndarray) -> None:
        """Grow one round: a stump per model for its row weights w[m]; each row's vote goes to row_votes."""
        w1_totals = [float(wm[self.class_1].sum()) for wm in w]
        # per model: class-1 and class-0 weight
        self._root = np.array([(w1_total, float(wm.sum()) - w1_total) for w1_total, wm in zip(w1_totals, w)])
        self._grow(([np.where(self.class_1, wm, 0.0) for wm in w], w), row_votes)

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
        (lw1, lw), w1_total, w0_total = left_sums, totals[:, :1], totals[:, 1:]
        err = np.minimum(lw - lw1, lw1) + np.minimum(w0_total - (lw - lw1), w1_total - lw1)
        # the first maximum of -err is the first minimum error; it must beat the constant stump's
        return -err, valid, -np.minimum(totals[:, 1], totals[:, 0])

    def _payload(self, totals, sizes, is_leaf):
        return (np.where(totals[:, 0] > totals[:, 1], 1.0, -1.0),)
