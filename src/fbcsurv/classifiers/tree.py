"""Binary tree structure, CART growth on Gini impurity, and Newton regression trees.

Ties during split search are broken deterministically: lowest feature index
first, then lowest threshold. Growth and prediction are iterative so
unbounded-depth trees cannot hit the interpreter recursion limit. Newton
regression trees grow level by level, for a group of boosted models at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .splits import BinnedMatrix, argbest


@dataclass(slots=True)
class TreeNode:
    n: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    klass: int | None = None  # classification leaf: predicted class
    prob: float | None = None  # fraction of the predicted class in the leaf
    n1: int = 0  # class-1 count at the node (classification only)
    value: float | None = None  # regression leaf weight

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


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


def _class_leaf(node: TreeNode) -> None:
    n0 = node.n - node.n1
    node.klass = 1 if node.n1 > n0 else 0  # ties predict class 0
    node.prob = (node.n1 if node.klass == 1 else n0) / node.n


def grow_classification_tree(
    X: np.ndarray, y: np.ndarray, max_depth: int | None, min_leaf: int
) -> TreeNode:
    bm = BinnedMatrix(X)
    y_f = y.astype(np.float64)
    root = TreeNode(n=len(y))
    stack = [(root, np.arange(len(y)), 0)]
    while stack:
        node, idx, depth = stack.pop()
        node.n = len(idx)
        node.n1 = int(y[idx].sum())
        pure = node.n1 in (0, node.n)
        depth_capped = max_depth is not None and depth >= max_depth
        split = None
        if not pure and not depth_capped and node.n >= 2 * min_leaf:
            split = _gini_split(bm, idx, y_f[idx], min_leaf)
        if split is None:
            _class_leaf(node)
            continue
        node.feature, node.threshold, flat_bin = split
        mask = bm.left_mask(idx, node.feature, flat_bin)
        node.left = TreeNode(n=int(mask.sum()))
        node.right = TreeNode(n=int((~mask).sum()))
        stack.append((node.right, idx[~mask], depth + 1))
        stack.append((node.left, idx[mask], depth + 1))
    return root


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
        if not ks or min(ks) < 1 or max(ks) > bm.d:
            raise ValueError(f"column prefixes {ks} must lie in 1..{bm.d}")
        n = bm.n
        self.bm = bm
        self.max_depth = max_depth
        self.l2 = l2
        self.n_models = len(ks)
        self.n_bins = int(bm.offsets[max(ks)])
        self._seg_start = bm._seg_start[: self.n_bins]
        # One element per (model, column < k, row), in that order. A bin lies in
        # one column, so every (node, bin) sum adds rows in ascending order.
        # Model m's elements are a (k, n) block of each buffer; the buffers are
        # reused every level.
        size = n * sum(ks)
        self._codes = np.empty(size, dtype=np.int64)
        self._wg = np.empty(size, dtype=np.float64)
        self._wh = np.empty(size, dtype=np.float64)
        codes_by_column = np.ascontiguousarray(bm.flat_codes[:, : max(ks)].T)
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
        return sums, cum[:, 1:] - cum[:, self._seg_start]

    def _histograms(self, depth: int, order: np.ndarray, slot_of_pos: np.ndarray, n_slots: int):
        """Counts, left counts, left gradient sums and left hessian sums per (open slot, flat bin)."""
        self._fill_codes(order, slot_of_pos, n_slots)
        counts, left_counts = self._root_counts if depth == 0 else self._bin_sums(n_slots)
        return counts, left_counts, self._bin_sums(n_slots, self._wg)[1], self._bin_sums(n_slots, self._wh)[1]

    def grow(self, g: np.ndarray, h: np.ndarray, row_values: np.ndarray) -> list[TreeNode]:
        """One tree per model for (M, n) gradients and hessians.

        Each training row's leaf weight is written into row_values (M, n), so
        boosting can update scores without a separate prediction pass.
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
        roots = [TreeNode(n=n) for _ in range(n_models)]
        nodes = roots
        # (model, row) pairs of the open nodes, grouped by node and ascending within one
        order = np.arange(n_models * n)
        sizes = np.full(n_models, n, dtype=np.int64)
        for depth in range(self.max_depth + 1):
            n_slots = len(nodes)
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
            if is_leaf.any():
                denominators = totals[:, 1] + l2
                if (denominators[is_leaf] == 0.0).any():
                    raise ValueError("a GBT leaf has a zero hessian sum; use gbt_l2 > 0")
                leaf_values = -totals[:, 0] / denominators
                in_leaf = is_leaf[slot_of_pos]
                values[order[in_leaf]] = leaf_values[slot_of_pos[in_leaf]]
                for node, leaf, value in zip(nodes, is_leaf.tolist(), leaf_values.tolist()):
                    if leaf:
                        node.value = value
                if not split.any():
                    break
                order = order[~in_leaf]
                nodes = [node for node, leaf in zip(nodes, is_leaf.tolist()) if not leaf]
            # split nodes: feature, midpoint threshold to the next occupied bin, child sizes
            flat_bin = best[split]
            occupied = counts[split] > 0
            after = np.arange(self.n_bins) > flat_bin[:, np.newaxis]
            nxt = (occupied & after).argmax(axis=1)
            features = bm.col_of_bin[flat_bin]
            thresholds = (bm.bin_values[flat_bin] + bm.bin_values[nxt]) / 2.0
            n_left = left_counts[split][np.arange(len(nodes)), flat_bin]
            parent_sizes = sizes[split]
            # stable partition of each node's pairs: left child first, then right
            parent = np.repeat(np.arange(len(nodes)), parent_sizes)
            goes_left = bm.flat_codes[order % n, features[parent]] <= flat_bin[parent]
            child = 2 * parent + ~goes_left
            order = order[np.argsort(child.astype(np.min_scalar_type(2 * len(nodes))), kind="stable")]
            sizes = np.column_stack((n_left, parent_sizes - n_left)).ravel()
            children = []
            for node, feature, threshold, nl, nr in zip(
                nodes, features.tolist(), thresholds.tolist(), sizes[0::2].tolist(), sizes[1::2].tolist()
            ):
                node.feature = feature
                node.threshold = threshold
                node.left = TreeNode(n=nl)
                node.right = TreeNode(n=nr)
                children += (node.left, node.right)
            nodes = children
        return roots


def _apply(root: TreeNode, X: np.ndarray, out: np.ndarray, attr: str) -> None:
    stack = [(root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = getattr(node, attr)
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))


def predict_classes(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X), dtype=np.int64)
    _apply(root, X, out, "klass")
    return out


def predict_values(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X), dtype=np.float64)
    _apply(root, X, out, "value")
    return out


def dump_tree(root: TreeNode, feature_names: tuple[str, ...]) -> str:
    """Human-readable indented dump of a classification tree."""
    lines: list[str] = []

    def walk(node: TreeNode, indent: int) -> None:
        pad = " " * indent
        if node.is_leaf:
            lines.append(f"{pad}leaf class={node.klass} p={node.prob:.4f} n={node.n}")
            return
        lines.append(f"{pad}if {feature_names[node.feature]} <= {node.threshold:g}")
        walk(node.left, indent + 4)
        lines.append(f"{pad}else")
        walk(node.right, indent + 4)

    walk(root, 0)
    return "\n".join(lines)


def node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        d = {"n": node.n}
        if node.value is not None:
            d["value"] = node.value
        else:
            d["class"] = node.klass
            d["p"] = node.prob
            d["n1"] = node.n1
        return d
    return {
        "n": node.n,
        "feature": node.feature,
        "threshold": node.threshold,
        "left": node_to_dict(node.left),
        "right": node_to_dict(node.right),
    }


def node_from_dict(d: dict) -> TreeNode:
    if "feature" not in d:
        return TreeNode(
            n=d["n"],
            klass=d.get("class"),
            prob=d.get("p"),
            n1=d.get("n1", 0),
            value=d.get("value"),
        )
    return TreeNode(
        n=d["n"],
        feature=d["feature"],
        threshold=d["threshold"],
        left=node_from_dict(d["left"]),
        right=node_from_dict(d["right"]),
    )
