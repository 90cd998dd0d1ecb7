"""Per-model AdaBoost with one split scan per stump, kept as the reference for the lockstep stumps.

This is the boosting loop the package used before the stumps of a group of
models were grown in lockstep: every round, `best_stump` scans all rows of one
model's `BinnedMatrix` and picks the stump with `argbest`. Its model keeps
the layout the package had before every family became one `TreeEnsemble`:
stumps whose leaves hold a class, their alphas and a fallback class. Tests
require the package's stumps (each vote 2 * class - 1), weights, per-round
diagnostics and training classes to equal the ones computed here, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fbcsurv.classifiers.splits import BinnedMatrix
from fbcsurv.classifiers.tree import Tree

from cart_reference import argbest

_EPS = 1e-10


@dataclass
class ReferenceAdaBoost:
    fallback_class: int  # every row's class when no stump is kept
    stumps: list[Tree] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    weighted_errors: list[float] = field(default_factory=list)
    weight_sums: list[float] = field(default_factory=list)


def best_stump(bm: BinnedMatrix, y: np.ndarray, w: np.ndarray) -> tuple[Tree, float, np.ndarray]:
    """Minimum-weighted-error stump over the rows of bm; ties keep the lowest feature, then threshold.

    Returns the stump, its weighted error and its class for every row. The
    constant majority stump, a single leaf, wins ties and covers data with no
    usable split. A stump's root holds the weighted majority class too.
    """
    n = len(y)
    w1_total = float(w[y == 1].sum())
    w0_total = float(w.sum()) - w1_total
    majority = float(w1_total > w0_total)
    constant_err = min(w0_total, w1_total)
    w1 = np.where(y == 1, w, 0.0)
    counts, left_n, (lw1, lw), valid = bm.scan(np.arange(n), (w1, w))
    best = argbest(np.minimum(lw - lw1, lw1) + np.minimum(w0_total - (lw - lw1), w1_total - lw1), valid, maximize=False)
    if best is not None:
        lw0_b = float(lw[best] - lw1[best])
        lw1_b = float(lw1[best])
        rw0_b = w0_total - lw0_b
        rw1_b = w1_total - lw1_b
        err = min(lw0_b, lw1_b) + min(rw0_b, rw1_b)
        if err < constant_err:
            feature, threshold = bm.split_at(best, counts)
            left_class, right_class = float(lw1_b > lw0_b), float(rw1_b > rw0_b)
            columns = ([feature, -1, -1], [threshold, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                       [majority, left_class, right_class], [n, left_n[best], n - left_n[best]])
            classes = np.where(bm.flat_codes[:, feature] <= best, left_class, right_class)
            return Tree(*map(np.array, columns)), err, classes
    return Tree(*map(np.array, ([-1], [0.0], [-1], [-1], [majority], [n]))), constant_err, np.full(n, majority)


def fit_adaboost_ensemble(bm: BinnedMatrix, y: np.ndarray, rounds: int) -> tuple[ReferenceAdaBoost, np.ndarray]:
    """Boost stumps over the rows of bm with SAMME weight updates (alpha = log((1-err)/err) for 2 classes).

    Stops early on a perfect stump (kept, with the error clamped to eps for a
    large finite alpha) or when the weighted error reaches 0.5. Also returns
    the ensemble's class for every training row, from its scores, or its
    fallback class when it keeps no stump.
    """
    n = len(y)
    ensemble = ReferenceAdaBoost(fallback_class=1 if int(y.sum()) * 2 > n else 0)
    w = np.full(n, 1.0 / n, dtype=np.float64)
    scores = np.zeros(n, dtype=np.float64)
    for _ in range(rounds):
        stump, _, classes = best_stump(bm, y, w)
        miss = classes != y
        err = float(w[miss].sum())
        if err >= 0.5:
            break
        alpha = math.log((1.0 - err) / err) if err > 0.0 else math.log((1.0 - _EPS) / _EPS)
        ensemble.weighted_errors.append(err)
        ensemble.stumps.append(stump)
        ensemble.alphas.append(alpha)
        scores += alpha * (2.0 * classes - 1.0)
        if err > 0.0:
            w = w * np.exp(alpha * miss)
            w = w / w.sum()
        ensemble.weight_sums.append(float(w.sum()))
        if err <= 0.0:
            break
    return ensemble, (scores > 0).astype(np.int64) if ensemble.stumps else np.full(n, ensemble.fallback_class)
