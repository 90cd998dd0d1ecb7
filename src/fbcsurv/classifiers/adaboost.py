"""Discrete AdaBoost (SAMME, two classes) over decision stumps: depth-1 flat trees, or a single leaf."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .splits import BinnedMatrix, argbest
from .tree import Tree, predict_trees

_EPS = 1e-10


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


@dataclass
class AdaBoostEnsemble:
    stumps: list[Tree] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    fallback_class: int = 0
    # per-round diagnostics, recorded during fit
    weighted_errors: list[float] = field(default_factory=list)
    weight_sums: list[float] = field(default_factory=list)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros(len(X), dtype=np.float64)
        for classes, alpha in zip(predict_trees(self.stumps, X), self.alphas):
            scores += alpha * (2.0 * classes - 1.0)
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.stumps:
            return np.full(len(X), self.fallback_class, dtype=np.int64)
        return (self.decision_scores(X) > 0).astype(np.int64)

    def to_dict(self) -> dict:
        return {
            "stumps": [s.to_dict() for s in self.stumps],
            "alphas": self.alphas,
            "fallback_class": self.fallback_class,
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "AdaBoostEnsemble":
        if len(d["stumps"]) != len(d["alphas"]):
            raise ValueError("an AdaBoost model needs one alpha per stump")
        return cls(
            stumps=[Tree.from_dict(s, n_features) for s in d["stumps"]],
            alphas=list(d["alphas"]),
            fallback_class=d["fallback_class"],
        )


def fit_adaboost_ensemble(bm: BinnedMatrix, y: np.ndarray, rounds: int) -> tuple[AdaBoostEnsemble, np.ndarray]:
    """Boost stumps over the rows of bm with SAMME weight updates (alpha = log((1-err)/err) for 2 classes).

    Stops early on a perfect stump (kept, with the error clamped to eps for a
    large finite alpha) or when the weighted error reaches 0.5. Also returns
    the ensemble's class for every training row, from the same scores
    `decision_scores` adds up.
    """
    n = len(y)
    ensemble = AdaBoostEnsemble(fallback_class=1 if int(y.sum()) * 2 > n else 0)
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
