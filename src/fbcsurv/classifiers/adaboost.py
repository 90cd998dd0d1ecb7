"""Discrete AdaBoost (SAMME, two classes) over decision stumps: depth-1 flat trees, or a single leaf."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .splits import BinnedMatrix
from .tree import StumpGrower, Tree, check_saved_keys, is_finite_number, predict_trees

_EPS = 1e-10


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
        check_saved_keys(d, ("stumps", "alphas", "fallback_class"), "an AdaBoost model")
        if len(d["stumps"]) != len(d["alphas"]):
            raise ValueError("an AdaBoost model needs one alpha per stump")
        if not all(map(is_finite_number, d["alphas"])):
            raise ValueError("an AdaBoost model's alphas must be finite numbers")
        if type(d["fallback_class"]) is not int or d["fallback_class"] not in (0, 1):
            raise ValueError("an AdaBoost model's fallback_class must be 0 or 1")
        return cls(
            stumps=[Tree.from_dict(s, n_features) for s in d["stumps"]],
            alphas=list(d["alphas"]),
            fallback_class=d["fallback_class"],
        )


def fit_adaboost_ensembles(
    bm: BinnedMatrix, ks: tuple[int, ...], y: np.ndarray, rounds: int
) -> list[tuple[AdaBoostEnsemble, np.ndarray]]:
    """Boost one ensemble per k in lockstep with SAMME updates (alpha = log((1-err)/err) for 2 classes).

    Model i trains on the first ks[i] columns of bm; one `StumpGrower` pass per
    round grows every model's stump. A model stops on a perfect stump (kept,
    its error clamped to eps for a finite alpha) or at a weighted error >= 0.5,
    and then keeps no later stump or diagnostics. Its error and weights are 1-D
    sums over its own rows, so it equals boosting it alone. Each ensemble comes
    with its class per training row, from the scores `decision_scores` adds.
    """
    n = len(y)
    ensembles = [AdaBoostEnsemble(fallback_class=1 if int(y.sum()) * 2 > n else 0) for _ in ks]
    w = [np.full(n, 1.0 / n, dtype=np.float64) for _ in ks]
    scores = np.zeros((len(ks), n), dtype=np.float64)
    classes = np.empty((len(ks), n), dtype=np.float64)
    grower = StumpGrower(bm, ks, y)
    boosting = list(range(len(ks)))
    for _ in range(rounds):
        if not boosting:
            break
        grower.grow(w, classes)
        for m in list(boosting):
            ensemble = ensembles[m]
            miss = classes[m] != y
            err = float(w[m][miss].sum())
            if err >= 0.5:
                boosting.remove(m)
                continue
            alpha = math.log((1.0 - err) / err) if err > 0.0 else math.log((1.0 - _EPS) / _EPS)
            ensemble.weighted_errors.append(err)
            ensemble.alphas.append(alpha)
            scores[m] += alpha * (2.0 * classes[m] - 1.0)
            if err > 0.0:
                w[m] = w[m] * np.exp(alpha * miss)
                w[m] = w[m] / w[m].sum()
            ensemble.weight_sums.append(float(w[m].sum()))
            if err <= 0.0:
                boosting.remove(m)
    for ensemble, stumps in zip(ensembles, grower.pop_trees()):
        ensemble.stumps = stumps[: len(ensemble.alphas)]
    return [
        (ensemble, (model_scores > 0).astype(np.int64) if ensemble.stumps else np.full(n, ensemble.fallback_class))
        for ensemble, model_scores in zip(ensembles, scores)
    ]
