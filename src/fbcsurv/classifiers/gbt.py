"""Newton-style gradient boosting with logistic loss (the XGBoost-family stand-in).

Each round fits a depth-limited regression tree (a flat `Tree` whose leaf
payload is the weight) to the per-row gradients and hessians of the logistic
loss; leaf weights carry an L2 penalty. No row or column subsampling, so fits
are fully deterministic. Models that train on prefixes of one binned matrix
are boosted in lockstep, one tree level of every model at a time; each model
comes out as if it had been boosted alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .splits import BinnedMatrix
from .tree import NewtonGrower, Tree, check_saved_keys, is_finite_number, predict_trees

_PRIOR_EPS = 1e-12


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _mean_logistic_loss(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per model (row of scores): the mean logistic loss over the training rows."""
    return np.mean(np.logaddexp(0.0, scores) - y * scores, axis=-1)


@dataclass
class GbtEnsemble:
    init_score: float
    learning_rate: float
    trees: list[Tree] = field(default_factory=list)
    # mean training loss after 0, 1, ..., n rounds, recorded during fit
    train_losses: list[float] = field(default_factory=list)

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.full(len(X), self.init_score, dtype=np.float64)
        for values in predict_trees(self.trees, X):
            scores += self.learning_rate * values
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        # probability > 0.5 means score > 0; exact 0.5 maps to class 0
        return (self.decision_scores(X) > 0).astype(np.int64)

    def to_dict(self) -> dict:
        return {
            "init_score": self.init_score,
            "learning_rate": self.learning_rate,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "GbtEnsemble":
        check_saved_keys(d, ("init_score", "learning_rate", "trees"), "a GBT model")
        if not is_finite_number(d["init_score"]):
            raise ValueError("a GBT model's init_score must be a finite number")
        if not (is_finite_number(d["learning_rate"]) and 0.0 < d["learning_rate"] <= 1.0):
            raise ValueError("a GBT model's learning_rate must be a number in (0, 1]")
        return cls(
            init_score=d["init_score"],
            learning_rate=d["learning_rate"],
            trees=[Tree.from_dict(t, n_features) for t in d["trees"]],
        )


def fit_gbt_ensembles(
    bm: BinnedMatrix, ks: tuple[int, ...], y: np.ndarray, rounds: int, depth: int, learning_rate: float, l2: float
) -> list[tuple[GbtEnsemble, np.ndarray]]:
    """Boost one ensemble per k in lockstep; model i trains on the first ks[i] columns of bm.

    Each ensemble comes with its class for every training row, from its
    final training scores.
    """
    n = len(y)
    y_f = y.astype(np.float64)
    prior = min(max(float(y_f.mean()), _PRIOR_EPS), 1.0 - _PRIOR_EPS)
    init = math.log(prior / (1.0 - prior))
    grower = NewtonGrower(bm, ks, depth, l2)
    scores = np.full((len(ks), n), init, dtype=np.float64)
    row_values = np.empty((len(ks), n), dtype=np.float64)
    losses = [_mean_logistic_loss(scores, y_f)]
    for _ in range(rounds):
        p = _sigmoid(scores)
        g = p - y_f
        h = p * (1.0 - p)
        grower.grow(g, h, row_values)
        scores = scores + learning_rate * row_values
        losses.append(_mean_logistic_loss(scores, y_f))
    ensembles = [
        GbtEnsemble(init, learning_rate, trees, model_losses)
        for trees, model_losses in zip(grower.pop_trees(), np.transpose(losses).tolist())
    ]
    return list(zip(ensembles, (scores > 0).astype(np.int64)))
