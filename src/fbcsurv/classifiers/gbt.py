"""Newton-style gradient boosting with logistic loss (the XGBoost-family stand-in).

Each round fits a depth-limited regression tree, whose leaf payload is the
weight, to the per-row gradients and hessians of the logistic loss; leaf
weights carry an L2 penalty. No row or column subsampling, so fits are fully
deterministic. Models on prefixes of one binned matrix are boosted in
lockstep, one tree level of every model at a time; each comes out as if
boosted alone: a `TreeEnsemble` from the log-odds prior whose node columns
hold one tree per round, each weighed by the learning rate.
"""

from __future__ import annotations

import math

import numpy as np

from .splits import BinnedMatrix
from .tree import NewtonGrower, TreeEnsemble

_PRIOR_EPS = 1e-12


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _mean_logistic_loss(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per model (row of scores): the mean logistic loss over the training rows."""
    return np.mean(np.logaddexp(0.0, scores) - y * scores, axis=-1)


def fit_gbt_ensembles(
    bm: BinnedMatrix, ks: tuple[int, ...], y: np.ndarray, rounds: int, depth: int, learning_rate: float, l2: float
) -> list[tuple[TreeEnsemble, np.ndarray]]:
    """Boost one ensemble per k in lockstep; model i trains on the first ks[i] columns of bm.

    Each ensemble comes with its class for every training row, from its
    final training scores.
    """
    n = len(y)
    y_f = y.astype(np.float64)
    prior = min(max(float(y_f.mean()), _PRIOR_EPS), 1.0 - _PRIOR_EPS)
    init = math.log(prior / (1.0 - prior))
    grower = NewtonGrower(bm, ks, depth, l2, rounds)
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
        TreeEnsemble(init, [learning_rate] * rounds, nodes, starts, train_losses=model_losses)
        for (nodes, starts), model_losses in zip(grower.trees(), np.transpose(losses).tolist())
    ]
    return list(zip(ensembles, (scores > 0).astype(np.int64)))
