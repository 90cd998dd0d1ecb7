"""Discrete AdaBoost (SAMME, two classes) over decision stumps: depth-1 flat trees, or a single leaf.

An AdaBoost model is a `TreeEnsemble` whose node columns hold the first
len(weights) stumps its group grew, each leaf holding its class's vote (-1.0
or +1.0), and whose weights are their alphas. Its start score is 0.0, except
that a model with no stump scores its training majority class, 1.0 or 0.0.
"""

from __future__ import annotations

import math

import numpy as np

from .splits import BinnedMatrix
from .tree import StumpGrower, TreeEnsemble

_EPS = 1e-10


def fit_adaboost_ensembles(
    bm: BinnedMatrix, ks: tuple[int, ...], y: np.ndarray, rounds: int
) -> list[tuple[TreeEnsemble, np.ndarray]]:
    """Boost one ensemble per k in lockstep with SAMME updates (alpha = log((1-err)/err) for 2 classes).

    Model i trains on the first ks[i] columns of bm; one `StumpGrower` pass per
    round grows every model's stump. A model stops on a perfect stump (kept,
    its error clamped to eps for a finite alpha) or at a weighted error >= 0.5,
    and then keeps no later stump or diagnostics. Its error and weights are 1-D
    sums over its own rows, so it equals boosting it alone. Each ensemble comes
    with its class per training row, from the scores `decision_scores` adds.
    """
    n = len(y)
    diagnostics = [([], [], []) for _ in ks]
    w = [np.full(n, 1.0 / n, dtype=np.float64) for _ in ks]
    scores = np.zeros((len(ks), n), dtype=np.float64)
    votes = np.empty((len(ks), n), dtype=np.float64)
    grower = StumpGrower(bm, ks, y, rounds)
    boosting = list(range(len(ks)))
    for _ in range(rounds):
        if not boosting:
            break
        grower.grow(w, votes)
        for m in list(boosting):
            alphas, errors, sums = diagnostics[m]
            miss = (votes[m] > 0) != y
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
    return list(zip(ensembles, (scores > 0).astype(np.int64)))
