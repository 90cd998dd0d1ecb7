"""Chi-squared feature ranking against the binary survival target.

Features are treated as categorical: the contingency table is built over the
distinct integer values of a column crossed with the two target classes, and
the statistic is the plain Pearson sum over cells. No p-values; the ranking
uses the raw statistic with ties broken by column name so folds reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import FeatureMatrix
from .tables import write_csv


@dataclass(frozen=True)
class FeatureRanking:
    """All columns sorted by statistic (descending, name-ascending on ties)."""

    entries: tuple[tuple[str, float], ...]
    k: int

    @property
    def selected(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries[: self.k])


def chi2_statistic(feature_column: np.ndarray, target: np.ndarray) -> float:
    """Pearson chi-squared of a small-integer column against a binary target.

    Expected counts come from row/column marginals; cells with expected 0
    contribute 0 (only possible for a degenerate marginal).
    """
    values = np.asarray(feature_column)
    y = np.asarray(target)
    if values.shape != y.shape or values.ndim != 1:
        raise ValueError("feature column and target must be equal-length 1-D vectors")
    n = values.shape[0]
    if n == 0:
        raise ValueError("empty input")
    n1 = int(np.sum(y == 1))
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        raise ValueError("target must contain both classes")
    _, inverse = np.unique(values, return_inverse=True)
    row_totals = np.bincount(inverse).astype(np.float64)
    obs1 = np.bincount(inverse, weights=(y == 1).astype(np.float64))
    obs0 = row_totals - obs1
    exp1 = row_totals * (n1 / n)
    exp0 = row_totals * (n0 / n)
    stat = 0.0
    for obs, exp in ((obs0, exp0), (obs1, exp1)):
        mask = exp > 0
        stat += float(np.sum((obs[mask] - exp[mask]) ** 2 / exp[mask]))
    return stat


def rank_features(X: np.ndarray, y: np.ndarray, column_names: tuple[str, ...], k: int) -> FeatureRanking:
    """Rank every column by chi-squared; the length-k prefix is the selection."""
    if not (1 <= k <= len(column_names)):
        raise ValueError(f"k={k} out of range [1, {len(column_names)}]")
    stats = [(name, chi2_statistic(X[:, j], y)) for j, name in enumerate(column_names)]
    stats.sort(key=lambda item: (-item[1], item[0]))
    return FeatureRanking(entries=tuple(stats), k=k)


def select_top_k(matrix: FeatureMatrix, k: int, rows: np.ndarray | None = None) -> FeatureRanking:
    """Rank a feature matrix, optionally restricted to training rows (no test leakage)."""
    if rows is None:
        X, y = matrix.X, matrix.y
    else:
        X, y = matrix.X[rows], matrix.y[rows]
    return rank_features(X, y, matrix.column_names, k)


def write_ranking_csv(ranking: FeatureRanking, path: str | Path) -> None:
    """ranking.csv: rank, column_name, chi2 of the selected prefix."""
    rows = ((rank, name, stat) for rank, (name, stat) in enumerate(ranking.entries[: ranking.k], start=1))
    write_csv(path, ["rank", "column_name", "chi2"], rows)
