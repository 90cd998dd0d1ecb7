from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbcsurv.features import FeatureMatrix
from fbcsurv.selection import chi2_statistic, rank_features, select_top_k, write_ranking_csv


def chi2_brute(values, target):
    """Dictionary-counting contingency oracle, independent of the numpy path."""
    n = len(values)
    cells = Counter(zip(values, target))
    row_totals = Counter(values)
    col_totals = Counter(target)
    stat = 0.0
    for v in row_totals:
        for c in (0, 1):
            expected = row_totals[v] * col_totals[c] / n
            if expected > 0:
                observed = cells.get((v, c), 0)
                stat += (observed - expected) ** 2 / expected
    return stat


def test_constant_feature_scores_zero():
    x = np.full(12, 3)
    y = np.array([0, 1] * 6)
    assert chi2_statistic(x, y) == 0.0


def test_perfect_2x2_association_equals_n():
    x = np.array([1] * 10 + [2] * 10)
    y = np.array([0] * 10 + [1] * 10)
    assert chi2_statistic(x, y) == 20.0


def test_proportional_cells_score_zero():
    # feature value 1: 4 rows (2 per class); value 2: 8 rows (4 per class)
    x = np.array([1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2])
    y = np.array([0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1])
    assert chi2_statistic(x, y) == pytest.approx(0.0, abs=1e-15)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(77)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        x = rng.integers(0, 6, size=n)
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            continue
        assert chi2_statistic(x, y) == pytest.approx(chi2_brute(x.tolist(), y.tolist()), abs=1e-9)


def test_errors():
    with pytest.raises(ValueError, match="both classes"):
        chi2_statistic(np.array([1, 2]), np.array([1, 1]))
    with pytest.raises(ValueError, match="empty"):
        chi2_statistic(np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(ValueError, match="equal-length"):
        chi2_statistic(np.array([1, 2, 3]), np.array([0, 1]))


def _matrix(X, y, names):
    return FeatureMatrix(
        column_names=tuple(names),
        patient_ids=tuple(f"P{i}" for i in range(len(y))),
        X=np.asarray(X, dtype=np.int64),
        y=np.asarray(y, dtype=np.int64),
    )


def test_planted_column_ranks_first():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, size=200)
    while y.sum() in (0, 200):
        y = rng.integers(0, 2, size=200)
    noise = rng.integers(1, 4, size=(200, 10))
    X = np.column_stack([noise[:, :5], y + 1, noise[:, 5:]])
    names = [f"noise_{j}" for j in range(5)] + ["planted"] + [f"noise_{j+5}" for j in range(5)]
    ranking = rank_features(X, y, tuple(names), k=3)
    assert ranking.entries[0][0] == "planted"
    assert ranking.entries[0][1] == pytest.approx(200.0)


def test_top_k_cardinality_and_prefix_property():
    rng = np.random.default_rng(11)
    y = np.array([0, 1] * 30)
    X = rng.integers(1, 4, size=(60, 14))
    matrix = _matrix(X, y, [f"c{j:02d}" for j in range(14)])
    r5 = select_top_k(matrix, 5)
    assert len(r5.selected) == 5
    r_all = select_top_k(matrix, 14)
    assert len(r_all.selected) == 14
    for k1 in range(1, 15):
        for k2 in range(k1, 15):
            assert select_top_k(matrix, k1).selected == select_top_k(matrix, k2).selected[:k1]


def test_k_out_of_range():
    matrix = _matrix(np.ones((4, 2)), [0, 1, 0, 1], ["a", "b"])
    with pytest.raises(ValueError, match="out of range"):
        select_top_k(matrix, 0)
    with pytest.raises(ValueError, match="out of range"):
        select_top_k(matrix, 3)


def test_training_rows_restriction():
    y = np.array([0, 1, 0, 1, 0, 1])
    X = np.column_stack([np.array([1, 2, 1, 2, 1, 2]), np.array([1, 1, 1, 1, 9, 9])])
    matrix = _matrix(X, y, ["signal", "leaky"])
    full = select_top_k(matrix, 1)
    train_only = select_top_k(matrix, 1, rows=np.array([0, 1, 2, 3]))
    assert full.selected == ("signal",)
    # restricted to the first four rows the leaky column is constant
    assert train_only.entries[-1] == ("leaky", 0.0)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    x = rng.integers(0, 5, size=n)
    y = rng.integers(0, 2, size=n)
    if y.sum() in (0, n):
        return
    perm = rng.permutation(n)
    assert chi2_statistic(x[perm], y[perm]) == pytest.approx(chi2_statistic(x, y), abs=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_bijective_relabel_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    x = rng.integers(1, 4, size=n)
    y = rng.integers(0, 2, size=n)
    if y.sum() in (0, n):
        return
    swapped = np.where(x == 1, 3, np.where(x == 3, 1, x))
    assert chi2_statistic(swapped, y) == pytest.approx(chi2_statistic(x, y), abs=1e-12)


def test_tie_break_by_name():
    y = np.array([0, 0, 1, 1])
    col = np.array([1, 1, 2, 2])
    X = np.column_stack([col, col])
    ranking = rank_features(X, y, ("zeta", "alpha"), k=2)
    assert [name for name, _ in ranking.entries] == ["alpha", "zeta"]


def test_ranking_csv(tmp_path):
    y = np.array([0, 0, 1, 1])
    X = np.column_stack([np.array([1, 1, 2, 2]), np.array([1, 2, 1, 2])])
    matrix = _matrix(X, y, ["good", "bad"])
    write_ranking_csv(select_top_k(matrix, 2), tmp_path / "ranking.csv")
    lines = (tmp_path / "ranking.csv").read_text().splitlines()
    assert lines[0] == "rank,column_name,chi2"
    assert lines[1].startswith("1,good,4.0")
