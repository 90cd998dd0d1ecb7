"""Shared-fold cross-validation sweep, cohort statistics, and feature consistency.

One stratified fold plan is built per run and reused by every labeling
scheme, model family, and feature count, so accuracy differences between
cells never come from different data partitions. Feature ranking happens on
training rows only, inside each fold.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# fit_model and predict stay module globals, unused or not: perfbench/tracing.py rebinds them
from .classifiers import MODEL_FAMILIES, Hyperparameters, fit_group, fit_model, predict  # noqa: F401
from .classifiers.splits import BinnedMatrix
from .cohort import MEASURES, Cohort, Measure, died_within_follow_up
from .features import FeatureMatrix, age_group, build_matrix
from .labeling import (
    DEFAULT_WINDOW,
    FAR_DAYS_DEFAULT,
    DiagnosisWindow,
    Group,
    Version,
    history_groups,
    label_cohort,
)
from .ranges import SOFT_MARGIN_DEFAULT
from .selection import rank_features
from .tables import write_csv

N_FOLDS = 10
# a fold fits each family's models for consecutive k together while n_train * sum(k) stays within this many elements.
# The grower's buffers hold only each model's distinct columns, often about half of sum(k), but the budget counts
# every column on purpose: sized by distinct columns, a fold fits in one group whose models hold more memory at once.
LOCKSTEP_GROUP_ELEMENTS = 70_000


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment, deterministic in (target, seed)."""

    seed: int
    n_folds: int
    fold_of: np.ndarray  # fold index per row

    def test_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


def _stratified_assignment(y: np.ndarray, seed: int, n_folds: int) -> np.ndarray:
    """Deal class members round-robin with a running pointer across classes.

    Every fold ends up within one row of n/n_folds overall and within one row
    of the global class proportions.
    """
    n = len(y)
    if n < n_folds:
        raise ValueError(f"fewer rows ({n}) than folds ({n_folds})")
    if len(np.unique(y)) < 2:
        raise ValueError("target must contain both classes")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    pointer = 0
    for cls in (0, 1):
        members = np.flatnonzero(y == cls)
        for row in rng.permutation(members):
            fold_of[row] = pointer % n_folds
            pointer += 1
    return fold_of


def make_fold_plan(matrix: FeatureMatrix, seed: int, n_folds: int = N_FOLDS) -> FoldPlan:
    return FoldPlan(seed=seed, n_folds=n_folds, fold_of=_stratified_assignment(matrix.y, seed, n_folds))


@dataclass(frozen=True)
class FoldRecord:
    version: str
    model: str
    k: int
    fold: int
    accuracy: float
    sensitivity: float
    specificity: float
    train_accuracy: float
    selected_features: tuple[str, ...]
    train_hash: str
    test_hash: str


@dataclass
class EvaluationReport:
    records: list[FoldRecord]
    fold_plan: FoldPlan
    versions: tuple[str, ...]
    k_values: tuple[int, ...]
    model_families: tuple[str, ...]
    hp: Hyperparameters
    seed: int
    n_patients: int
    n_deceased: int

    @property
    def majority_baseline(self) -> float:
        p = self.n_deceased / self.n_patients
        return max(p, 1.0 - p)

    def summary(self) -> list[tuple[str, str, int, float, float]]:
        """Per (version, model, k): mean and population std of fold accuracies."""
        cells: dict[tuple[str, str, int], list[float]] = {}
        for rec in self.records:
            cells.setdefault((rec.version, rec.model, rec.k), []).append(rec.accuracy)
        out = []
        for version in self.versions:
            for model in self.model_families:
                for k in self.k_values:
                    accs = np.asarray(cells[(version, model, k)])
                    out.append((version, model, k, float(accs.mean()), float(accs.std())))
        return out


def _index_hash(idx: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(idx, dtype=np.int64).tobytes()).hexdigest()


def _rates(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float, float]:
    accuracy = float(np.mean(pred == truth))
    pos = truth == 1
    neg = ~pos
    sensitivity = float(np.mean(pred[pos] == 1)) if pos.any() else float("nan")
    specificity = float(np.mean(pred[neg] == 0)) if neg.any() else float("nan")
    return accuracy, sensitivity, specificity


def _lockstep_groups(k_values: tuple[int, ...], n_rows: int) -> list[tuple[int, ...]]:
    """Consecutive k values whose models a fold fits together within LOCKSTEP_GROUP_ELEMENTS.

    A k whose own n_rows * k exceeds the budget forms a group of one.
    """
    groups: list[list[int]] = [[]]
    for k in k_values:
        if groups[-1] and n_rows * (sum(groups[-1]) + k) > LOCKSTEP_GROUP_ELEMENTS:
            groups.append([])
        groups[-1].append(k)
    return [tuple(group) for group in groups]


def _fold_task(args) -> list[FoldRecord]:
    (version_value, fold, X, y, column_names, train_idx, test_idx, k_values, hp) = args
    train_hash = _index_hash(train_idx)
    test_hash = _index_hash(test_idx)
    X_train, y_train = X[train_idx], y[train_idx]
    X_test, y_test = X[test_idx], y[test_idx]
    ranking = rank_features(X_train, y_train, column_names, max(k_values))
    col_pos = {name: j for j, name in enumerate(column_names)}
    # every selected set is a prefix of the fold's ranking, so one top-max(k) matrix serves all k
    top = tuple(name for name, _ in ranking.entries[: max(k_values)])
    cols = [col_pos[name] for name in top]
    X_train = X_train[:, cols]
    X_test = X_test[:, cols]
    binned = BinnedMatrix(X_train)
    # (family, k) -> (test rates, training accuracy); a group's models are scored, then dropped
    scored = {}
    for family in MODEL_FAMILIES:
        for ks in _lockstep_groups(k_values, len(y_train)):
            # no reference to the group's models outlives their scoring, so the next group's fit reuses their memory
            for k, model, classes in zip(ks, *fit_group(family, binned, y_train, hp, ks, top)):
                rates = _rates(predict(model, X_test[:, :k]), y_test)
                scored[family, k] = (rates, float(np.mean(classes == y_train)))
    records = []
    for k in k_values:
        for family in MODEL_FAMILIES:
            (accuracy, sensitivity, specificity), train_accuracy = scored[family, k]
            records.append(
                FoldRecord(
                    version=version_value,
                    model=family.value,
                    k=k,
                    fold=fold,
                    accuracy=accuracy,
                    sensitivity=sensitivity,
                    specificity=specificity,
                    train_accuracy=train_accuracy,
                    selected_features=top[:k],
                    train_hash=train_hash,
                    test_hash=test_hash,
                )
            )
    return records


def run_sweep(
    cohort: Cohort,
    versions: tuple[Version, ...],
    k_values: tuple[int, ...],
    hp: Hyperparameters,
    seed: int,
    window: DiagnosisWindow = DEFAULT_WINDOW,
    far_days: int = FAR_DAYS_DEFAULT,
    margin: float = SOFT_MARGIN_DEFAULT,
    jobs: int = 1,
) -> EvaluationReport:
    """Train and score every (version, model, k, fold) cell on shared folds.

    The cohort must already have passed the inclusion filters. Results are
    independent of the job count: tasks are assembled in a fixed order and
    the fold plan and matrices are built once up front.
    """
    if not len(cohort):
        raise ValueError("empty cohort after inclusion filters")
    if not versions or not k_values:
        raise ValueError("need at least one labeling version and one k value")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    k_values = tuple(sorted(set(k_values)))
    labels = label_cohort(cohort, window, far_days, margin)
    matrices = {version: build_matrix(cohort, labels, version) for version in versions}
    first = matrices[versions[0]]
    if max(k_values) > len(first.column_names):
        raise ValueError(f"k={max(k_values)} exceeds column count {len(first.column_names)}")
    plan = make_fold_plan(first, seed)
    tasks = []
    for version in versions:
        matrix = matrices[version]
        for fold in range(plan.n_folds):
            tasks.append(
                (
                    version.value,
                    fold,
                    matrix.X,
                    matrix.y,
                    matrix.column_names,
                    plan.train_rows(fold),
                    plan.test_rows(fold),
                    k_values,
                    hp,
                )
            )
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_task = list(pool.map(_fold_task, tasks))
    else:
        per_task = [_fold_task(task) for task in tasks]
    records = [rec for batch in per_task for rec in batch]
    return EvaluationReport(
        records=records,
        fold_plan=plan,
        versions=tuple(v.value for v in versions),
        k_values=k_values,
        model_families=tuple(f.value for f in MODEL_FAMILIES),
        hp=hp,
        seed=seed,
        n_patients=len(first.patient_ids),
        n_deceased=int(first.y.sum()),
    )


# ---------------------------------------------------------------------------
# Cohort statistics (history-group vs living-status tables)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatsRow:
    stratum: str
    measure: str
    group: str
    n_patients: int
    n_deceased: int
    pct_deceased: float


def cohort_stats(
    cohort: Cohort,
    window: DiagnosisWindow = DEFAULT_WINDOW,
    margin: float = SOFT_MARGIN_DEFAULT,
) -> list[StatsRow]:
    """Deceased percentages per (measure, history group), overall and stratified.

    Patients lacking a measure are skipped for that measure's rows, so the
    table can be computed on a cohort that has not passed the all-measures
    panel filter. Strata: 'all', 'sex:F', 'sex:M', then 'age:<decade>'.
    """
    groups = history_groups(cohort, window, margin)
    deceased = died_within_follow_up(cohort.diagnosis, cohort.death)

    strata: list[tuple[str, np.ndarray]] = [("all", np.ones(len(cohort), dtype=bool))]
    for sex in ("F", "M"):
        strata.append((f"sex:{sex}", cohort.sex == sex))
    decades = age_group(cohort.age)
    for decade in sorted(set(decades.tolist())):
        strata.append((f"age:{decade}", decades == decade))

    rows = []
    for stratum_name, mask in strata:
        for j, measure in enumerate(MEASURES):
            # group 0 (no result for the measure) is counted and dropped
            in_stratum = groups[mask, j]
            totals = np.bincount(in_stratum, minlength=len(Group) + 1).tolist()
            deaths = np.bincount(in_stratum[deceased[mask]], minlength=len(Group) + 1).tolist()
            for group in Group:
                total, dead = totals[group.value], deaths[group.value]
                pct = 100.0 * dead / total if total else 0.0
                rows.append(
                    StatsRow(
                        stratum=stratum_name,
                        measure=measure.value,
                        group=group.name,
                        n_patients=total,
                        n_deceased=dead,
                        pct_deceased=pct,
                    )
                )
    return rows


def group_gap(rows: list[StatsRow], measure: Measure, stratum: str = "all") -> float:
    """G3 minus G1 deceased-percentage for one measure within one stratum."""
    by_group = {r.group: r for r in rows if r.stratum == stratum and r.measure == measure.value}
    return by_group[Group.G3_OOR_WITHIN_WINDOW.name].pct_deceased - by_group[Group.G1_NO_OOR.name].pct_deceased


# ---------------------------------------------------------------------------
# Feature consistency across folds
# ---------------------------------------------------------------------------


@dataclass
class ConsistencyReport:
    # k -> feature -> fraction of (version, fold) cells where the feature was selected
    fractions: dict[int, dict[str, float]] = field(default_factory=dict)
    # k -> mean top-k overlap size over all pairs of cells
    mean_pairwise_overlap: dict[int, float] = field(default_factory=dict)


def feature_consistency(report: EvaluationReport) -> ConsistencyReport:
    """Selection fraction per feature and mean pairwise top-k overlap, per k."""
    cells: dict[tuple[str, int, int], tuple[str, ...]] = {}
    for rec in report.records:
        cells.setdefault((rec.version, rec.fold, rec.k), rec.selected_features)
    n_cells_per_k = len(report.versions) * report.fold_plan.n_folds
    if n_cells_per_k < 2:
        raise ValueError("feature consistency needs at least 2 folds")
    out = ConsistencyReport()
    all_features: set[str] = set()
    for selected in cells.values():
        all_features.update(selected)
    for k in report.k_values:
        selections = [
            set(cells[(version, fold, k)])
            for version in report.versions
            for fold in range(report.fold_plan.n_folds)
        ]
        counts: dict[str, int] = {name: 0 for name in sorted(all_features)}
        for sel in selections:
            for name in sel:
                counts[name] += 1
        out.fractions[k] = {name: counts[name] / len(selections) for name in counts}
        overlaps = [
            len(selections[i] & selections[j])
            for i in range(len(selections))
            for j in range(i + 1, len(selections))
        ]
        out.mean_pairwise_overlap[k] = float(np.mean(overlaps))
    return out


# ---------------------------------------------------------------------------
# Plot-ready CSV emission
# ---------------------------------------------------------------------------


def write_results_csv(report: EvaluationReport, path: str | Path) -> None:
    rows = ([r.version, r.model, r.k, r.fold, r.accuracy, r.sensitivity, r.specificity] for r in report.records)
    write_csv(path, ["version", "model", "k", "fold", "accuracy", "sensitivity", "specificity"], rows)


def write_summary_csv(report: EvaluationReport, path: str | Path) -> None:
    write_csv(path, ["version", "model", "k", "mean_accuracy", "std"], report.summary())


def write_consistency_csv(report: EvaluationReport, path: str | Path) -> None:
    fractions = feature_consistency(report).fractions
    rows = ([feature, k, fractions[k][feature]] for k in report.k_values for feature in sorted(fractions[k]))
    write_csv(path, ["feature", "k", "selection_fraction"], rows)


def write_stats_csv(rows: list[StatsRow], path: str | Path) -> None:
    cells = ([r.stratum, r.measure, r.group, r.n_patients, r.n_deceased, r.pct_deceased] for r in rows)
    write_csv(path, ["stratum", "measure", "group", "n_patients", "n_deceased", "pct_deceased"], cells)
