from datetime import date

import numpy as np
import pytest

from fbcsurv import evaluation
from fbcsurv.classifiers import Hyperparameters, ModelFamily, fit_model, predict
from fbcsurv.cohort import Measure, apply_inclusion_filters
from fbcsurv.evaluation import (
    cohort_stats,
    feature_consistency,
    group_gap,
    make_fold_plan,
    run_sweep,
    write_consistency_csv,
    write_results_csv,
    write_stats_csv,
    write_summary_csv,
)
from fbcsurv.features import FeatureMatrix, build_matrix
from fbcsurv.labeling import Group, Version, label_cohort
from fbcsurv.synth import GeneratorConfig, generate

from conftest import full_panel_readings, make_cohort, make_patient

FAST_HP = Hyperparameters(ada_rounds=10, gbt_rounds=15)


def _matrix(y):
    y = np.asarray(y, dtype=np.int64)
    X = np.zeros((len(y), 2), dtype=np.int64)
    return FeatureMatrix(
        column_names=("a", "b"),
        patient_ids=tuple(f"P{i}" for i in range(len(y))),
        X=X,
        y=y,
    )


def test_fold_plan_exact_divisibility():
    y = np.array([1] * 40 + [0] * 60)
    plan = make_fold_plan(_matrix(y), seed=5)
    for fold in range(10):
        rows = plan.test_rows(fold)
        assert len(rows) == 10
        assert y[rows].sum() == 4


def test_fold_plan_deterministic_in_seed():
    y = np.array([0, 1] * 30)
    a = make_fold_plan(_matrix(y), seed=9)
    b = make_fold_plan(_matrix(y), seed=9)
    c = make_fold_plan(_matrix(y), seed=10)
    assert np.array_equal(a.fold_of, b.fold_of)
    assert not np.array_equal(a.fold_of, c.fold_of)


def test_fold_plan_47_rows():
    y = np.array([1] * 20 + [0] * 27)
    plan = make_fold_plan(_matrix(y), seed=1)
    sizes = sorted(len(plan.test_rows(f)) for f in range(10))
    assert set(sizes) <= {4, 5}
    assert sum(sizes) == 47
    # class proportions within one patient of global per fold
    for fold in range(10):
        positives = y[plan.test_rows(fold)].sum()
        assert positives in (2, 3)


def test_fold_plan_errors():
    with pytest.raises(ValueError, match="fewer rows"):
        make_fold_plan(_matrix([0, 1, 0, 1]), seed=0)
    with pytest.raises(ValueError, match="both classes"):
        make_fold_plan(_matrix([1] * 20), seed=0)


def test_fold_plan_partitions_without_leakage():
    y = np.array([0, 1] * 26)
    plan = make_fold_plan(_matrix(y), seed=3)
    all_rows = []
    for fold in range(10):
        train = set(plan.train_rows(fold).tolist())
        test = set(plan.test_rows(fold).tolist())
        assert train & test == set()
        assert train | test == set(range(52))
        all_rows.extend(test)
    assert sorted(all_rows) == list(range(52))


@pytest.fixture(scope="module")
def small_sweep():
    cohort = generate(GeneratorConfig(n_patients=80, seed=14))
    filtered, _ = apply_inclusion_filters(cohort)
    report = run_sweep(
        filtered,
        versions=(Version.V1, Version.V4),
        k_values=(5, 6, 7),
        hp=FAST_HP,
        seed=14,
    )
    return filtered, report


def test_sweep_record_grid(small_sweep):
    _, report = small_sweep
    assert len(report.records) == 2 * 10 * 3 * 3  # versions x folds x k x models
    seen = {(r.version, r.model, r.k, r.fold) for r in report.records}
    assert len(seen) == len(report.records)
    for rec in report.records:
        assert 0.0 <= rec.accuracy <= 1.0
        assert len(rec.selected_features) == rec.k


def test_sweep_shared_folds_across_cells(small_sweep):
    _, report = small_sweep
    by_fold = {}
    for rec in report.records:
        key = rec.fold
        by_fold.setdefault(key, set()).add((rec.train_hash, rec.test_hash))
    for hashes in by_fold.values():
        assert len(hashes) == 1  # same partition for every (version, model, k)


def test_sweep_accuracy_matches_independent_recount(small_sweep):
    filtered, report = small_sweep
    labels = label_cohort(filtered)
    matrices = {v: build_matrix(filtered, labels, Version(v)) for v in report.versions}
    plan = report.fold_plan
    for rec in report.records[:: max(1, len(report.records) // 7)]:
        matrix = matrices[rec.version]
        train = plan.train_rows(rec.fold)
        test = plan.test_rows(rec.fold)
        cols = [matrix.column_index(name) for name in rec.selected_features]
        model = fit_model(
            ModelFamily(rec.model), matrix.X[np.ix_(train, cols)], matrix.y[train], FAST_HP, rec.selected_features
        )
        pred = predict(model, matrix.X[np.ix_(test, cols)])
        correct = sum(int(p == t) for p, t in zip(pred.tolist(), matrix.y[test].tolist()))
        assert rec.accuracy == correct / len(test)


def test_sweep_deterministic_and_jobs_independent(small_sweep):
    filtered, report = small_sweep
    again = run_sweep(filtered, versions=(Version.V1, Version.V4), k_values=(5, 6, 7), hp=FAST_HP, seed=14)
    parallel = run_sweep(
        filtered, versions=(Version.V1, Version.V4), k_values=(5, 6, 7), hp=FAST_HP, seed=14, jobs=2
    )
    assert report.records == again.records
    assert report.records == parallel.records


@pytest.mark.parametrize("budget", [1, 10**9], ids=["every_model_alone", "one_group_per_family"])
def test_sweep_records_do_not_depend_on_the_group_budget(small_sweep, monkeypatch, budget):
    filtered, report = small_sweep
    monkeypatch.setattr(evaluation, "LOCKSTEP_GROUP_ELEMENTS", budget)
    again = run_sweep(filtered, versions=(Version.V1, Version.V4), k_values=(5, 6, 7), hp=FAST_HP, seed=14)
    assert again.records == report.records


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size and runs tasks in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_sweep_pool_never_exceeds_the_task_count(small_sweep, monkeypatch):
    filtered, report = small_sweep
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", _RecordingPool)
    one_version = run_sweep(filtered, versions=(Version.V1,), k_values=(5, 6, 7), hp=FAST_HP, seed=14, jobs=64)
    both = run_sweep(filtered, versions=(Version.V1, Version.V4), k_values=(5, 6, 7), hp=FAST_HP, seed=14, jobs=3)
    assert _RecordingPool.sizes == [10, 3]
    assert both.records == report.records
    assert one_version.records == [r for r in report.records if r.version == "v1"]


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_rejects_non_positive_jobs(small_sweep, jobs):
    filtered, _ = small_sweep
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_sweep(filtered, versions=(Version.V1,), k_values=(5,), hp=FAST_HP, seed=14, jobs=jobs)


def test_sweep_summary_aggregates_folds(small_sweep):
    _, report = small_sweep
    summary = report.summary()
    assert len(summary) == 2 * 3 * 3
    row = summary[0]
    accs = [r.accuracy for r in report.records if (r.version, r.model, r.k) == (row[0], row[1], row[2])]
    assert row[3] == pytest.approx(np.mean(accs))
    assert row[4] == pytest.approx(np.std(accs))


def test_sweep_training_accuracy_sanity_channel():
    # distinct rows + unbounded tree: perfect memorization on train, not on test
    from fbcsurv.cohort import MEASURES

    cfg = GeneratorConfig(
        n_patients=30,
        seed=16,
        p_latent_high_risk=0.5,
        p_oor_given_risk={m: 0.6 for m in MEASURES},
        p_oor_given_no_risk={m: 0.3 for m in MEASURES},
    )
    filtered, _ = apply_inclusion_filters(generate(cfg))
    labels = label_cohort(filtered)
    matrix = build_matrix(filtered, labels, Version.V1)
    assert len(np.unique(matrix.X, axis=0)) == len(matrix.X)
    report = run_sweep(
        filtered,
        versions=(Version.V1,),
        k_values=(88,),
        hp=Hyperparameters(tree_max_depth=None, tree_min_leaf=1, ada_rounds=5, gbt_rounds=5),
        seed=16,
    )
    tree_records = [r for r in report.records if r.model == "decision_tree"]
    assert all(r.train_accuracy == 1.0 for r in tree_records)
    assert any(r.accuracy < 1.0 for r in tree_records)


def test_sweep_rejects_empty_cohort():
    cohort = make_cohort([], data_end=date(2018, 12, 31))
    with pytest.raises(ValueError, match="empty cohort after inclusion filters"):
        run_sweep(cohort, versions=(Version.V1,), k_values=(5,), hp=FAST_HP, seed=0)


def test_sweep_rejects_oversized_k(small_sweep):
    filtered, _ = small_sweep
    with pytest.raises(ValueError, match="exceeds column count"):
        run_sweep(filtered, versions=(Version.V1,), k_values=(89,), hp=FAST_HP, seed=0)


def test_csv_writers_deterministic(small_sweep, tmp_path):
    _, report = small_sweep
    for writer, name in [
        (write_results_csv, "results.csv"),
        (write_summary_csv, "summary.csv"),
        (write_consistency_csv, "consistency.csv"),
    ]:
        writer(report, tmp_path / name)
        writer(report, tmp_path / ("again_" + name))
        assert (tmp_path / name).read_bytes() == (tmp_path / ("again_" + name)).read_bytes()
    header = (tmp_path / "results.csv").read_text().splitlines()[0]
    assert header == "version,model,k,fold,accuracy,sensitivity,specificity"
    assert (tmp_path / "summary.csv").read_text().splitlines()[0] == "version,model,k,mean_accuracy,std"
    assert (tmp_path / "consistency.csv").read_text().splitlines()[0] == "feature,k,selection_fraction"


# ---------------------------------------------------------------------------
# cohort statistics
# ---------------------------------------------------------------------------


def test_stats_all_alive_g1_cohort():
    patients = [make_patient(f"P{i}", readings=full_panel_readings()) for i in range(4)]
    rows = cohort_stats(make_cohort(patients))
    assert all(r.pct_deceased == 0.0 for r in rows)
    g1_all = [r for r in rows if r.stratum == "all" and r.group == Group.G1_NO_OOR.name]
    assert all(r.n_patients == 4 for r in g1_all)


def test_stats_counts_sum_to_cohort_size_on_full_panel():
    cohort = generate(GeneratorConfig(n_patients=60, seed=2))
    rows = cohort_stats(cohort)
    for measure in Measure:
        total = sum(r.n_patients for r in rows if r.stratum == "all" and r.measure == measure.value)
        assert total == 60


def test_stats_match_brute_force_recount():
    from fbcsurv.cohort import SurvivalStatus, survival_label
    from fbcsurv.labeling import assign_group

    cohort = generate(GeneratorConfig(n_patients=120, seed=6))
    rows = cohort_stats(cohort)
    for row in rows:
        if row.stratum == "all":
            measure = Measure(row.measure)
            members = [
                p
                for p in cohort.patients
                if p.has_measure(measure) and assign_group(p, measure).name == row.group
            ]
            dead = sum(survival_label(p) is SurvivalStatus.DECEASED_WITHIN_2Y for p in members)
            assert row.n_patients == len(members)
            assert row.n_deceased == dead
            expected_pct = 100.0 * dead / len(members) if members else 0.0
            assert row.pct_deceased == expected_pct


def test_stats_strata_present_and_writer(tmp_path):
    cohort = generate(GeneratorConfig(n_patients=50, seed=3))
    rows = cohort_stats(cohort)
    strata = {r.stratum for r in rows}
    assert "all" in strata and "sex:F" in strata and "sex:M" in strata
    assert any(s.startswith("age:") for s in strata)
    write_stats_csv(rows, tmp_path / "stats.csv")
    lines = (tmp_path / "stats.csv").read_text().splitlines()
    assert lines[0] == "stratum,measure,group,n_patients,n_deceased,pct_deceased"
    assert len(lines) == 1 + len(rows)


def test_group_gap_helper():
    cohort = generate(GeneratorConfig(n_patients=300, seed=4, sex_mortality_delta=0.0, female_g3_boost=0.0))
    rows = cohort_stats(cohort)
    gap = group_gap(rows, Measure.PLATELETS)
    g3 = next(
        r for r in rows if r.stratum == "all" and r.measure == "PLATELETS" and r.group == Group.G3_OOR_WITHIN_WINDOW.name
    )
    g1 = next(
        r for r in rows if r.stratum == "all" and r.measure == "PLATELETS" and r.group == Group.G1_NO_OOR.name
    )
    assert gap == g3.pct_deceased - g1.pct_deceased


# ---------------------------------------------------------------------------
# feature consistency
# ---------------------------------------------------------------------------


def test_feature_consistency_fractions(small_sweep):
    _, report = small_sweep
    consistency = feature_consistency(report)
    for k in report.k_values:
        fractions = consistency.fractions[k]
        assert all(0.0 <= f <= 1.0 for f in fractions.values())
        # total selections across features must equal k per cell
        n_cells = len(report.versions) * 10
        assert sum(fractions.values()) * n_cells == pytest.approx(k * n_cells)
        assert 0.0 <= consistency.mean_pairwise_overlap[k] <= k


def test_feature_consistency_identical_rankings():
    # single dominant column: selected in every fold at k=1
    rng = np.random.default_rng(19)
    y = np.array([0, 1] * 30)
    planted = y + 1
    noise = rng.integers(1, 3, size=(60, 4))
    X = np.column_stack([planted, noise]).astype(np.int64)
    matrix = FeatureMatrix(
        column_names=("planted", "n1", "n2", "n3", "n4"),
        patient_ids=tuple(f"P{i}" for i in range(60)),
        X=X,
        y=y,
    )
    from fbcsurv.selection import select_top_k

    plan = make_fold_plan(matrix, seed=1)
    selections = [select_top_k(matrix, 1, rows=plan.train_rows(f)).selected for f in range(10)]
    assert all(sel == ("planted",) for sel in selections)
