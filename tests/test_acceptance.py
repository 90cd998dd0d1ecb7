"""Acceptance gate: one test per criterion, each printing a PASS line when it
holds (run with `pytest tests/test_acceptance.py -v -s`). Budgets are asserted
with time.perf_counter around the work under test.
"""

import time
from collections import Counter

import numpy as np
import pytest

from fbcsurv.classifiers import MODEL_FAMILIES, Hyperparameters, ModelFamily, fit_model, predict
from fbcsurv.cohort import MEASURES, Measure, ReferenceRange, apply_followup_filter, apply_inclusion_filters
from fbcsurv.evaluation import cohort_stats, feature_consistency, group_gap, run_sweep
from fbcsurv.labeling import Group, LABEL_MAX, VERSIONS, Version, assign_group, label_version
from fbcsurv.ranges import HardStatus, classify_value, soft_bounds
from fbcsurv.selection import chi2_statistic
from fbcsurv.synth import GeneratorConfig, generate
from fbcsurv.cli import main

from conftest import make_patient

PLATELET_RANGE = ReferenceRange(150.0, 450.0)


def _report(n: int, name: str) -> None:
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_soft_range_math():
    start = time.perf_counter()
    low, high = soft_bounds(PLATELET_RANGE)
    margin_low = low - PLATELET_RANGE.low
    margin_high = PLATELET_RANGE.high - high
    status_149 = classify_value(149.0, PLATELET_RANGE)
    status_150 = classify_value(150.0, PLATELET_RANGE)
    elapsed = time.perf_counter() - start
    assert margin_low == 7.5 and margin_high == 7.5
    assert (low, high) == (157.5, 442.5)
    assert status_149.hard is HardStatus.BELOW
    assert status_150.hard is HardStatus.IN_RANGE
    assert elapsed < 0.001
    _report(1, "soft-range math")


def _random_history(rng) -> list[tuple[Measure, float, int]]:
    readings = []
    for _ in range(int(rng.integers(1, 6))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            value = float(rng.uniform(160.0, 440.0))
        elif kind == 1:
            value = float(rng.choice([151.0, 155.0, 445.0, 449.0]))
        else:
            value = float(rng.choice([80.0, 149.0, 455.0, 700.0]))
        readings.append((Measure.PLATELETS, value, int(rng.integers(-400, 61))))
    return readings


def test_criterion_2_labeling_invariants_on_10000_patients():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    violations = 0
    for _ in range(10_000):
        readings = _random_history(rng)
        patient = make_patient(readings=readings)
        labels = {v: label_version(patient, Measure.PLATELETS, v) for v in VERSIONS}
        if labels[Version.V2] < labels[Version.V1]:
            violations += 1
        if labels[Version.V3] < labels[Version.V1]:
            violations += 1
        if any(not (1 <= labels[v] <= LABEL_MAX[v]) for v in VERSIONS):
            violations += 1
        if assign_group(patient, Measure.PLATELETS) is Group.G1_NO_OOR and not (
            labels[Version.V1] == labels[Version.V2] == labels[Version.V3] == 1
        ):
            violations += 1
        grown = make_patient(readings=readings + [(Measure.PLATELETS, 700.0, int(rng.integers(-400, 31)))])
        if any(label_version(grown, Measure.PLATELETS, v) < labels[v] for v in VERSIONS):
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10.0
    _report(2, "labeling invariants, 10k randomized patients")


def _chi2_brute(values, target):
    n = len(values)
    cells = Counter(zip(values, target))
    rows = Counter(values)
    cols = Counter(target)
    stat = 0.0
    for v in rows:
        for c in (0, 1):
            expected = rows[v] * cols[c] / n
            if expected > 0:
                stat += (cells.get((v, c), 0) - expected) ** 2 / expected
    return stat


def test_criterion_3_chi2_oracle_equivalence():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 80))
        x = rng.integers(0, 8, size=n)
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            continue
        assert abs(chi2_statistic(x, y) - _chi2_brute(x.tolist(), y.tolist())) <= 1e-9
        checked += 1
    x = np.array([1] * 10 + [2] * 10)
    y = np.array([0] * 10 + [1] * 10)
    assert chi2_statistic(x, y) == 20.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, "chi-squared oracle equivalence, 1000 columns")


@pytest.fixture(scope="module")
def shared_fold_sweep():
    cohort = generate(GeneratorConfig(n_patients=120, seed=40))
    filtered, _ = apply_inclusion_filters(cohort)
    report = run_sweep(
        filtered,
        versions=(Version.V1, Version.V3, Version.V5),
        k_values=(5, 10, 15),
        hp=Hyperparameters(ada_rounds=10, gbt_rounds=10),
        seed=40,
    )
    return report


def test_criterion_4_no_leakage_and_shared_folds(shared_fold_sweep):
    report = shared_fold_sweep
    plan = report.fold_plan
    for fold in range(plan.n_folds):
        train = set(plan.train_rows(fold).tolist())
        test = set(plan.test_rows(fold).tolist())
        assert train & test == set()
        assert train | test == set(range(report.n_patients))
    hashes_per_fold = {}
    for rec in report.records:
        hashes_per_fold.setdefault(rec.fold, set()).add((rec.train_hash, rec.test_hash))
    assert all(len(h) == 1 for h in hashes_per_fold.values())
    assert len({h for hs in hashes_per_fold.values() for h in hs}) == plan.n_folds
    _report(4, "no leakage, shared folds across all cells")


def test_criterion_5_planted_group_mortality_recovery():
    start = time.perf_counter()
    config = GeneratorConfig(
        n_patients=2000,
        seed=0,
        p_death_2y_by_group=(0.38, 0.46, 0.53),
        sex_mortality_delta=0.0,
        female_g3_boost=0.0,
    )
    cohort = generate(config)
    rows = cohort_stats(apply_followup_filter(cohort))
    gap = group_gap(rows, Measure.PLATELETS)
    elapsed = time.perf_counter() - start
    planted = (0.53 - 0.38) * 100.0
    assert gap > 0.0
    assert abs(gap - planted) <= 5.0
    assert elapsed < 30.0
    _report(5, f"planted mortality recovery: G3-G1 gap {gap:+.2f}pp vs planted {planted:.0f}pp")


def _best_margin(config: GeneratorConfig, seed: int) -> float:
    cohort = generate(config)
    filtered, _ = apply_inclusion_filters(cohort)
    report = run_sweep(
        filtered,
        versions=(Version.V1,),
        k_values=tuple(range(5, 26)),
        hp=Hyperparameters(),
        seed=seed,
        jobs=2,
    )
    best_mean = max(row[3] for row in report.summary())
    return best_mean - report.majority_baseline


def test_criterion_6_signal_detection():
    start = time.perf_counter()
    planted = GeneratorConfig(
        n_patients=2000,
        seed=11,
        p_death_2y_by_group=(0.1, 0.5, 0.9),
        p_oor_given_risk={m: 0.5 for m in MEASURES},
        window_placement_bias=0.9,
        sex_mortality_delta=0.0,
        female_g3_boost=0.0,
    )
    planted_margin = _best_margin(planted, seed=11)
    null = GeneratorConfig(
        n_patients=2000,
        seed=12,
        p_death_2y_by_group=(0.45, 0.45, 0.45),
        sex_mortality_delta=0.0,
        female_g3_boost=0.0,
    )
    null_margin = _best_margin(null, seed=12)
    elapsed = time.perf_counter() - start
    assert planted_margin >= 0.05
    assert null_margin < 0.03
    assert elapsed < 300.0
    _report(6, f"signal detection: planted {planted_margin*100:+.1f}pp, null {null_margin*100:+.1f}pp")


def test_criterion_7_classifier_sanity():
    start = time.perf_counter()
    X = np.array([[1], [1], [1], [3], [3], [3]])
    y = np.array([0, 0, 0, 1, 1, 1])
    hp = Hyperparameters(tree_min_leaf=1)
    for family in MODEL_FAMILIES:
        model = fit_model(family, X, y, hp)
        assert np.array_equal(predict(model, X), y), family.value

    rng = np.random.default_rng(700)
    Xr = rng.integers(0, 4, size=(120, 8))
    yr = rng.integers(0, 2, size=120)
    gbt = fit_model(ModelFamily.GBT, Xr, yr, Hyperparameters()).model
    for before, after in zip(gbt.train_losses, gbt.train_losses[1:]):
        assert after <= before + 1e-12
    ada = fit_model(ModelFamily.ADABOOST, Xr, yr, Hyperparameters()).model
    assert len(ada.weight_sums) >= 1
    for weight_sum in ada.weight_sums:
        assert abs(weight_sum - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(7, "classifier sanity: separable, loss monotone, weights normalized")


@pytest.mark.slow
def test_criterion_8_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    cohort_dir = tmp_path / "cohort"
    assert main(["synth", "--n", "472", "--seed", "7", "--out", str(cohort_dir)]) == 0
    outputs = {}
    for jobs in ("1", "8"):
        for attempt in ("a", "b"):
            out = tmp_path / f"eval_j{jobs}_{attempt}"
            code = main(
                [
                    "evaluate", "--in", str(cohort_dir), "--out", str(out),
                    "--seed", "7", "--jobs", jobs,
                ]
            )
            assert code == 0
            outputs[(jobs, attempt)] = {
                name: (out / name).read_bytes()
                for name in ("results.csv", "summary.csv", "consistency.csv")
            }
    assert outputs[("1", "a")] == outputs[("1", "b")]
    assert outputs[("8", "a")] == outputs[("8", "b")]
    assert outputs[("1", "a")] == outputs[("8", "a")]
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(8, f"end-to-end determinism at jobs 1 and 8 ({elapsed:.0f}s)")


def test_criterion_9_dominant_feature_consistency():
    risk = {m: (1.0 if m is Measure.PLATELETS else 0.3) for m in MEASURES}
    no_risk = {m: (0.0 if m is Measure.PLATELETS else 0.3) for m in MEASURES}
    config = GeneratorConfig(
        n_patients=472,
        seed=21,
        p_oor_given_risk=risk,
        p_oor_given_no_risk=no_risk,
        window_placement_bias=1.0,
        p_death_2y_by_group=(0.0, 0.5, 1.0),
        sex_mortality_delta=0.0,
        female_g3_boost=0.0,
    )
    cohort = generate(config)
    filtered, _ = apply_inclusion_filters(cohort)
    report = run_sweep(
        filtered,
        versions=(Version.V1,),
        k_values=tuple(range(5, 26)),
        hp=Hyperparameters(),
        seed=21,
        jobs=2,
    )
    consistency = feature_consistency(report)
    for k in report.k_values:
        assert consistency.fractions[k]["lbl_PLATELETS"] == 1.0
    _report(9, "dominant feature selected in all 10 folds at every k")
