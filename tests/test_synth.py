import json

import numpy as np
import pytest

from fbcsurv.cohort import (
    MEASURES,
    Measure,
    SurvivalStatus,
    apply_inclusion_filters,
    ingest_cohort,
    read_cohort,
    survival_label,
    write_cohort,
)
from fbcsurv.labeling import Group, assign_group
from fbcsurv.synth import (
    DATA_END_DATE,
    MAX_PATIENTS,
    GeneratorConfig,
    generate,
    read_generator_config,
    write_generator_config,
)


def test_same_seed_identical_cohorts_and_files(tmp_path):
    cfg = GeneratorConfig(n_patients=40, seed=123)
    a = generate(cfg)
    b = generate(cfg)
    assert a == b
    write_cohort(a, tmp_path / "a")
    write_cohort(b, tmp_path / "b")
    for name in ("patients.csv", "observations.csv", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert generate(GeneratorConfig(n_patients=40, seed=124)) != a


def test_generated_cohorts_pass_ingestion(tmp_path):
    cohort = generate(GeneratorConfig(n_patients=35, seed=77))
    write_cohort(cohort, tmp_path)
    parsed = ingest_cohort(tmp_path / "patients.csv", tmp_path / "observations.csv", cohort.data_end_date)
    assert parsed == cohort  # ingest_cohort runs full validation
    assert read_cohort(tmp_path) == parsed  # through the cohort.npz sidecar


def test_all_patients_pass_inclusion_filters():
    cohort = generate(GeneratorConfig(n_patients=50, seed=8))
    filtered, report = apply_inclusion_filters(cohort)
    assert report.retained == 50
    assert report.removed_insufficient_followup == 0
    assert report.removed_incomplete_panel == 0
    assert len(filtered) == 50


def test_zero_oor_probability_makes_everyone_g1():
    cfg = GeneratorConfig(
        n_patients=30,
        seed=15,
        p_oor_given_risk={m: 0.0 for m in MEASURES},
        p_oor_given_no_risk={m: 0.0 for m in MEASURES},
    )
    cohort = generate(cfg)
    for patient in cohort.patients:
        for measure in Measure:
            assert assign_group(patient, measure) is Group.G1_NO_OOR


def test_observation_dates_never_exceed_data_end():
    cohort = generate(GeneratorConfig(n_patients=40, seed=16))
    assert cohort.data_end_date == DATA_END_DATE
    for patient in cohort.patients:
        assert patient.observations.day.max() <= cohort.data_end_date.toordinal()


def test_observation_counts_within_configured_range():
    cfg = GeneratorConfig(n_patients=25, seed=17, obs_count_range=(2, 4))
    cohort = generate(cfg)
    for patient in cohort.patients:
        counts = patient.observations.measure_counts()
        assert len(counts) == len(Measure)
        assert ((2 <= counts) & (counts <= 4)).all()


def test_group_mortality_within_three_standard_errors():
    cfg = GeneratorConfig(n_patients=2000, seed=5, sex_mortality_delta=0.0, female_g3_boost=0.0)
    cohort = generate(cfg)
    outcomes = {g: [] for g in Group}
    for patient in cohort.patients:
        g = assign_group(patient, cfg.anchor_measure)
        outcomes[g].append(survival_label(patient) is SurvivalStatus.DECEASED_WITHIN_2Y)
    for group, expected in zip(Group, cfg.p_death_2y_by_group):
        observed = np.array(outcomes[group], dtype=float)
        assert len(observed) >= 50
        se = (expected * (1.0 - expected) / len(observed)) ** 0.5
        assert abs(observed.mean() - expected) <= 3.0 * se


def test_default_config_reproduces_sex_pattern():
    cohort = generate(GeneratorConfig(n_patients=4000, seed=30))
    dead = {("M", False): [], ("M", True): [], ("F", False): [], ("F", True): []}
    for patient in cohort.patients:
        g3 = assign_group(patient, Measure.PLATELETS) is Group.G3_OOR_WITHIN_WINDOW
        died = survival_label(patient) is SurvivalStatus.DECEASED_WITHIN_2Y
        dead[(patient.sex.value, g3)].append(died)
    rate = {key: np.mean(vals) for key, vals in dead.items()}
    assert rate[("M", False)] > rate[("F", False)]  # higher male mortality off-window
    # the within-window jump is amplified for female patients
    assert rate[("F", True)] - rate[("F", False)] > rate[("M", True)] - rate[("M", False)]


def test_config_validation():
    with pytest.raises(ValueError, match="probabilities"):
        GeneratorConfig(p_latent_high_risk=1.5).validate()
    with pytest.raises(ValueError, match="obs_count_range"):
        GeneratorConfig(obs_count_range=(0, 5)).validate()
    with pytest.raises(ValueError, match="obs_count_range"):
        GeneratorConfig(obs_count_range=(5, 2)).validate()
    with pytest.raises(ValueError, match="range_jitter"):
        GeneratorConfig(range_jitter={**GeneratorConfig().range_jitter, Measure.MCV: (80, 75, 98, 100)}).validate()
    with pytest.raises(ValueError, match="n_patients"):
        generate(GeneratorConfig(n_patients=0))
    # the upper bound is checked by validation only: no cohort is generated at a large count
    for n in (0, MAX_PATIENTS + 1, 10**20):
        with pytest.raises(ValueError, match=f"^n_patients must lie in 1..{MAX_PATIENTS}, got {n}$"):
            GeneratorConfig(n_patients=n).validate()
    GeneratorConfig(n_patients=MAX_PATIENTS).validate()
    # a negative seed used to fail only in numpy's SeedSequence, with "expected non-negative integer"
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        generate(GeneratorConfig(n_patients=5, seed=-1))
    GeneratorConfig(seed=0).validate()


def test_config_json_roundtrip(tmp_path):
    cfg = GeneratorConfig(n_patients=99, seed=42, window_placement_bias=0.8)
    path = tmp_path / "config.json"
    write_generator_config(cfg, path)
    loaded = read_generator_config(path)
    assert loaded == cfg
    assert json.loads(path.read_text())["n_patients"] == 99
