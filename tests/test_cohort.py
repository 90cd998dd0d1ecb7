from datetime import date

import pytest

from fbcsurv.cohort import (
    MEASURE_CODE,
    CohortError,
    Measure,
    MEASURES,
    SurvivalStatus,
    apply_followup_filter,
    apply_inclusion_filters,
    ingest_cohort,
    read_cohort,
    survival_label,
    write_cohort,
)

from conftest import DATA_END, full_panel_readings, make_cohort, make_patient, write_csvs


def test_ingest_two_patient_fixture(two_patient_files):
    patients_file, observations_file = two_patient_files
    cohort = ingest_cohort(patients_file, observations_file, date(2018, 12, 31))
    assert len(cohort) == 2
    p1 = cohort.patients[0]
    assert p1.patient_id == "P1"
    assert p1.death_date == date(2012, 9, 9)
    assert len(p1.observations) == 2
    assert p1.observations.ref_low[0] == 150.0
    assert p1.observations.measure.tolist() == [MEASURE_CODE[Measure.PLATELETS], MEASURE_CODE[Measure.MCV]]
    assert p1.observations.day.tolist() == [date(2012, 5, 20).toordinal()] * 2


def test_ingest_rejects_inverted_range(tmp_path):
    files = write_csvs(
        tmp_path,
        "patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\nP1,M,67,2012-06-01,\n",
        "patient_id,measure,value,date,ref_low,ref_high\nP1,PLATELETS,300,2012-05-20,450,150\n",
    )
    with pytest.raises(CohortError, match="range inverted"):
        ingest_cohort(*files, date(2018, 12, 31))
    try:
        ingest_cohort(*files, date(2018, 12, 31))
    except CohortError as exc:
        assert "observations.csv:2" in exc.problems[0]
        assert "ref_low" in exc.problems[0]


def test_ingest_rejects_unknown_patient(tmp_path):
    files = write_csvs(
        tmp_path,
        "patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\nP1,M,67,2012-06-01,\n",
        "patient_id,measure,value,date,ref_low,ref_high\nP9,PLATELETS,300,2012-05-20,150,450\n",
    )
    with pytest.raises(CohortError, match="unknown patient_id 'P9'"):
        ingest_cohort(*files, date(2018, 12, 31))


def test_ingest_rejects_duplicate_patient(tmp_path):
    files = write_csvs(
        tmp_path,
        "patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\n"
        "P1,M,67,2012-06-01,\nP1,F,58,2013-02-15,\n",
        "patient_id,measure,value,date,ref_low,ref_high\n",
    )
    with pytest.raises(CohortError, match="duplicate patient_id"):
        ingest_cohort(*files, date(2018, 12, 31))


@pytest.mark.parametrize(
    "patients_row, fragment",
    [
        ("P1,X,67,2012-06-01,", "must be M or F"),
        ("P1,M,-3,2012-06-01,", "age_at_diagnosis"),
        ("P1,M,67,June 2012,", "unparseable date"),
        ("P1,M,67,2012-06-01,2012-05-01", "precedes diagnosis_date"),
    ],
)
def test_ingest_rejects_bad_patient_rows(tmp_path, patients_row, fragment):
    files = write_csvs(
        tmp_path,
        f"patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\n{patients_row}\n",
        "patient_id,measure,value,date,ref_low,ref_high\n",
    )
    with pytest.raises(CohortError, match=fragment):
        ingest_cohort(*files, date(2018, 12, 31))


@pytest.mark.parametrize(
    "obs_row, fragment",
    [
        ("P1,PLT,300,2012-05-20,150,450", "unknown measure"),
        ("P1,PLATELETS,abc,2012-05-20,150,450", "unparseable number"),
        ("P1,PLATELETS,nan,2012-05-20,150,450", "non-finite"),
        ("P1,PLATELETS,-5,2012-05-20,150,450", "non-negative"),
        ("P1,PLATELETS,300,2019-05-20,150,450", "after data_end_date"),
    ],
)
def test_ingest_rejects_bad_observation_rows(tmp_path, obs_row, fragment):
    files = write_csvs(
        tmp_path,
        "patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\nP1,M,67,2012-06-01,\n",
        f"patient_id,measure,value,date,ref_low,ref_high\n{obs_row}\n",
    )
    with pytest.raises(CohortError, match=fragment):
        ingest_cohort(*files, date(2018, 12, 31))


def test_ingest_rejects_wrong_header(tmp_path):
    files = write_csvs(tmp_path, "id,sex\nP1,M\n", "patient_id,measure,value,date,ref_low,ref_high\n")
    with pytest.raises(CohortError, match="expected header"):
        ingest_cohort(*files, date(2018, 12, 31))


def test_error_message_stays_one_line(tmp_path):
    rows = "\n".join(f"P{i},X,67,2012-06-01," for i in range(50))
    files = write_csvs(
        tmp_path,
        f"patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\n{rows}\n",
        "patient_id,measure,value,date,ref_low,ref_high\n",
    )
    with pytest.raises(CohortError) as excinfo:
        ingest_cohort(*files, date(2018, 12, 31))
    assert "\n" not in str(excinfo.value)
    assert "+47 more problems" in str(excinfo.value)
    assert len(excinfo.value.problems) == 50


def test_filters_retain_complete_followed_up_patient():
    patient = make_patient(diagnosis=date(2015, 1, 1), readings=full_panel_readings())
    filtered, report = apply_inclusion_filters(make_cohort([patient]))
    assert len(filtered) == 1
    assert report.to_dict() == {
        "removed_insufficient_followup": 0,
        "removed_incomplete_panel": 0,
        "retained": 1,
    }


def test_filters_remove_short_followup():
    patient = make_patient(diagnosis=date(2018, 6, 1), readings=full_panel_readings())
    filtered, report = apply_inclusion_filters(make_cohort([patient]))
    assert len(filtered) == 0
    assert report.removed_insufficient_followup == 1


def test_filters_remove_incomplete_panel():
    readings = [(m, 300.0, -10) for m in MEASURES if m is not Measure.RDW]
    patient = make_patient(readings=readings)
    filtered, report = apply_inclusion_filters(make_cohort([patient]))
    assert len(filtered) == 0
    assert report.removed_incomplete_panel == 1


def test_filters_are_idempotent_and_nonmutating():
    patients = [
        make_patient("P1", readings=full_panel_readings()),
        make_patient("P2", diagnosis=date(2018, 6, 1), readings=full_panel_readings()),
        make_patient("P3", readings=[(Measure.MCV, 88.0, -5)]),
    ]
    cohort = make_cohort(patients)
    once, _ = apply_inclusion_filters(cohort)
    twice, report = apply_inclusion_filters(once)
    assert once == twice
    assert report.retained == len(once)
    assert len(cohort) == 3  # input untouched


def test_retained_patients_have_full_panel():
    patients = [
        make_patient("P1", readings=full_panel_readings()),
        make_patient("P2", readings=full_panel_readings() + [(Measure.MCV, 90.0, -40)]),
    ]
    filtered, _ = apply_inclusion_filters(make_cohort(patients))
    for patient in filtered.patients:
        assert len(patient.observations) >= 5
        assert all(patient.has_measure(m) for m in MEASURES)
        assert patient.has_full_panel()


def test_followup_only_filter_keeps_incomplete_panels():
    patients = [
        make_patient("P1", readings=[(Measure.MCV, 88.0, -5)]),
        make_patient("P2", diagnosis=date(2018, 6, 1), readings=full_panel_readings()),
    ]
    kept = apply_followup_filter(make_cohort(patients))
    assert kept.patient_ids() == ("P1",)


@pytest.mark.parametrize(
    "death_offset, expected",
    [
        (100, SurvivalStatus.DECEASED_WITHIN_2Y),
        (None, SurvivalStatus.SURVIVED_2Y),
        (730, SurvivalStatus.DECEASED_WITHIN_2Y),
        (731, SurvivalStatus.SURVIVED_2Y),  # just past the 730-day boundary
    ],
)
def test_survival_label_boundary(death_offset, expected):
    patient = make_patient(death_offset=death_offset, readings=full_panel_readings())
    assert survival_label(patient) is expected


def test_roundtrip_write_read(tmp_path):
    from fbcsurv.synth import GeneratorConfig, generate

    cohort = generate(GeneratorConfig(n_patients=25, seed=42))
    write_cohort(cohort, tmp_path)
    again = read_cohort(tmp_path)
    assert again == cohort
    write_cohort(again, tmp_path / "second")
    assert (tmp_path / "patients.csv").read_bytes() == (tmp_path / "second" / "patients.csv").read_bytes()
    assert (tmp_path / "observations.csv").read_bytes() == (tmp_path / "second" / "observations.csv").read_bytes()


def test_read_cohort_requires_end_date(tmp_path):
    write_csvs(
        tmp_path,
        "patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\n",
        "patient_id,measure,value,date,ref_low,ref_high\n",
    )
    with pytest.raises(CohortError, match="meta.json"):
        read_cohort(tmp_path)
    cohort = read_cohort(tmp_path, data_end_date=DATA_END)
    assert len(cohort) == 0
