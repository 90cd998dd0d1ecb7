"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import pytest

from fbcsurv.cohort import (
    MEASURE_CODE,
    Cohort,
    Measure,
    MEASURES,
    Observations,
    PatientRecord,
    ReferenceRange,
    Sex,
)

BASE_RANGE = ReferenceRange(150.0, 450.0)
DIAGNOSIS = date(2012, 6, 1)
DATA_END = date(2018, 12, 31)


def make_patient(
    pid: str = "P1",
    sex: Sex = Sex.MALE,
    age: int = 65,
    diagnosis: date = DIAGNOSIS,
    death_offset: int | None = None,
    readings: list[tuple[Measure, float, int]] = (),
    range_: ReferenceRange = BASE_RANGE,
) -> PatientRecord:
    """Patient with observations given as (measure, value, day offset) triples, all on one range."""
    day0 = diagnosis.toordinal()
    observations = Observations.from_columns(
        [MEASURE_CODE[measure] for measure, _, _ in readings],
        [value for _, value, _ in readings],
        [day0 + offset for _, _, offset in readings],
        [range_.low] * len(readings),
        [range_.high] * len(readings),
    )
    death = diagnosis + timedelta(days=death_offset) if death_offset is not None else None
    return PatientRecord(
        patient_id=pid,
        sex=sex,
        age_at_diagnosis=age,
        diagnosis_date=diagnosis,
        death_date=death,
        observations=observations,
    )


def full_panel_readings(value: float = 300.0, offset: int = -10) -> list[tuple[Measure, float, int]]:
    return [(m, value, offset) for m in MEASURES]


def make_cohort(patients: list[PatientRecord], data_end: date = DATA_END) -> Cohort:
    return Cohort(patients=tuple(patients), data_end_date=data_end)


def write_csvs(tmp_path: Path, patients_text: str, observations_text: str) -> tuple[Path, Path]:
    patients = tmp_path / "patients.csv"
    observations = tmp_path / "observations.csv"
    patients.write_text(patients_text)
    observations.write_text(observations_text)
    return patients, observations


@pytest.fixture
def two_patient_files(tmp_path) -> tuple[Path, Path]:
    return write_csvs(
        tmp_path,
        "patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\n"
        "P1,M,67,2012-06-01,2012-09-09\n"
        "P2,F,58,2013-02-15,\n",
        "patient_id,measure,value,date,ref_low,ref_high\n"
        "P1,PLATELETS,500,2012-05-20,150,450\n"
        "P1,MCV,88,2012-05-20,80,98\n"
        "P2,PLATELETS,300,2013-02-01,150,450\n",
    )
