"""The vectorised labeling pass against the per-observation reference.

Random cohorts put values exactly on the hard and soft bounds and just
outside them, offsets exactly on the window edges, the far horizon and just
past the window's end, leave measures out, and vary the window, the far
horizon and the soft margin.
"""

from __future__ import annotations

import math
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from fbcsurv.cohort import MEASURE_CODE, MEASURES, Cohort, Observations, PatientRecord, Sex
from fbcsurv.evaluation import cohort_stats
from fbcsurv.labeling import (
    DEFAULT_WINDOW,
    FAR_DAYS_DEFAULT,
    VERSIONS,
    DiagnosisWindow,
    MissingMeasureError,
    assign_group,
    label_cohort,
    label_patient,
    label_version,
)
from fbcsurv.ranges import SOFT_MARGIN_DEFAULT

import labeling_reference as ref

DATA_END = date(2018, 12, 31)

windows = st.one_of(
    st.just(DEFAULT_WINDOW),
    st.tuples(st.integers(-200, 40), st.integers(1, 150)).map(lambda t: DiagnosisWindow(t[0], t[0] + t[1])),
)
far_days = st.one_of(st.just(FAR_DAYS_DEFAULT), st.integers(0, 400))
margins = st.one_of(st.just(SOFT_MARGIN_DEFAULT), st.sampled_from([0.0, 0.1, 0.3]), st.floats(-0.2, 0.7))
settings_ = st.tuples(windows, far_days, margins)


@st.composite
def readings(draw, measure, window, far, margin):
    """One result: (measure code, value, day offset, ref_low, ref_high)."""
    low = draw(st.floats(1.0, 400.0))
    high = low + draw(st.floats(0.5, 300.0))
    m = margin * (high - low)
    bounds = [low, high, low + m, high - m]
    edges = bounds + [math.nextafter(b, -math.inf) for b in bounds] + [math.nextafter(b, math.inf) for b in bounds]
    value = draw(st.one_of(st.sampled_from(edges), st.floats(0.0, 900.0)))
    special = [
        window.start_offset_days,
        window.start_offset_days - 1,
        window.end_offset_days,
        window.end_offset_days + 1,
        -far,
        -far - 1,
        -60,
        30,
        0,
        -1,
    ]
    offset = draw(st.one_of(st.sampled_from(special), st.integers(-800, 200)))
    return MEASURE_CODE[measure], value, offset, low, high


@st.composite
def patients(draw, pid, window, far, margin, full_panel):
    measures = list(MEASURES) if full_panel else []
    measures += draw(st.lists(st.sampled_from(MEASURES), max_size=8))
    rows = [draw(readings(m, window, far, margin)) for m in draw(st.permutations(measures))]
    diagnosis = date(2012, 6, 1) + timedelta(days=draw(st.integers(-1500, 1500)))
    death = draw(st.one_of(st.none(), st.integers(0, 1000)))
    return PatientRecord(
        patient_id=pid,
        sex=draw(st.sampled_from(Sex)),
        age_at_diagnosis=draw(st.integers(20, 99)),
        diagnosis_date=diagnosis,
        death_date=None if death is None else diagnosis + timedelta(days=death),
        observations=Observations.from_columns(
            [r[0] for r in rows],
            [r[1] for r in rows],
            [diagnosis.toordinal() + r[2] for r in rows],
            [r[3] for r in rows],
            [r[4] for r in rows],
        ),
    )


@st.composite
def cohorts(draw, full_panel):
    window, far, margin = draw(settings_)
    n = draw(st.integers(0, 6))
    members = tuple(draw(patients(f"P{i}", window, far, margin, full_panel)) for i in range(n))
    return Cohort(members, DATA_END), window, far, margin


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MissingMeasureError as exc:
        return ("missing", str(exc))


@settings(max_examples=300, deadline=None)
@given(cohorts(full_panel=False))
def test_per_patient_calls_match_reference(case):
    cohort, window, far, margin = case
    for patient in cohort.patients:
        assert _outcome(label_patient, patient, window, far, margin) == _outcome(
            ref.label_patient, patient, window, far, margin
        )
        for measure in MEASURES:
            assert _outcome(assign_group, patient, measure, window, margin) == _outcome(
                ref.assign_group, patient, measure, window, margin
            )
            for version in VERSIONS:
                assert _outcome(label_version, patient, measure, version, window, far, margin) == _outcome(
                    ref.label_version, patient, measure, version, window, far, margin
                )


@settings(max_examples=200, deadline=None)
@given(cohorts(full_panel=True))
def test_label_cohort_matches_reference(case):
    cohort, window, far, margin = case
    labels = label_cohort(cohort, window, far, margin)
    assert labels.patient_ids == cohort.patient_ids()
    for i, patient in enumerate(cohort.patients):
        expected = ref.label_patient(patient, window, far, margin)
        for j, measure in enumerate(MEASURES):
            assert labels.values[i, j].tolist() == [expected[measure][v] for v in VERSIONS]


@settings(max_examples=100, deadline=None)
@given(cohorts(full_panel=False))
def test_label_cohort_reports_first_missing_pair(case):
    cohort, window, far, margin = case
    expected = None
    for patient in cohort.patients:
        expected = _outcome(ref.label_patient, patient, window, far, margin)
        if isinstance(expected, tuple):
            break
    if isinstance(expected, tuple):
        with pytest.raises(MissingMeasureError) as excinfo:
            label_cohort(cohort, window, far, margin)
        assert str(excinfo.value) == expected[1]
    else:
        label_cohort(cohort, window, far, margin)


@settings(max_examples=200, deadline=None)
@given(cohorts(full_panel=False))
def test_cohort_stats_match_reference(case):
    cohort, window, _, margin = case
    assert cohort_stats(cohort, window, margin) == ref.cohort_stats(cohort, window, margin)
