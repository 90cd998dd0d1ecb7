"""Reference labeling for the oracle tests: one observation at a time.

This is the per-observation implementation fbcsurv used before labeling
became one vectorised pass (`fbcsurv.labeling.label_table`): each result is
classified with a scalar range rule, kept if it is not after the close
window's end, and turned into a candidate label per scheme; a pair's label is
the maximum candidate. It reads the columnar observations row by row and is
kept only to check the vectorised code against.
"""

from __future__ import annotations

from fbcsurv.cohort import MEASURE_CODE, MEASURES, Cohort, Measure, PatientRecord, SurvivalStatus, survival_label
from fbcsurv.evaluation import StatsRow
from fbcsurv.labeling import (
    DEFAULT_WINDOW,
    FAR_DAYS_DEFAULT,
    DiagnosisWindow,
    Group,
    MissingMeasureError,
    Version,
    VERSIONS,
)
from fbcsurv.ranges import SOFT_MARGIN_DEFAULT, HardStatus, RangeStatus, SoftStatus


def classify_value(value: float, low: float, high: float, margin: float) -> RangeStatus:
    if value < low:
        hard = HardStatus.BELOW
    elif value > high:
        hard = HardStatus.ABOVE
    else:
        hard = HardStatus.IN_RANGE
    m = margin * (high - low)
    soft_low, soft_high = low + m, high - m
    if value < soft_low:
        soft = SoftStatus.OUT_SOFT_LOW
    elif value > soft_high:
        soft = SoftStatus.OUT_SOFT_HIGH
    else:
        soft = SoftStatus.IN_SOFT
    return RangeStatus(hard=hard, soft=soft)


def _rows(patient: PatientRecord, measure: Measure):
    """(value, day ordinal, ref_low, ref_high) of each result of one measure, in file order."""
    obs = patient.observations
    code = MEASURE_CODE[measure]
    columns = (obs.measure.tolist(), obs.value.tolist(), obs.day.tolist(), obs.ref_low.tolist(), obs.ref_high.tolist())
    return [(value, day, low, high) for m, value, day, low, high in zip(*columns) if m == code]


def has_measure(patient: PatientRecord, measure: Measure) -> bool:
    return bool(_rows(patient, measure))


def _observation_statuses(
    patient: PatientRecord, measure: Measure, window: DiagnosisWindow, margin: float
) -> list[tuple[int, RangeStatus]]:
    out = []
    diagnosis = patient.diagnosis_date.toordinal()
    for value, day, low, high in _rows(patient, measure):
        offset = day - diagnosis
        if offset > window.end_offset_days:
            continue  # history ends at the close window's post-diagnosis edge
        out.append((offset, classify_value(value, low, high, margin)))
    return out


def assign_group(
    patient: PatientRecord,
    measure: Measure,
    window: DiagnosisWindow = DEFAULT_WINDOW,
    margin: float = SOFT_MARGIN_DEFAULT,
) -> Group:
    if not has_measure(patient, measure):
        raise MissingMeasureError(patient.patient_id, measure)
    group = Group.G1_NO_OOR
    for offset, status in _observation_statuses(patient, measure, window, margin):
        if not status.hard_out:
            continue
        if window.contains(offset):
            return Group.G3_OOR_WITHIN_WINDOW
        group = Group.G2_OOR_OUTSIDE_WINDOW
    return group


def _candidate(version: Version, offset: int, status: RangeStatus, window: DiagnosisWindow, far_days: int) -> int:
    in_window = window.contains(offset)
    if version is Version.V1:
        return 2 if status.hard_out and in_window else 1
    if version is Version.V2:
        return 2 if status.hard_out else 1
    if version is Version.V3:
        return 2 if status.hard_out and offset >= -far_days else 1
    if version is Version.V4:
        if status.hard_out and in_window:
            return 3
        if status.soft_out and offset < 0:
            return 2
        return 1
    if version is Version.V5:
        return 2 if status.soft_out else 1
    if version is Version.V6:
        if status.hard_out and in_window:
            return 3
        if status.soft_out and -far_days <= offset < window.start_offset_days:
            return 2
        return 1
    raise ValueError(f"unknown version {version}")


def label_version(
    patient: PatientRecord,
    measure: Measure,
    version: Version,
    window: DiagnosisWindow = DEFAULT_WINDOW,
    far_days: int = FAR_DAYS_DEFAULT,
    margin: float = SOFT_MARGIN_DEFAULT,
) -> int:
    if not has_measure(patient, measure):
        raise MissingMeasureError(patient.patient_id, measure)
    label = 1
    for offset, status in _observation_statuses(patient, measure, window, margin):
        label = max(label, _candidate(version, offset, status, window, far_days))
    return label


def label_patient(
    patient: PatientRecord,
    window: DiagnosisWindow = DEFAULT_WINDOW,
    far_days: int = FAR_DAYS_DEFAULT,
    margin: float = SOFT_MARGIN_DEFAULT,
) -> dict[Measure, dict[Version, int]]:
    labels: dict[Measure, dict[Version, int]] = {}
    for measure in Measure:
        if not has_measure(patient, measure):
            raise MissingMeasureError(patient.patient_id, measure)
        per_version = {v: 1 for v in VERSIONS}
        for offset, status in _observation_statuses(patient, measure, window, margin):
            for version in VERSIONS:
                cand = _candidate(version, offset, status, window, far_days)
                if cand > per_version[version]:
                    per_version[version] = cand
        labels[measure] = per_version
    return labels


def cohort_stats(
    cohort: Cohort, window: DiagnosisWindow = DEFAULT_WINDOW, margin: float = SOFT_MARGIN_DEFAULT
) -> list[StatsRow]:
    memberships = []
    for patient in cohort.patients:
        groups = {m: assign_group(patient, m, window, margin) for m in Measure if has_measure(patient, m)}
        deceased = int(survival_label(patient) is SurvivalStatus.DECEASED_WITHIN_2Y)
        memberships.append((deceased, groups))
    strata = [("all", lambda p: True), ("sex:F", lambda p: p.sex.value == "F"), ("sex:M", lambda p: p.sex.value == "M")]
    for decade in sorted({p.age_at_diagnosis // 10 for p in cohort.patients}):
        strata.append((f"age:{decade}", lambda p, d=decade: p.age_at_diagnosis // 10 == d))
    rows = []
    for stratum_name, member in strata:
        for measure in MEASURES:
            for group in Group:
                total = dead = 0
                for patient, (deceased, groups) in zip(cohort.patients, memberships):
                    if member(patient) and groups.get(measure) is group:
                        total += 1
                        dead += deceased
                pct = 100.0 * dead / total if total else 0.0
                rows.append(StatsRow(stratum_name, measure.value, group.name, total, dead, pct))
    return rows
