"""History-window grouping and the six labeling schemes for patient-measure pairs.

Each observation of a measure earns a candidate label under a scheme; the
patient-measure label is the maximum candidate, so a more alarming reading
always takes priority. The close window defaults to 60 days before through
30 days after diagnosis (months fixed at 30 days); the far horizon for the
six-month schemes defaults to 180 days. Observations later than the close
window's end are ignored by every scheme.

`label_table` is the one implementation: a vectorised pass over a set of
patients' pooled observations. The cohort functions and the per-patient
functions (`label_patient`, `label_version`, `assign_group`) all call it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .cohort import MEASURE_CODE, MEASURES, Cohort, Measure, Observations, PatientRecord
from .ranges import SOFT_MARGIN_DEFAULT, range_codes

FAR_DAYS_DEFAULT = 180


class Group(Enum):
    """Out-of-range history relative to the close diagnosis window (hard range only)."""

    G1_NO_OOR = 1
    G2_OOR_OUTSIDE_WINDOW = 2
    G3_OOR_WITHIN_WINDOW = 3


class Version(Enum):
    V1 = "v1"
    V2 = "v2"
    V3 = "v3"
    V4 = "v4"
    V5 = "v5"
    V6 = "v6"


VERSIONS = tuple(Version)
VERSION_INDEX = {v: i for i, v in enumerate(VERSIONS)}
# column of the history group in a label table, after the six schemes
GROUP_COLUMN = len(VERSIONS)

# Highest label each scheme can produce (the hard-violation tiers of V4/V6 add a 3).
LABEL_MAX = {
    Version.V1: 2,
    Version.V2: 2,
    Version.V3: 2,
    Version.V4: 3,
    Version.V5: 2,
    Version.V6: 3,
}

# An observation's candidate label is 1 plus the weighted sum of the levels it
# reaches. Rows are the levels, in the order _pair_labels stacks them; columns
# are V1..V6 and then the history group. A level that adds a second tier
# (V4, V6, group) is always reached together with its first tier, so the
# maximum over observations is 1 + the sum of the levels any observation reaches.
_LEVEL_WEIGHTS = np.array(
    [
        # V1 V2 V3 V4 V5 V6 group
        [1, 0, 0, 1, 0, 1, 1],  # hard out of range inside the close window
        [0, 1, 0, 0, 0, 0, 1],  # hard out of range, any usable date
        [0, 0, 1, 0, 0, 0, 0],  # hard out of range within the far horizon
        [0, 0, 0, 1, 0, 0, 0],  # V4 tier 2: soft out before diagnosis, or tier 3
        [0, 0, 0, 0, 1, 0, 0],  # soft out of range, any usable date
        [0, 0, 0, 0, 0, 1, 0],  # V6 tier 2: soft out in the far band before the window, or tier 3
    ],
    dtype=np.int8,
)


@dataclass(frozen=True)
class DiagnosisWindow:
    """Close-to-diagnosis period as day offsets relative to the diagnosis date."""

    start_offset_days: int = -60
    end_offset_days: int = 30

    def __post_init__(self):
        if not (self.start_offset_days < self.end_offset_days):
            raise ValueError(
                f"window start {self.start_offset_days} must precede end {self.end_offset_days}"
            )

    def contains(self, offset_days: int) -> bool:
        return self.start_offset_days <= offset_days <= self.end_offset_days


DEFAULT_WINDOW = DiagnosisWindow()


class MissingMeasureError(ValueError):
    def __init__(self, patient_id: str, measure: Measure):
        super().__init__(f"patient {patient_id!r} has no observations for {measure.value}")


def _pair_labels(
    obs: Observations,
    offset: np.ndarray,
    pair: np.ndarray,
    n_pairs: int,
    window: DiagnosisWindow,
    far_days: int,
    margin: float,
) -> np.ndarray:
    """Maximum candidate label per pair, (n_pairs, 7): V1..V6, then the group; 1 for a pair without usable results."""
    hard, soft = range_codes(obs.value, obs.ref_low, obs.ref_high, margin)
    usable = offset <= window.end_offset_days  # history ends at the close window's post-diagnosis edge
    hard_usable = (hard != 0) & usable
    soft_usable = (soft != 0) & usable
    hard_window = hard_usable & (offset >= window.start_offset_days)
    far = offset >= -far_days
    levels = np.array(
        (
            hard_window,
            hard_usable,
            hard_usable & far,
            hard_window | (soft_usable & (offset < 0)),
            soft_usable,
            hard_window | (soft_usable & far & (offset < window.start_offset_days)),
        )
    )
    labels = np.ones((n_pairs, len(VERSIONS) + 1), dtype=np.int8)
    np.maximum.at(labels, pair, (_LEVEL_WEIGHTS.T @ levels).T + 1)
    return labels


def label_table(
    patients: tuple[PatientRecord, ...] | list[PatientRecord],
    window: DiagnosisWindow = DEFAULT_WINDOW,
    far_days: int = FAR_DAYS_DEFAULT,
    margin: float = SOFT_MARGIN_DEFAULT,
) -> tuple[np.ndarray, np.ndarray]:
    """Labels of every (patient, measure) pair in one vectorised pass.

    Returns `labels`, (n_patients, 5, 7) int8 indexed [patient, MEASURES
    position, VERSIONS position] with the history group's value (1..3) in
    column GROUP_COLUMN, and `counts`, (n_patients, 5), the number of results
    per pair. A pair with no results has count 0 and all labels 1.
    """
    n = len(patients)
    parts = [p.observations for p in patients]
    obs = Observations.concat(parts)
    patient_of = np.repeat(np.arange(n), [len(part) for part in parts])
    diagnosis_day = np.array([p.diagnosis_date.toordinal() for p in patients], dtype=np.int64)
    offset = obs.day - diagnosis_day[patient_of]
    pair = patient_of * len(MEASURES) + obs.measure
    labels = _pair_labels(obs, offset, pair, n * len(MEASURES), window, far_days, margin)
    counts = np.bincount(pair, minlength=n * len(MEASURES))
    return labels.reshape(n, len(MEASURES), len(VERSIONS) + 1), counts.reshape(n, len(MEASURES))


def _patient_labels(
    patient: PatientRecord, window: DiagnosisWindow, far_days: int, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """label_table for one patient, (5, 7) labels and (5,) counts, kept on the record per parameter set."""
    key = (window, far_days, margin)
    found = patient.label_memo.get(key)
    if found is None:
        obs = patient.observations
        offset = obs.day - patient.diagnosis_date.toordinal()
        found = (_pair_labels(obs, offset, obs.measure, len(MEASURES), window, far_days, margin), obs.measure_counts())
        patient.label_memo[key] = found
    return found


def _first_missing(patients, counts: np.ndarray) -> MissingMeasureError:
    i, j = np.argwhere(counts == 0)[0]
    return MissingMeasureError(patients[i].patient_id, MEASURES[j])


def history_groups(
    patients: tuple[PatientRecord, ...] | list[PatientRecord],
    window: DiagnosisWindow = DEFAULT_WINDOW,
    margin: float = SOFT_MARGIN_DEFAULT,
) -> np.ndarray:
    """Group value (1..3) per (patient, measure), (n_patients, 5); 0 where the patient has no result."""
    labels, counts = label_table(patients, window, FAR_DAYS_DEFAULT, margin)
    return np.where(counts > 0, labels[:, :, GROUP_COLUMN], 0)


def assign_group(
    patient: PatientRecord,
    measure: Measure,
    window: DiagnosisWindow = DEFAULT_WINDOW,
    margin: float = SOFT_MARGIN_DEFAULT,
) -> Group:
    """G3 if any hard violation inside the window, else G2 if any outside, else G1."""
    labels, counts = _patient_labels(patient, window, FAR_DAYS_DEFAULT, margin)
    code = MEASURE_CODE[measure]
    if not counts[code]:
        raise MissingMeasureError(patient.patient_id, measure)
    return Group(int(labels[code, GROUP_COLUMN]))


def label_version(
    patient: PatientRecord,
    measure: Measure,
    version: Version,
    window: DiagnosisWindow = DEFAULT_WINDOW,
    far_days: int = FAR_DAYS_DEFAULT,
    margin: float = SOFT_MARGIN_DEFAULT,
) -> int:
    """Label one patient-measure pair under one scheme (max candidate over observations)."""
    labels, counts = _patient_labels(patient, window, far_days, margin)
    code = MEASURE_CODE[measure]
    if not counts[code]:
        raise MissingMeasureError(patient.patient_id, measure)
    return int(labels[code, VERSION_INDEX[version]])


def label_patient(
    patient: PatientRecord,
    window: DiagnosisWindow = DEFAULT_WINDOW,
    far_days: int = FAR_DAYS_DEFAULT,
    margin: float = SOFT_MARGIN_DEFAULT,
) -> dict[Measure, dict[Version, int]]:
    """All six labels for every measure of one patient."""
    labels, counts = _patient_labels(patient, window, far_days, margin)
    if not counts.all():
        raise _first_missing([patient], counts[None])
    return {m: dict(zip(VERSIONS, row[: len(VERSIONS)])) for m, row in zip(MEASURES, labels.tolist())}


@dataclass(frozen=True, eq=False)
class CohortLabels:
    """Scheme labels of a cohort: `values[i, j, s]` is patient i's label for MEASURES[j] under VERSIONS[s]."""

    patient_ids: tuple[str, ...]
    values: np.ndarray  # (n_patients, 5, 6) small ints

    def __post_init__(self):
        if self.values.shape != (len(self.patient_ids), len(MEASURES), len(VERSIONS)):
            raise ValueError(f"label array shape {self.values.shape} does not match {len(self.patient_ids)} patients")

    def rows_for(self, patient_ids: tuple[str, ...]) -> np.ndarray:
        """(len(patient_ids), 5, 6) labels in the given patient order; KeyError for an unlabeled patient."""
        if patient_ids == self.patient_ids:
            return self.values
        index = {pid: i for i, pid in enumerate(self.patient_ids)}
        rows = []
        for pid in patient_ids:
            if pid not in index:
                raise KeyError(f"patient {pid!r} has no label vector")
            rows.append(index[pid])
        return self.values[np.asarray(rows, dtype=np.intp)]


def label_cohort(
    cohort: Cohort,
    window: DiagnosisWindow = DEFAULT_WINDOW,
    far_days: int = FAR_DAYS_DEFAULT,
    margin: float = SOFT_MARGIN_DEFAULT,
) -> CohortLabels:
    """Label vector per patient; requires every patient to have all five measures."""
    labels, counts = label_table(cohort.patients, window, far_days, margin)
    if not counts.all():
        raise _first_missing(cohort.patients, counts)
    return CohortLabels(patient_ids=cohort.patient_ids(), values=labels[:, :, : len(VERSIONS)])


def write_labels_csv(cohort: Cohort, labels: CohortLabels, path: str | Path) -> None:
    """labels.csv: one row per (patient, measure) with the six scheme labels."""
    names = [m.value for m in MEASURES]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["patient_id", "measure", *(v.value for v in VERSIONS)])
        for pid, per_measure in zip(cohort.patient_ids(), labels.rows_for(cohort.patient_ids()).tolist()):
            writer.writerows([pid, name, *row] for name, row in zip(names, per_measure))
