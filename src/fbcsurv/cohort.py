"""Cohort data model, CSV ingestion, and inclusion filters.

A cohort is a set of cancer patients with demographics, a diagnosis date,
an optional death date, and a history of timestamped pathology observations.
Each observation carries its own laboratory reference range because normal
ranges vary by reporting laboratory.

Observations are stored column-wise: one record buffer per cohort holds the
measure code, value, date ordinal and range bounds of every result, grouped
by patient and in file order within a patient, and each patient's
`Observations` is a slice of it. No per-observation Python object is built.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from array import array
from dataclasses import dataclass, field
from datetime import date, timedelta
from enum import Enum
from itertools import repeat
from pathlib import Path

import numpy as np

FOLLOW_UP_DAYS = 730  # "2 years" fixed as 730 days; deterministic boundary

PATIENTS_COLUMNS = ["patient_id", "sex", "age_at_diagnosis", "diagnosis_date", "death_date"]
OBSERVATIONS_COLUMNS = ["patient_id", "measure", "value", "date", "ref_low", "ref_high"]


class Measure(Enum):
    """The five haematological measures tracked per patient."""

    PLATELETS = "PLATELETS"
    MCV = "MCV"
    MCH = "MCH"
    MCHC = "MCHC"
    RDW = "RDW"


MEASURES = tuple(Measure)
# measure -> its code in the observation columns (the panel-order index)
MEASURE_CODE = {m: code for code, m in enumerate(MEASURES)}


class Sex(Enum):
    MALE = "M"
    FEMALE = "F"


class SurvivalStatus(Enum):
    DECEASED_WITHIN_2Y = 1
    SURVIVED_2Y = 0


class CohortError(ValueError):
    """Raised when cohort files violate the schema or referential integrity.

    All problems found are kept in .problems; the message shows the first few.
    """

    _SHOWN = 3

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        message = "; ".join(self.problems[: self._SHOWN])
        if len(self.problems) > self._SHOWN:
            message += f" (+{len(self.problems) - self._SHOWN} more problems)"
        super().__init__(message)


@dataclass(frozen=True)
class ReferenceRange:
    """Laboratory-reported normal interval (the scalar form of an observation's ref_low/ref_high)."""

    low: float
    high: float

    def __post_init__(self):
        if not (self.low < self.high):
            raise ValueError(f"reference range inverted: low={self.low} >= high={self.high}")

    @property
    def width(self) -> float:
        return self.high - self.low


OBSERVATION_DTYPE = np.dtype(
    [("value", np.float64), ("ref_low", np.float64), ("ref_high", np.float64), ("day", np.int32), ("measure", np.int8)],
    align=True,
)


class Observations:
    """Pathology results column-wise in one read-only record buffer, in file order.

    Columns: `measure` (code into MEASURES), `value`, `day` (date ordinal,
    `date.toordinal()`), `ref_low` and `ref_high`. Each column is a view of
    the buffer; a patient's Observations is a slice of its cohort's buffer.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        if rows.dtype != OBSERVATION_DTYPE:
            raise TypeError(f"observation rows must have dtype {OBSERVATION_DTYPE}, got {rows.dtype}")
        rows = rows.view()
        rows.flags.writeable = False
        self.rows = rows

    @classmethod
    def from_columns(cls, measure, value, day, ref_low, ref_high) -> Observations:
        """Build from equal-length sequences: measure codes, values, date ordinals and range bounds."""
        rows = np.zeros(len(value), OBSERVATION_DTYPE)
        rows["measure"] = measure
        rows["value"] = value
        rows["day"] = day
        rows["ref_low"] = ref_low
        rows["ref_high"] = ref_high
        return cls(rows)

    @classmethod
    def concat(cls, parts: list[Observations]) -> Observations:
        if not parts:
            return cls(np.zeros(0, OBSERVATION_DTYPE))
        return cls(np.concatenate([p.rows for p in parts]))

    @property
    def measure(self) -> np.ndarray:
        return self.rows["measure"]

    @property
    def value(self) -> np.ndarray:
        return self.rows["value"]

    @property
    def day(self) -> np.ndarray:
        return self.rows["day"]

    @property
    def ref_low(self) -> np.ndarray:
        return self.rows["ref_low"]

    @property
    def ref_high(self) -> np.ndarray:
        return self.rows["ref_high"]

    def split(self, counts) -> list[Observations]:
        """Consecutive slices of the given lengths, e.g. one per patient; slices are views."""
        ends = np.cumsum(counts, dtype=np.int64).tolist()
        return [Observations(self.rows[start:end]) for start, end in zip([0, *ends], ends)]

    def measure_counts(self) -> np.ndarray:
        """Number of results per measure, in MEASURES order."""
        return np.bincount(self.measure, minlength=len(MEASURES))

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Observations):
            return NotImplemented
        return bool(np.array_equal(self.rows, other.rows))

    __hash__ = None  # equality is by content

    def __repr__(self) -> str:
        return f"Observations({len(self)} rows)"


@dataclass(frozen=True)
class PatientRecord:
    patient_id: str
    sex: Sex
    age_at_diagnosis: int
    diagnosis_date: date
    death_date: date | None
    observations: Observations = field(default_factory=lambda: Observations.from_columns([], [], [], [], []))
    # the per-patient labeling calls keep this record's label table here, per (window, far_days, margin)
    label_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def has_measure(self, measure: Measure) -> bool:
        return bool((self.observations.measure == MEASURE_CODE[measure]).any())

    def has_full_panel(self) -> bool:
        return bool(self.observations.measure_counts().all())


@dataclass(frozen=True)
class Cohort:
    """Immutable patient collection plus the last date covered by the extract."""

    patients: tuple[PatientRecord, ...]
    data_end_date: date

    def __len__(self) -> int:
        return len(self.patients)

    def patient_ids(self) -> tuple[str, ...]:
        return tuple(p.patient_id for p in self.patients)


@dataclass
class FilterReport:
    """Counts of patients removed per inclusion-filter reason."""

    removed_insufficient_followup: int = 0
    removed_incomplete_panel: int = 0
    retained: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "removed_insufficient_followup": self.removed_insufficient_followup,
            "removed_incomplete_panel": self.removed_incomplete_panel,
            "retained": self.retained,
        }

    def write(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def survival_label(patient: PatientRecord) -> SurvivalStatus:
    """Binary 2-year outcome: deceased iff death falls within 730 days of diagnosis."""
    if patient.death_date is not None and patient.death_date <= patient.diagnosis_date + timedelta(days=FOLLOW_UP_DAYS):
        return SurvivalStatus.DECEASED_WITHIN_2Y
    return SurvivalStatus.SURVIVED_2Y


def apply_inclusion_filters(cohort: Cohort) -> tuple[Cohort, FilterReport]:
    """Retain patients with >= 2 years of follow-up and results for all 5 measures.

    Returns a new cohort (input untouched) and a report of removals per reason.
    A patient failing both checks is counted under insufficient follow-up.
    """
    report = FilterReport()
    kept = []
    for patient in cohort.patients:
        if patient.diagnosis_date + timedelta(days=FOLLOW_UP_DAYS) > cohort.data_end_date:
            report.removed_insufficient_followup += 1
            continue
        if not patient.has_full_panel():
            report.removed_incomplete_panel += 1
            continue
        kept.append(patient)
    report.retained = len(kept)
    return Cohort(patients=tuple(kept), data_end_date=cohort.data_end_date), report


def apply_followup_filter(cohort: Cohort) -> Cohort:
    """Drop only the insufficient-follow-up patients (keeps incomplete panels).

    Used for history-group statistics, which are meaningful per measure even
    when a patient is missing some other measure.
    """
    kept = tuple(
        p for p in cohort.patients if p.diagnosis_date + timedelta(days=FOLLOW_UP_DAYS) <= cohort.data_end_date
    )
    return Cohort(patients=kept, data_end_date=cohort.data_end_date)


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------


def _parse_date(raw: str, file: str, line: int, fieldname: str, problems: list[str]) -> date | None:
    try:
        return date.fromisoformat(raw)
    except ValueError:
        problems.append(f"{file}:{line}: field '{fieldname}': unparseable date {raw!r}")
        return None


def _parse_float(raw: str, file: str, line: int, fieldname: str, problems: list[str]) -> float | None:
    try:
        value = float(raw)
    except ValueError:
        problems.append(f"{file}:{line}: field '{fieldname}': unparseable number {raw!r}")
        return None
    if not math.isfinite(value):
        problems.append(f"{file}:{line}: field '{fieldname}': non-finite number {raw!r}")
        return None
    return value


def _check_header(header: list[str] | None, expected: list[str], file: str, problems: list[str]) -> bool:
    if header != expected:
        problems.append(f"{file}:1: expected header {','.join(expected)}, got {header}")
        return False
    return True


def ingest_cohort(patients_file: str | Path, observations_file: str | Path, data_end_date: date) -> Cohort:
    """Parse and validate the two cohort CSVs into a Cohort.

    Every malformed row is reported with file, line, and field; nothing is
    silently dropped. All problems found are aggregated into one CohortError.
    Valid observation rows are appended to typed columns, not to objects.
    """
    patients_file = Path(patients_file)
    observations_file = Path(observations_file)
    problems: list[str] = []
    pfile = str(patients_file)
    ofile = str(observations_file)

    # patient_id -> (sex, age, diagnosis, death), in file order
    patients: dict[str, tuple[Sex, int, date, date | None]] = {}
    with open(patients_file, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not _check_header(header, PATIENTS_COLUMNS, pfile, problems):
            raise CohortError(problems)
        for line, row in enumerate(reader, start=2):
            if len(row) != len(PATIENTS_COLUMNS):
                problems.append(f"{pfile}:{line}: expected {len(PATIENTS_COLUMNS)} fields, got {len(row)}")
                continue
            pid, sex_raw, age_raw, diag_raw, death_raw = (v.strip() for v in row)
            if not pid:
                problems.append(f"{pfile}:{line}: field 'patient_id': empty")
                continue
            if pid in patients:
                problems.append(f"{pfile}:{line}: field 'patient_id': duplicate patient_id {pid!r}")
                continue
            try:
                sex = Sex(sex_raw)
            except ValueError:
                problems.append(f"{pfile}:{line}: field 'sex': must be M or F, got {sex_raw!r}")
                continue
            try:
                age = int(age_raw)
                if age < 0:
                    raise ValueError
            except ValueError:
                problems.append(f"{pfile}:{line}: field 'age_at_diagnosis': must be a non-negative integer, got {age_raw!r}")
                continue
            diagnosis = _parse_date(diag_raw, pfile, line, "diagnosis_date", problems)
            if diagnosis is None:
                continue
            death: date | None = None
            if death_raw:
                death = _parse_date(death_raw, pfile, line, "death_date", problems)
                if death is None:
                    continue
                if death < diagnosis:
                    problems.append(
                        f"{pfile}:{line}: field 'death_date': death_date {death.isoformat()} "
                        f"precedes diagnosis_date {diagnosis.isoformat()}"
                    )
                    continue
            patients[pid] = (sex, age, diagnosis, death)

    index = {pid: i for i, pid in enumerate(patients)}
    code_of = {m.value: code for m, code in MEASURE_CODE.items()}
    end_day = data_end_date.toordinal()
    day_of: dict[str, int] = {}  # date text -> ordinal; a cohort repeats a few thousand dates
    patient_col, measure_col, day_col = array("q"), array("b"), array("q")
    value_col, low_col, high_col = array("d"), array("d"), array("d")
    with open(observations_file, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not _check_header(header, OBSERVATIONS_COLUMNS, ofile, problems):
            raise CohortError(problems)
        for line, row in enumerate(reader, start=2):
            if len(row) != len(OBSERVATIONS_COLUMNS):
                problems.append(f"{ofile}:{line}: expected {len(OBSERVATIONS_COLUMNS)} fields, got {len(row)}")
                continue
            pid, measure_raw, value_raw, date_raw, low_raw, high_raw = map(str.strip, row)
            i = index.get(pid)
            if i is None:
                problems.append(f"{ofile}:{line}: field 'patient_id': unknown patient_id {pid!r}")
                continue
            code = code_of.get(measure_raw)
            if code is None:
                problems.append(f"{ofile}:{line}: field 'measure': unknown measure {measure_raw!r}")
                continue
            value = _parse_float(value_raw, ofile, line, "value", problems)
            day = day_of.get(date_raw)
            if day is None:
                obs_date = _parse_date(date_raw, ofile, line, "date", problems)
                if obs_date is not None:
                    day = day_of[date_raw] = obs_date.toordinal()
            low = _parse_float(low_raw, ofile, line, "ref_low", problems)
            high = _parse_float(high_raw, ofile, line, "ref_high", problems)
            if value is None or day is None or low is None or high is None:
                continue
            if value < 0:
                problems.append(f"{ofile}:{line}: field 'value': must be non-negative, got {value}")
                continue
            if low >= high:
                problems.append(f"{ofile}:{line}: field 'ref_low': reference range inverted, low={low} >= high={high}")
                continue
            if day > end_day:
                problems.append(
                    f"{ofile}:{line}: field 'date': observation date {date.fromordinal(day).isoformat()} "
                    f"is after data_end_date {data_end_date.isoformat()}"
                )
                continue
            patient_col.append(i)
            measure_col.append(code)
            value_col.append(value)
            day_col.append(day)
            low_col.append(low)
            high_col.append(high)

    if problems:
        raise CohortError(problems)

    patient_of = np.frombuffer(patient_col, dtype=np.int64)
    order = np.argsort(patient_of, kind="stable")  # group by patient, file order within one
    buffer = Observations.from_columns(
        *(np.frombuffer(col, dtype=dtype)[order] for col, dtype in (
            (measure_col, np.int8), (value_col, np.float64), (day_col, np.int64),
            (low_col, np.float64), (high_col, np.float64),
        ))
    )
    per_patient = buffer.split(np.bincount(patient_of, minlength=len(patients)))
    records = tuple(
        PatientRecord(
            patient_id=pid, sex=sex, age_at_diagnosis=age, diagnosis_date=diagnosis, death_date=death, observations=obs
        )
        for (pid, (sex, age, diagnosis, death)), obs in zip(patients.items(), per_patient)
    )
    return Cohort(patients=records, data_end_date=data_end_date)


def write_cohort(cohort: Cohort, out_dir: str | Path) -> None:
    """Write patients.csv, observations.csv, and meta.json for a cohort."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "patients.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PATIENTS_COLUMNS)
        for p in cohort.patients:
            writer.writerow(
                [
                    p.patient_id,
                    p.sex.value,
                    p.age_at_diagnosis,
                    p.diagnosis_date.isoformat(),
                    p.death_date.isoformat() if p.death_date else "",
                ]
            )
    names = [m.value for m in MEASURES]
    iso = functools.cache(lambda day: date.fromordinal(day).isoformat())
    with open(out / "observations.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(OBSERVATIONS_COLUMNS)
        for p in cohort.patients:
            o = p.observations
            # .tolist() gives Python floats, whose repr is the shortest round-trip text
            writer.writerows(
                zip(
                    repeat(p.patient_id),
                    map(names.__getitem__, o.measure.tolist()),
                    map(repr, o.value.tolist()),
                    map(iso, o.day.tolist()),
                    map(repr, o.ref_low.tolist()),
                    map(repr, o.ref_high.tolist()),
                )
            )
    with open(out / "meta.json", "w") as fh:
        json.dump({"data_end_date": cohort.data_end_date.isoformat()}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_cohort(in_dir: str | Path, data_end_date: date | None = None) -> Cohort:
    """Read a cohort directory written by write_cohort (or hand-built to the same schema)."""
    in_dir = Path(in_dir)
    if data_end_date is None:
        meta_path = in_dir / "meta.json"
        if not meta_path.exists():
            raise CohortError([f"{meta_path}: missing; pass data_end_date explicitly"])
        with open(meta_path) as fh:
            meta = json.load(fh)
        data_end_date = date.fromisoformat(meta["data_end_date"])
    return ingest_cohort(in_dir / "patients.csv", in_dir / "observations.csv", data_end_date)
