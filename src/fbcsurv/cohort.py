"""Cohort data model, CSV ingestion, and inclusion filters.

A cohort is a set of cancer patients with demographics, a diagnosis date,
an optional death date, and a history of timestamped pathology observations.
Each observation carries its own laboratory reference range because normal
ranges vary by reporting laboratory.

A `Cohort` is columns: one entry per patient for the id, sex, age, diagnosis
and death date ordinals and result count, and one record buffer that holds
the measure code, value, date ordinal and range bounds of every result,
grouped by patient and in file order within a patient. Reading, filtering,
labeling and writing work on these columns; `Cohort.of` and
`Cohort.patients` are the one conversion from and to per-patient
`PatientRecord`s, whose `Observations` are slices of the buffer.

Every `write_cohort` also saves the validated columns as `cohort.npz`, a
sidecar that holds the sha256 of the two CSVs it mirrors. `read_cohort` loads
the sidecar instead of parsing when both hashes match the CSVs on disk and a
vectorised re-check of the parser's row rules passes; otherwise it parses the
CSVs with `ingest_cohort`, so its results and error messages do not depend on
whether a sidecar exists. Given a `source` directory whose sidecar holds the
very columns being written, `write_cohort` copies that directory's CSVs
instead of serialising them again.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import shutil
import zipfile
from array import array
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .tables import csv_rows, write_csv, write_json

FOLLOW_UP_DAYS = 730  # "2 years" fixed as 730 days; deterministic boundary

SIDECAR = "cohort.npz"
# write_cohort copies a source's CSVs instead of serialising them when the
# source's sidecar of this version holds the same arrays; that proves the CSVs
# only while the text write_cohort makes of those arrays stays the same. Bump
# the version whenever the sidecar layout or the CSV text format changes.
# Version 2 saves the observation records as their raw bytes.
SIDECAR_VERSION = 2
SIDECAR_ARRAYS = ("rows", "counts", "patient_id", "sex", "age", "diagnosis", "death")
CSV_FILES = ("patients.csv", "observations.csv")
NO_DEATH = 0  # death ordinal of a patient without a death date; real ordinals start at 1
INT64 = np.iinfo(np.int64)  # the range of the age column

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


OBSERVATION_DTYPE = np.dtype(
    [("value", np.float64), ("ref_low", np.float64), ("ref_high", np.float64), ("day", np.int32), ("measure", np.int8)],
    align=True,
)
# the records as opaque items: copying a structured array copies it field by field and leaves padding unset
_RECORD = np.dtype((np.void, OBSERVATION_DTYPE.itemsize))


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


# a patient's (sex, age, diagnosis ordinal, death ordinal), as the Cohort columns of those names hold them
PATIENT_DTYPE = np.dtype([("sex", "U1"), ("age", np.int64), ("diagnosis", np.int64), ("death", np.int64)])
_PATIENT_ARRAYS = (*PATIENT_DTYPE.names, "counts")  # the Cohort columns that are numpy arrays


def patient_columns(rows) -> dict[str, np.ndarray]:
    """The sex, age, diagnosis and death columns of a cohort, from one PATIENT_DTYPE tuple per patient."""
    table = np.array(rows, dtype=PATIENT_DTYPE)
    return {name: table[name].copy() for name in PATIENT_DTYPE.names}


@dataclass(frozen=True, eq=False)
class Cohort:
    """Immutable patient collection, column-wise, plus the last date covered by the extract.

    Patient i is `patient_ids[i]`, `sex[i]` ("M" or "F"), `age[i]`, `diagnosis[i]`
    and `death[i]` (date ordinals; NO_DEATH for none), and its `counts[i]`
    results follow those of patients 0..i-1 in `observations`.
    """

    patient_ids: tuple[str, ...]
    sex: np.ndarray
    age: np.ndarray
    diagnosis: np.ndarray
    death: np.ndarray
    counts: np.ndarray
    observations: Observations
    data_end_date: date

    @classmethod
    def of(cls, patients, data_end_date: date) -> Cohort:
        """The cohort of these PatientRecords, in order.

        Raises ValueError, naming the patient, for a value that no column holds
        exactly: an age that is not an int (a bool or a float) or not within
        int64, and a diagnosis or death date that is not a `date` (a `datetime`).
        """
        patients = tuple(patients)
        for p in patients:
            age, diagnosis, death = p.age_at_diagnosis, p.diagnosis_date, p.death_date
            if type(age) is not int or not INT64.min <= age <= INT64.max:
                raise ValueError(f"patient {p.patient_id!r}: age_at_diagnosis must be an int within int64, got {age!r}")
            if type(diagnosis) is not date or (death is not None and type(death) is not date):
                raise ValueError(f"patient {p.patient_id!r}: dates must be datetime.date, got {diagnosis!r}, {death!r}")
        rows = [
            (p.sex.value, p.age_at_diagnosis, p.diagnosis_date.toordinal(),
             NO_DEATH if p.death_date is None else p.death_date.toordinal())
            for p in patients
        ]
        parts = [p.observations for p in patients] or [Observations.from_columns([], [], [], [], [])]
        columns = ("measure", "value", "day", "ref_low", "ref_high")  # from_columns' order
        return cls(
            patient_ids=tuple(p.patient_id for p in patients),
            **patient_columns(rows),
            counts=np.array([len(p.observations) for p in patients], dtype=np.int64),
            observations=Observations.from_columns(*(np.concatenate([getattr(o, c) for o in parts]) for c in columns)),
            data_end_date=data_end_date,
        )

    @property
    def patients(self) -> tuple[PatientRecord, ...]:
        """One PatientRecord per patient, built on each access; their observations are views of the buffer."""
        day = functools.cache(date.fromordinal)
        columns = zip(self.sex.tolist(), self.age.tolist(), self.diagnosis.tolist(), self.death.tolist())
        return tuple(
            PatientRecord(pid, Sex(sex), age, day(diagnosis), None if death == NO_DEATH else day(death), obs)
            for pid, (sex, age, diagnosis, death), obs in zip(
                self.patient_ids, columns, self.observations.split(self.counts)
            )
        )

    def patient_of(self) -> np.ndarray:
        """The patient index of each observation record."""
        return np.repeat(np.arange(len(self)), self.counts)

    def take(self, keep: np.ndarray) -> Cohort:
        """The cohort of the patients where the boolean mask `keep` is true, in order."""
        if keep.all():
            return self  # nothing to drop, and a cohort is immutable
        rows = self.observations.rows.view(_RECORD)[np.repeat(keep, self.counts)].view(OBSERVATION_DTYPE)
        return dataclasses.replace(
            self,
            patient_ids=tuple(pid for pid, kept in zip(self.patient_ids, keep.tolist()) if kept),
            observations=Observations(rows),
            **{name: getattr(self, name)[keep] for name in _PATIENT_ARRAYS},
        )

    def __len__(self) -> int:
        return len(self.patient_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cohort):
            return NotImplemented
        return (
            self.patient_ids == other.patient_ids
            and self.data_end_date == other.data_end_date
            and self.observations == other.observations
            and all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _PATIENT_ARRAYS)
        )


@dataclass
class FilterReport:
    """Counts of patients removed per inclusion-filter reason."""

    removed_insufficient_followup: int = 0
    removed_incomplete_panel: int = 0
    retained: int = 0

    def to_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    def write(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def died_within_follow_up(diagnosis, death):
    """The 2-year outcome rule on date ordinals, for scalars or arrays: a death within 730 days of diagnosis."""
    return (death != NO_DEATH) & (death <= diagnosis + FOLLOW_UP_DAYS)


def survival_label(patient: PatientRecord) -> SurvivalStatus:
    """Binary 2-year outcome: deceased iff death falls within 730 days of diagnosis."""
    death = NO_DEATH if patient.death_date is None else patient.death_date.toordinal()
    return SurvivalStatus(int(died_within_follow_up(patient.diagnosis_date.toordinal(), death)))


def _followed_up(cohort: Cohort) -> np.ndarray:
    """Per patient, whether the extract covers 2 years after diagnosis."""
    return cohort.diagnosis + FOLLOW_UP_DAYS <= cohort.data_end_date.toordinal()


def inclusion_mask(cohort: Cohort) -> tuple[np.ndarray, FilterReport]:
    """Per patient, whether it passes the inclusion filters, and the report of removals per reason."""
    followed = _followed_up(cohort)
    pair = cohort.patient_of() * len(MEASURES) + cohort.observations.measure
    full_panel = np.bincount(pair, minlength=len(cohort) * len(MEASURES)).reshape(-1, len(MEASURES)).all(axis=1)
    keep = followed & full_panel
    report = FilterReport(
        removed_insufficient_followup=int((~followed).sum()),
        removed_incomplete_panel=int((followed & ~full_panel).sum()),
        retained=int(keep.sum()),
    )
    return keep, report


def apply_inclusion_filters(cohort: Cohort) -> tuple[Cohort, FilterReport]:
    """Retain patients with >= 2 years of follow-up and results for all 5 measures.

    Returns a new cohort (input untouched) and a report of removals per reason.
    A patient failing both checks is counted under insufficient follow-up.
    """
    keep, report = inclusion_mask(cohort)
    return cohort.take(keep), report


def apply_followup_filter(cohort: Cohort) -> Cohort:
    """Drop only the insufficient-follow-up patients (keeps incomplete panels).

    Used for history-group statistics, which are meaningful per measure even
    when a patient is missing some other measure.
    """
    return cohort.take(_followed_up(cohort))


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_iso_date(raw: str) -> date:
    """A YYYY-MM-DD date of ASCII digits. Any other text is a ValueError, though `date.fromisoformat` of
    Python 3.11 and later also reads forms such as 20130918 and 2012-W22-5.
    """
    if not _ISO_DATE.fullmatch(raw):
        raise ValueError(f"Invalid isoformat string: {raw!r}")
    return date.fromisoformat(raw)


def _parse_date(raw: str, file: str, line: int, fieldname: str, problems: list[str]) -> date | None:
    try:
        return parse_iso_date(raw)
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

    # patient_id -> (sex, age, diagnosis ordinal, death ordinal), in file order
    patients: dict[str, tuple[str, int, int, int]] = {}
    with open(patients_file, newline="") as fh:
        reader = csv_rows(fh, pfile)
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
                Sex(sex_raw)
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
            if age > INT64.max:
                problems.append(
                    f"{pfile}:{line}: field 'age_at_diagnosis': must be at most {INT64.max}, got {age_raw!r}"
                )
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
            patients[pid] = (sex_raw, age, diagnosis.toordinal(), NO_DEATH if death is None else death.toordinal())

    index = {pid: i for i, pid in enumerate(patients)}
    code_of = {m.value: code for m, code in MEASURE_CODE.items()}
    end_day = data_end_date.toordinal()
    day_of: dict[str, int] = {}  # date text -> ordinal; a cohort repeats a few thousand dates
    patient_col, measure_col, day_col = array("q"), array("b"), array("q")
    value_col, low_col, high_col = array("d"), array("d"), array("d")
    with open(observations_file, newline="") as fh:
        reader = csv_rows(fh, ofile)
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
    observations = Observations.from_columns(
        *(np.frombuffer(col, dtype=dtype)[order] for col, dtype in (
            (measure_col, np.int8), (value_col, np.float64), (day_col, np.int64),
            (low_col, np.float64), (high_col, np.float64),
        ))
    )
    return Cohort(
        patient_ids=tuple(patients),
        **patient_columns(list(patients.values())),
        counts=np.bincount(patient_of, minlength=len(patients)),
        observations=observations,
        data_end_date=data_end_date,
    )


def _reads_back(pid: str) -> bool:
    """Whether a written patient_id parses back as itself: non-empty, unpadded (the parser strips fields) and free of
    carriage returns (csv.writer leaves one unquoted, which splits the row)."""
    return bool(pid) and pid == pid.strip() and "\r" not in pid


def write_cohort(cohort: Cohort, out_dir: str | Path, *, source: str | Path | None = None) -> None:
    """Write patients.csv, observations.csv, meta.json and the cohort.npz sidecar for a cohort.

    With `source`, a cohort directory, the two CSVs are copied from it byte
    for byte when its cohort.npz proves they are exactly what this call would
    write: the sidecar loads, has this format version and the hashes of the
    CSVs there, and holds this cohort's arrays, the records byte for byte.
    Otherwise they are serialised. meta.json and the sidecar are written
    either way, the sidecar hashing the CSVs now in `out_dir`.

    Raises ValueError, before any file is opened, for a patient_id that the
    parser cannot read back as itself (see `_reads_back`).
    """
    for pid in cohort.patient_ids:
        if not _reads_back(pid):
            raise ValueError(f"patient_id {pid!r} would not read back: it is empty, padded or holds a carriage return")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arrays = _sidecar_arrays(cohort)
    if source is not None and arrays is not None and _proves_csvs(Path(source), arrays):
        for name in CSV_FILES:
            try:
                shutil.copyfile(Path(source, name), out / name)
            except shutil.SameFileError:
                pass  # writing a cohort back into the directory it was read from
    else:
        _serialise_csvs(cohort, out)
    write_json(out / "meta.json", {"data_end_date": cohort.data_end_date.isoformat()})
    if arrays is not None:
        _write_sidecar(arrays, out)


def _serialise_csvs(cohort: Cohort, out: Path) -> None:
    iso = functools.cache(lambda day: date.fromordinal(day).isoformat())
    death = ("" if day == NO_DEATH else iso(day) for day in cohort.death.tolist())
    demographics = (cohort.sex.tolist(), cohort.age.tolist(), map(iso, cohort.diagnosis.tolist()), death)
    write_csv(out / "patients.csv", PATIENTS_COLUMNS, zip(cohort.patient_ids, *demographics))
    names = [m.value for m in MEASURES]
    # one patient's slice at a time, so the Python values of the whole buffer never exist at once
    rows = chain.from_iterable(
        zip(repeat(pid), map(names.__getitem__, o.measure.tolist()), o.value.tolist(), map(iso, o.day.tolist()),
            o.ref_low.tolist(), o.ref_high.tolist())
        for pid, o in zip(cohort.patient_ids, cohort.observations.split(cohort.counts))
    )
    write_csv(out / "observations.csv", OBSERVATIONS_COLUMNS, rows)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _sidecar_arrays(cohort: Cohort) -> dict[str, np.ndarray] | None:
    """The cohort's columns as the sidecar saves them, or None when they cannot determine its CSV text."""
    if any("\0" in pid for pid in cohort.patient_ids):
        return None  # a numpy str array drops trailing NULs, so it cannot hold these ids exactly
    return {
        # the records' bytes: np.load copies a structured array field by field, into a buffer with unset padding
        "rows": np.ascontiguousarray(cohort.observations.rows).view(np.uint8),
        "patient_id": np.array(cohort.patient_ids, dtype=str),
        **{name: getattr(cohort, name) for name in _PATIENT_ARRAYS},
    }


def _write_sidecar(arrays: dict[str, np.ndarray], out: Path) -> None:
    """Save a cohort's sidecar arrays, the format version and the hashes of the CSVs in `out` as cohort.npz."""
    tmp = out / f".{SIDECAR}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                version=np.int64(SIDECAR_VERSION),
                patients_sha256=np.str_(_sha256(out / "patients.csv")),
                observations_sha256=np.str_(_sha256(out / "observations.csv")),
                **arrays,
            )
        os.replace(tmp, out / SIDECAR)
    finally:
        tmp.unlink(missing_ok=True)


def _checked_sidecar(in_dir: Path) -> dict[str, np.ndarray] | None:
    """cohort.npz's cohort arrays, or None unless it loads, has this version and the hashes of the CSVs on disk."""
    try:
        # np.load leaks the file it opened when the archive is corrupt, so it gets an open one
        with open(in_dir / SIDECAR, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            saved = {name: npz[name] for name in ("version", "patients_sha256", "observations_sha256", *SIDECAR_ARRAYS)}
        csv_hashes = tuple(_sha256(in_dir / name) for name in CSV_FILES)
    except (OSError, ValueError, KeyError, EOFError, TypeError, zipfile.BadZipFile):
        # no sidecar, a truncated or foreign file, or a missing CSV (which the parser reports)
        return None
    version = saved.pop("version")
    if version.shape != () or version.dtype.kind != "i" or version != SIDECAR_VERSION:
        return None
    if (str(saved.pop("patients_sha256")), str(saved.pop("observations_sha256"))) != csv_hashes:
        return None
    return saved


def _proves_csvs(source: Path, arrays: dict[str, np.ndarray]) -> bool:
    """Whether the CSVs in `source` are exactly what write_cohort writes for the cohort whose arrays these are.

    A checked sidecar holds the hashes of the CSVs that write_cohort wrote
    from its arrays, and for one SIDECAR_VERSION that text is a function of
    those arrays alone; so equal arrays mean equal CSV bytes. No sidecar
    array holds floats (the records are saved as bytes), so equal values are
    equal bits.
    """
    saved = _checked_sidecar(source)
    return saved is not None and all(
        saved[name].dtype == array.dtype and np.array_equal(saved[name], array) for name, array in arrays.items()
    )


def _load_sidecar(in_dir: Path, data_end_date: date) -> Cohort | None:
    """The cohort that cohort.npz mirrors, or None unless parsing the CSVs would give exactly it.

    That holds when the sidecar loads, has this format version and the hashes
    of the CSVs on disk, and every row passes the parser's rules again.
    """
    saved = _checked_sidecar(in_dir)
    if saved is None:
        return None
    rows, counts, ids, sex, age, diagnosis, death = (saved[name] for name in SIDECAR_ARRAYS)

    n = ids.size
    if rows.ndim != 1 or rows.dtype != np.uint8 or rows.size % OBSERVATION_DTYPE.itemsize:
        return None
    columns = ((counts, "i"), (ids, "U"), (sex, "U"), (age, "i"), (diagnosis, "i"), (death, "i"))
    if any(col.shape != (n,) or col.dtype.kind != kind for col, kind in columns):
        return None
    rows = rows.view(OBSERVATION_DTYPE)
    if (counts < 0).any() or counts.sum() != len(rows):
        return None

    # the parser's row rules, vectorised
    value, low, high, day, measure = (rows[name] for name in ("value", "ref_low", "ref_high", "day", "measure"))
    last_day = date.max.toordinal()
    if not (
        np.isfinite(value).all() and np.isfinite(low).all() and np.isfinite(high).all()
        and (value >= 0).all()
        and (low < high).all()
        and ((measure >= 0) & (measure < len(MEASURES))).all()
        and ((day >= 1) & (day <= data_end_date.toordinal())).all()
        and np.isin(sex, ["M", "F"]).all()
        and (age >= 0).all()
        and ((diagnosis >= 1) & (diagnosis <= last_day)).all()
        and ((death == NO_DEATH) | ((death >= diagnosis) & (death <= last_day))).all()
    ):
        return None
    ids = tuple(ids.tolist())
    if len(set(ids)) != n or not all(map(_reads_back, ids)):
        return None
    return Cohort(
        patient_ids=ids, sex=sex, age=age, diagnosis=diagnosis, death=death, counts=counts,
        observations=Observations(rows), data_end_date=data_end_date,
    )


def _read_data_end_date(meta_path: Path) -> date:
    if not meta_path.exists():
        raise CohortError([f"{meta_path}: missing; pass data_end_date explicitly"])
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except ValueError as exc:  # invalid JSON or UTF-8
        raise CohortError([f"{meta_path}: not valid JSON: {exc}"]) from exc
    if not isinstance(meta, dict) or "data_end_date" not in meta:
        raise CohortError([f"{meta_path}: missing field 'data_end_date'"])
    raw = meta["data_end_date"]
    try:
        return parse_iso_date(raw)
    except (TypeError, ValueError):
        raise CohortError([f"{meta_path}: field 'data_end_date': must be a YYYY-MM-DD date string, got {raw!r}"]) from None


def read_cohort(in_dir: str | Path, data_end_date: date | None = None) -> Cohort:
    """Read a cohort directory written by write_cohort (or hand-built to the same schema).

    The cohort.npz sidecar stands in for parsing when it provably mirrors the
    CSVs; the result is the same Cohort, or the same CohortError, either way.
    """
    in_dir = Path(in_dir)
    if data_end_date is None:
        data_end_date = _read_data_end_date(in_dir / "meta.json")
    cohort = _load_sidecar(in_dir, data_end_date)
    if cohort is None:
        cohort = ingest_cohort(in_dir / "patients.csv", in_dir / "observations.csv", data_end_date)
    return cohort
