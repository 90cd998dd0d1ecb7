import dataclasses
import io
import re
import shutil
import tempfile
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbcsurv.cohort
from fbcsurv.cohort import (
    FOLLOW_UP_DAYS,
    MEASURE_CODE,
    SIDECAR,
    Cohort,
    CohortError,
    Measure,
    MEASURES,
    Observations,
    SurvivalStatus,
    apply_followup_filter,
    apply_inclusion_filters,
    ingest_cohort,
    read_cohort,
    survival_label,
    write_cohort,
)

from fbcsurv.synth import GeneratorConfig, generate

from conftest import DATA_END, full_panel_readings, make_cohort, make_patient, write_csvs


def parse(cohort_dir: Path, data_end_date: date):
    return ingest_cohort(cohort_dir / "patients.csv", cohort_dir / "observations.csv", data_end_date)


def outcome(read):
    """What a read gives: the cohort, or the type and text of what it raised."""
    try:
        return read()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.fixture
def parses(monkeypatch):
    """The arguments of every CSV parse that read_cohort falls back to."""
    calls = []
    real = fbcsurv.cohort.ingest_cohort

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fbcsurv.cohort, "ingest_cohort", counting)
    return calls


@pytest.fixture
def synth_dir(tmp_path) -> Path:
    write_cohort(generate(GeneratorConfig(n_patients=12, seed=3)), tmp_path / "cohort")
    return tmp_path / "cohort"


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


@pytest.mark.parametrize("days_before_end, kept", [(730, True), (729, False)])
def test_follow_up_boundary(days_before_end, kept):
    patient = make_patient(diagnosis=DATA_END - timedelta(days=days_before_end), readings=full_panel_readings())
    cohort = make_cohort([patient])
    assert len(apply_inclusion_filters(cohort)[0]) == len(apply_followup_filter(cohort)) == int(kept)


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
    assert kept.patient_ids == ("P1",)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    drops=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(MEASURES)), max_size=6),
    end_shift=st.integers(0, 3000),
)
def test_filters_match_the_per_record_reference(seed, drops, end_shift):
    cohort = generate(GeneratorConfig(n_patients=8, seed=seed, obs_count_range=(1, 2)))
    patients = list(cohort.patients)
    for i, measure in drops:
        obs = patients[i].observations
        kept = obs.rows[obs.measure != MEASURE_CODE[measure]]
        patients[i] = dataclasses.replace(patients[i], observations=Observations(kept))
    end = cohort.data_end_date - timedelta(days=end_shift)
    edited = Cohort.of(patients, end)
    # the per-record loops that the column masks replaced
    followed = [p for p in patients if p.diagnosis_date + timedelta(days=FOLLOW_UP_DAYS) <= end]
    complete = [p for p in followed if p.has_full_panel()]
    filtered, report = apply_inclusion_filters(edited)
    assert filtered == Cohort.of(complete, end)
    assert report.to_dict() == {
        "removed_insufficient_followup": len(patients) - len(followed),
        "removed_incomplete_panel": len(followed) - len(complete),
        "retained": len(complete),
    }
    assert apply_followup_filter(edited) == Cohort.of(followed, end)


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
    cohort = generate(GeneratorConfig(n_patients=25, seed=42))
    write_cohort(cohort, tmp_path)
    parsed = parse(tmp_path, cohort.data_end_date)
    assert parsed == cohort
    assert read_cohort(tmp_path) == parsed  # through the sidecar
    write_cohort(parsed, tmp_path / "second")
    assert (tmp_path / "patients.csv").read_bytes() == (tmp_path / "second" / "patients.csv").read_bytes()
    assert (tmp_path / "observations.csv").read_bytes() == (tmp_path / "second" / "observations.csv").read_bytes()


def test_records_and_columns_convert_both_ways():
    cohort = generate(GeneratorConfig(n_patients=25, seed=42))
    records = cohort.patients
    assert [p.patient_id for p in records] == list(cohort.patient_ids)
    assert all(p.observations.rows.base is not None for p in records)  # views of the cohort's buffer
    assert Cohort.of(records, cohort.data_end_date) == cohort


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


def test_write_cohort_saves_a_sidecar_that_read_cohort_trusts(synth_dir, parses):
    assert (synth_dir / SIDECAR).is_file()
    cohort = read_cohort(synth_dir)
    assert parses == []
    assert cohort == parse(synth_dir, cohort.data_end_date)
    # np.load drops the buffer dtype's align flag; without it the joined slices get another dtype
    assert np.concatenate([p.observations.rows for p in cohort.patients]).dtype == fbcsurv.cohort.OBSERVATION_DTYPE


def _saved_records(cohort_dir: Path) -> np.ndarray:
    """The bytes of each observation record as cohort.npz holds them, (records, itemsize) uint8."""
    with np.load(cohort_dir / SIDECAR) as npz:
        return npz["rows"].reshape(-1, fbcsurv.cohort.OBSERVATION_DTYPE.itemsize)


def _padding() -> np.ndarray:
    """Which bytes of an observation record belong to no field."""
    dtype = fbcsurv.cohort.OBSERVATION_DTYPE
    padding = np.ones(dtype.itemsize, dtype=bool)
    for field, offset in dtype.fields.values():
        padding[offset : offset + field.itemsize] = False
    assert padding.any()
    return padding


def test_sidecar_records_have_zero_padding(tmp_path, parses):
    # a cohort loaded through its sidecar used to save process memory in the bytes between records' fields
    write_cohort(generate(GeneratorConfig(n_patients=60, seed=5)), tmp_path / "built")
    write_cohort(read_cohort(tmp_path / "built"), tmp_path / "loaded")
    assert parses == []
    built, loaded = _saved_records(tmp_path / "built"), _saved_records(tmp_path / "loaded")
    assert built.tobytes() == loaded.tobytes()
    assert not built[:, _padding()].any()


def test_filtered_cohort_records_have_zero_padding(tmp_path):
    # a structured copy leaves the padding of the records it copies unset
    panel = full_panel_readings()
    patients = [make_patient(f"P{i}", readings=panel if i != 2 else panel[:4]) for i in range(1, 400)]
    write_cohort(make_cohort(patients), tmp_path / "in")
    filtered, report = apply_inclusion_filters(read_cohort(tmp_path / "in"))
    assert report.removed_incomplete_panel == 1
    write_cohort(filtered, tmp_path / "out")
    assert not _saved_records(tmp_path / "out")[:, _padding()].any()
    assert read_cohort(tmp_path / "out") == filtered


def test_edited_observations_are_parsed_again(synth_dir, parses):
    path = synth_dir / "observations.csv"
    header, first, *rest = path.read_text().splitlines(keepends=True)
    fields = first.split(",")
    path.write_text(header + ",".join([*fields[:2], "123.5", *fields[3:]]) + "".join(rest))
    cohort = read_cohort(synth_dir)
    assert len(parses) == 1
    assert cohort.patients[0].observations.value[0] == 123.5

    path.write_text(header + ",".join([*fields[:2], "-1", *fields[3:]]) + "".join(rest))
    with pytest.raises(CohortError) as excinfo:
        read_cohort(synth_dir)
    assert str(excinfo.value) == f"{path}:2: field 'value': must be non-negative, got -1.0"


def _rewrite_sidecar(path: Path, **changes) -> None:
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays.update(changes)
    arrays = {name: array for name, array in arrays.items() if array is not None}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _flip_middle_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _as_version_1(path: Path) -> None:
    """Rewrite a sidecar in format 1, which saved the records as a structured array."""
    with np.load(path) as npz:
        records = npz["rows"].view(fbcsurv.cohort.OBSERVATION_DTYPE)
    _rewrite_sidecar(path, version=np.int64(1), rows=records)


def _write_npy(path: Path) -> None:
    buffer = io.BytesIO()
    np.save(buffer, np.arange(3))
    path.write_bytes(buffer.getvalue())


@pytest.mark.parametrize(
    "spoil",
    [
        lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
        lambda path: path.write_bytes(b"not a numpy archive"),
        lambda path: path.write_bytes(b""),
        _write_npy,
        _flip_middle_byte,
        lambda path: _rewrite_sidecar(path, version=np.int64(fbcsurv.cohort.SIDECAR_VERSION + 1)),
        lambda path: _rewrite_sidecar(path, version=np.str_(str(fbcsurv.cohort.SIDECAR_VERSION))),
        lambda path: _rewrite_sidecar(path, death=None),
        lambda path: _rewrite_sidecar(path, counts=np.zeros(1, np.int64)),
        _as_version_1,
        lambda path: _rewrite_sidecar(path, rows=np.zeros(33, np.uint8)),
    ],
    ids=["truncated", "garbage", "empty", "npy_file", "flipped_byte", "wrong_version", "str_version",
         "missing_array", "short_column", "version_1", "partial_record"],
)
def test_spoiled_sidecar_falls_back_to_the_parse(synth_dir, parses, spoil):
    expected = parse(synth_dir, DATA_END)
    spoil(synth_dir / SIDECAR)
    assert read_cohort(synth_dir) == expected
    assert len(parses) == 1


def test_data_end_date_before_an_observation_gives_the_parser_message(synth_dir, parses):
    end = date(2015, 1, 1)
    with pytest.raises(CohortError) as parsed:
        parse(synth_dir, end)
    assert "after data_end_date 2015-01-01" in str(parsed.value)
    with pytest.raises(CohortError) as read:
        read_cohort(synth_dir, data_end_date=end)
    assert str(read.value) == str(parsed.value)
    assert len(parses) == 1


def _with_observation(patient, **columns):
    rows = patient.observations.rows.copy()
    for name, value in columns.items():
        rows[name][0] = value
    return dataclasses.replace(patient, observations=Observations(rows))


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: _with_observation(p, value=-2.0),
        lambda p: _with_observation(p, value=float("nan")),
        lambda p: _with_observation(p, value=float("inf")),
        lambda p: _with_observation(p, ref_low=500.0),
        lambda p: _with_observation(p, measure=-1),  # written as RDW
        lambda p: dataclasses.replace(p, patient_id="P1\x00"),
        lambda p: dataclasses.replace(p, patient_id="P2"),  # a duplicate
        lambda p: dataclasses.replace(p, age_at_diagnosis=-1),
        lambda p: dataclasses.replace(p, death_date=p.diagnosis_date - timedelta(days=1)),
    ],
    ids=["negative_value", "nan_value", "inf_value", "inverted_range", "negative_measure", "id_with_nul",
         "duplicate_id", "negative_age", "death_before_diagnosis"],
)
def test_api_built_cohort_reads_the_same_with_and_without_sidecar(tmp_path, edit):
    patients = [make_patient(f"P{i}", readings=full_panel_readings()) for i in (1, 2)]
    write_cohort(make_cohort([edit(patients[0]), patients[1]]), tmp_path)
    with_sidecar = outcome(lambda: read_cohort(tmp_path))
    (tmp_path / SIDECAR).unlink(missing_ok=True)
    assert with_sidecar == outcome(lambda: read_cohort(tmp_path))


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: dataclasses.replace(p, age_at_diagnosis=10**20),  # no int64 column holds it
        lambda p: dataclasses.replace(p, age_at_diagnosis=-(2**63) - 1),
        lambda p: dataclasses.replace(p, age_at_diagnosis=65.0),  # would be written as 65.0
        lambda p: dataclasses.replace(p, age_at_diagnosis=True),  # would be written as True
        lambda p: dataclasses.replace(p, diagnosis_date=datetime(2012, 6, 1, 5)),  # would be written with its time
        lambda p: dataclasses.replace(p, death_date=datetime(2013, 6, 1)),
    ],
    ids=["huge_age", "age_below_int64", "float_age", "bool_age", "datetime_diagnosis", "datetime_death"],
)
def test_cohort_of_rejects_values_no_column_holds(edit):
    patients = [make_patient(f"P{i}", readings=full_panel_readings()) for i in (1, 2)]
    with pytest.raises(ValueError, match="patient 'P2'"):
        make_cohort([patients[0], edit(patients[1])])


def test_cohort_of_keeps_int64_extremes():
    patients = [make_patient("P1", age=2**63 - 1), make_patient("P2", age=-(2**63))]
    assert make_cohort(patients).age.tolist() == [2**63 - 1, -(2**63)]


@pytest.mark.parametrize("pid", [" pad ", "a\rb", ""], ids=["padded_id", "id_with_cr", "empty_id"])
def test_write_cohort_rejects_ids_it_cannot_read_back(tmp_path, pid):
    patients = [make_patient(pid, readings=full_panel_readings()), make_patient("P2", readings=full_panel_readings())]
    with pytest.raises(ValueError, match=re.escape(repr(pid))):
        write_cohort(make_cohort(patients), tmp_path / "out")
    assert not (tmp_path / "out").exists()  # rejected before any file is opened


@pytest.mark.parametrize("pid", ["a\nb", 'a"b', "a,b"], ids=["newline", "quote", "comma"])
def test_write_cohort_keeps_ids_that_round_trip(tmp_path, parses, pid):
    cohort = make_cohort([make_patient(pid, readings=full_panel_readings())])
    write_cohort(cohort, tmp_path)
    assert read_cohort(tmp_path) == cohort
    assert parses == []
    assert parse(tmp_path, DATA_END) == cohort


def _expected_bytes(cohort, tmp) -> dict[str, bytes]:
    """The CSV bytes that write_cohort serialises for a cohort, in a fresh directory under tmp."""
    fresh = Path(tempfile.mkdtemp(dir=tmp))
    write_cohort(cohort, fresh)
    return _csv_bytes(fresh)


def _csv_bytes(cohort_dir: Path) -> dict[str, bytes]:
    return {name: (cohort_dir / name).read_bytes() for name in fbcsurv.cohort.CSV_FILES}


@pytest.fixture
def copies(monkeypatch):
    """The (source, destination) of every file that write_cohort copies."""
    calls = []
    real = fbcsurv.cohort.shutil.copyfile

    def counting(src, dst):
        calls.append((src, dst))
        return real(src, dst)

    monkeypatch.setattr(fbcsurv.cohort.shutil, "copyfile", counting)
    return calls


def test_write_cohort_copies_csvs_its_source_sidecar_proves(synth_dir, tmp_path, parses, copies):
    cohort = read_cohort(synth_dir)
    write_cohort(cohort, tmp_path / "out", source=synth_dir)
    assert len(copies) == 2
    assert _csv_bytes(tmp_path / "out") == _csv_bytes(synth_dir) == _expected_bytes(cohort, tmp_path)
    assert read_cohort(tmp_path / "out") == cohort
    assert parses == []


def test_write_cohort_serialises_from_a_version_1_source(synth_dir, tmp_path, parses, copies):
    cohort = read_cohort(synth_dir)
    _as_version_1(synth_dir / SIDECAR)
    write_cohort(cohort, tmp_path / "out", source=synth_dir)
    assert copies == []
    assert _csv_bytes(tmp_path / "out") == _csv_bytes(synth_dir)
    assert parses == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: _with_observation(p, value=p.observations.value[0] + 1.0),
        lambda p: _with_observation(p, value=-0.0),
        lambda p: dataclasses.replace(p, age_at_diagnosis=p.age_at_diagnosis + 1),
        lambda p: dataclasses.replace(p, death_date=p.diagnosis_date),
    ],
    ids=["one_value", "negative_zero", "age", "death"],
)
def test_write_cohort_serialises_a_cohort_its_source_does_not_hold(tmp_path, parses, copies, edit):
    patients = [make_patient(f"P{i}", readings=full_panel_readings(value=0.0)) for i in (1, 2)]
    write_cohort(make_cohort(patients), tmp_path / "in")
    edited = make_cohort([patients[0], edit(patients[1])])
    write_cohort(edited, tmp_path / "out", source=tmp_path / "in")
    assert copies == []
    assert _csv_bytes(tmp_path / "out") == _expected_bytes(edited, tmp_path) != _csv_bytes(tmp_path / "in")
    assert read_cohort(tmp_path / "out") == edited
    assert parses == []


def _edit_observation(column: str, value):
    return lambda patient: _with_observation(patient, **{column: value})


COHORT_EDITS = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 1e300, float("nan"), float("inf")]).map(lambda v: _edit_observation("value", v)),
    st.sampled_from([0.0, 1e9, float("-inf")]).map(lambda v: _edit_observation("ref_low", v)),
    st.integers(-5, -1).map(lambda code: _edit_observation("measure", code)),
    st.integers(DATA_END.toordinal() - 4000, DATA_END.toordinal() + 5).map(lambda day: _edit_observation("day", day)),
    st.text(" \t\r\n\x00\u2028,\"P12", max_size=4).map(lambda pid: lambda p: dataclasses.replace(p, patient_id=pid)),
    st.integers(-2, 120).map(lambda age: lambda p: dataclasses.replace(p, age_at_diagnosis=age)),
    st.one_of(st.none(), st.integers(-30, 30)).map(
        lambda days: lambda p: dataclasses.replace(
            p, death_date=None if days is None else p.diagnosis_date + timedelta(days=days)
        )
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    edits=st.lists(st.tuples(st.integers(0, 4), COHORT_EDITS), max_size=3),
    file_edit=st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["patients.csv", "observations.csv"]), st.integers(0, 10_000), st.sampled_from(b",-x9.\n")),
    ),
    end_shift=st.one_of(st.none(), st.integers(0, 2500)),
)
def test_sidecar_read_equals_the_parse(n, seed, edits, file_edit, end_shift):
    cohort = generate(GeneratorConfig(n_patients=n, seed=seed, obs_count_range=(1, 3)))
    patients = list(cohort.patients)
    for i, edit in edits:
        patients[i % n] = edit(patients[i % n])
    end = None if end_shift is None else cohort.data_end_date - timedelta(days=end_shift)
    edited = Cohort.of(patients, cohort.data_end_date)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "cohort")
        written = outcome(lambda: write_cohort(edited, out))
        if written is not None:
            # only an id that the parser cannot read back stops the write
            assert written.startswith("ValueError: patient_id ")
            assert any(not p.patient_id or p.patient_id != p.patient_id.strip() or "\r" in p.patient_id for p in patients)
            assert not out.exists()
            return
        if file_edit is not None:
            name, at, byte = file_edit
            data = bytearray((out / name).read_bytes())
            data[at % len(data)] = byte
            (out / name).write_bytes(bytes(data))
        parsed = outcome(lambda: parse(out, end or cohort.data_end_date))
        trusted = fbcsurv.cohort._load_sidecar(out, end or cohort.data_end_date)
        assert trusted is None or trusted == parsed
        if not edits and file_edit is None and end is None:
            assert trusted is not None
        assert outcome(lambda: read_cohort(out, end)) == parsed

        # a copy from `out` gives the bytes that serialising gives, for the cohort written or read
        for c in (edited, parsed) if isinstance(parsed, fbcsurv.cohort.Cohort) else (edited,):
            expected = _expected_bytes(c, tmp)
            assert _write_from(c, out, tmp) == expected
            without = Path(tempfile.mkdtemp(dir=tmp))
            shutil.copytree(out, without, dirs_exist_ok=True)
            (without / SIDECAR).unlink(missing_ok=True)
            assert _write_from(c, without, tmp) == expected


def _write_from(cohort, source: Path, tmp) -> dict[str, bytes]:
    out = Path(tempfile.mkdtemp(dir=tmp))
    write_cohort(cohort, out, source=source)
    return _csv_bytes(out)
