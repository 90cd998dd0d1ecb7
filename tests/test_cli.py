import argparse
import csv
import json
import os
import shutil
import warnings
from datetime import date, timedelta

import numpy as np
import pytest

import fbcsurv.cli
import fbcsurv.cohort
import fbcsurv.evaluation
import fbcsurv.tables
from fbcsurv.classifiers import Hyperparameters
from fbcsurv.classifiers.model import MAX_ROUNDS
from fbcsurv.cli import build_parser, main
from fbcsurv.cohort import CSV_FILES, SIDECAR, CohortError, ingest_cohort, read_cohort, write_cohort
from fbcsurv.labeling import DEFAULT_WINDOW, FAR_DAYS_DEFAULT, DiagnosisWindow, Version
from fbcsurv.ranges import SOFT_MARGIN_DEFAULT

from conftest import write_csvs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--n", "60", "--seed", "5", "--out", str(out)]) == 0
    return out


def test_synth_outputs_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    code, out, _ = run(capsys, "synth", "--n", "25", "--seed", "9", "--out", str(a))
    assert code == 0
    assert "wrote 25 patients" in out
    for name in ("patients.csv", "observations.csv", "meta.json", "config.json", "generator_config.json"):
        assert (a / name).exists()
    run(capsys, "synth", "--n", "25", "--seed", "9", "--out", str(b))
    for name in ("patients.csv", "observations.csv", "meta.json", "config.json"):
        if name == "config.json":
            continue  # echo embeds the --out path, which differs
        assert (a / name).read_bytes() == (b / name).read_bytes()
    config = json.loads((a / "config.json").read_text())
    assert config["command"] == "synth"
    assert config["generator"]["seed"] == 9


def test_synth_flag_overrides(tmp_path):
    out = tmp_path / "d"
    assert main(
        ["synth", "--n", "10", "--seed", "1", "--out", str(out), "--p-death", "0.1,0.2,0.3", "--window-bias", "0.9"]
    ) == 0
    config = json.loads((out / "generator_config.json").read_text())
    assert config["p_death_2y_by_group"] == [0.1, 0.2, 0.3]
    assert config["window_placement_bias"] == 0.9


@pytest.mark.parametrize("n", ["0", "1000000", "100000000000000000000"])
def test_synth_rejects_a_patient_count_out_of_range(tmp_path, capsys, n):
    # a huge count used to start spawning one seed stream per patient instead of failing
    code, _, err = run(capsys, "synth", "--n", n, "--out", str(tmp_path / "o"))
    assert code == 1
    assert err == f"error: n_patients must lie in 1..999999, got {n}\n"
    assert not (tmp_path / "o").exists()


def test_ingest_reports_filters(cohort_dir, tmp_path, capsys):
    out = tmp_path / "ingested"
    code, stdout, _ = run(capsys, "ingest", "--in", str(cohort_dir), "--out", str(out))
    assert code == 0
    assert "60 pass filters" in stdout
    report = json.loads((out / "filter_report.json").read_text())
    assert report == {"removed_insufficient_followup": 0, "removed_incomplete_panel": 0, "retained": 60}
    assert (out / "patients.csv").read_bytes() == (cohort_dir / "patients.csv").read_bytes()


def test_ingest_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    write_csvs(
        bad,
        "patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\nP1,M,67,2012-06-01,\n",
        "patient_id,measure,value,date,ref_low,ref_high\nP1,PLATELETS,300,2012-05-20,450,150\n",
    )
    (bad / "meta.json").write_text('{"data_end_date": "2018-12-31"}\n')
    code, _, err = run(capsys, "ingest", "--in", str(bad), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "range inverted" in err
    assert err.startswith("error:")
    assert err.strip().count("\n") == 0


def test_stats_command(cohort_dir, tmp_path, capsys):
    out = tmp_path / "stats"
    code, _, _ = run(capsys, "stats", "--in", str(cohort_dir), "--out", str(out))
    assert code == 0
    lines = (out / "stats.csv").read_text().splitlines()
    assert lines[0] == "stratum,measure,group,n_patients,n_deceased,pct_deceased"
    filtered_out = tmp_path / "stats_filtered"
    assert main(["stats", "--in", str(cohort_dir), "--out", str(filtered_out), "--no-pre-filter-stats"]) == 0
    assert json.loads((filtered_out / "config.json").read_text())["pre_filter_stats"] is False


def test_label_command(cohort_dir, tmp_path):
    out = tmp_path / "labels"
    assert main(["label", "--in", str(cohort_dir), "--out", str(out)]) == 0
    lines = (out / "labels.csv").read_text().splitlines()
    assert lines[0] == "patient_id,measure,v1,v2,v3,v4,v5,v6"
    assert len(lines) == 1 + 60 * 5


def test_features_and_select_chain(cohort_dir, tmp_path):
    feats = tmp_path / "features"
    assert main(["features", "--in", str(cohort_dir), "--out", str(feats), "--version", "v2"]) == 0
    header = (feats / "features.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["patient_id", "target", "lbl_PLATELETS"]
    assert len(header.split(",")) == 2 + 88

    ranked = tmp_path / "ranking"
    assert main(["select", "--features", str(feats / "features.csv"), "--k", "5", "--out", str(ranked)]) == 0
    lines = (ranked / "ranking.csv").read_text().splitlines()
    assert lines[0] == "rank,column_name,chi2"
    assert len(lines) == 6


def test_features_extra_version(cohort_dir, tmp_path):
    feats = tmp_path / "features_xv"
    assert main(
        ["features", "--in", str(cohort_dir), "--out", str(feats), "--version", "v1", "--extra-version", "v5"]
    ) == 0
    header = (feats / "features.csv").read_text().splitlines()[0]
    assert len(header.split(",")) == 2 + 174
    assert "xv5_lbl_PLATELETS" in header


def test_evaluate_command_and_reproducibility(cohort_dir, tmp_path, capsys):
    args = [
        "evaluate", "--in", str(cohort_dir), "--seed", "5",
        "--k-min", "5", "--k-max", "6", "--versions", "v1",
        "--ada-rounds", "10", "--gbt-rounds", "10",
    ]
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    code, stdout, _ = run(capsys, *args, "--out", str(out1))
    assert code == 0
    assert "majority baseline" in stdout
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("results.csv", "summary.csv", "consistency.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    results = (out1 / "results.csv").read_text().splitlines()
    assert len(results) == 1 + 1 * 10 * 2 * 3
    config = json.loads((out1 / "config.json").read_text())
    assert config["hyperparameters"]["gbt_rounds"] == 10
    assert config["seed"] == 5
    assert "seed" not in config["hyperparameters"]


def test_evaluate_empty_cohort_message(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    # one patient diagnosed too recently for two years of follow-up
    write_csvs(
        empty,
        "patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\nP1,M,67,2018-06-01,\n",
        "patient_id,measure,value,date,ref_low,ref_high\n"
        + "".join(
            f"P1,{m},300,2018-06-10,150,450\n" for m in ("PLATELETS", "MCV", "MCH", "MCHC", "RDW")
        ),
    )
    (empty / "meta.json").write_text('{"data_end_date": "2018-12-31"}\n')
    code, _, err = run(capsys, "evaluate", "--in", str(empty), "--out", str(tmp_path / "o"), "--seed", "1")
    assert code == 1
    assert "empty cohort after inclusion filters" in err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_evaluate_rejects_non_positive_jobs(cohort_dir, tmp_path, capsys, jobs):
    code, _, err = run(capsys, "evaluate", "--in", str(cohort_dir), "--out", str(tmp_path / "o"), "--jobs", jobs)
    assert code == 1
    assert f"error: --jobs must be >= 1, got {jobs}" in err
    assert not (tmp_path / "o").exists()


def _die(task):
    os._exit(3)


def test_evaluate_reports_dead_worker(cohort_dir, tmp_path, capsys, monkeypatch):
    # forked fold workers look the task function up by name, so they run _die
    monkeypatch.setattr(fbcsurv.evaluation, "_fold_task", _die)
    code, _, err = run(
        capsys, "evaluate", "--in", str(cohort_dir), "--out", str(tmp_path / "o"), "--jobs", "2",
        "--versions", "v1", "--k-min", "5", "--k-max", "5",
    )
    assert code == 1
    assert err.startswith("error: ")
    assert "terminated abruptly" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "row, message",
    [
        ("P3,1,2", "expected 4 fields, got 3"),
        ("P3,2,1,1", "field 'target': must be 0 or 1, got '2'"),
        ("P3,1,1,y", "field 'b': must be an integer, got 'y'"),
        ("P3,1,1,99999999999999999999", "field 'b': must be an integer within int64, got '99999999999999999999'"),
    ],
)
def test_select_rejects_malformed_features(tmp_path, capsys, row, message):
    features = tmp_path / "features.csv"
    features.write_text(f"patient_id,target,a,b\nP1,0,1,2\nP2,1,2,1\n{row}\n")
    code, _, err = run(capsys, "select", "--features", str(features), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.strip() == f"error: {features}:4: {message}"
    assert not (tmp_path / "o" / "ranking.csv").exists()


@pytest.mark.parametrize("quote", ['"', ""], ids=["per_row_parser", "one_pass_parser"])
def test_select_rejects_a_field_over_the_csv_limit(tmp_path, capsys, quote):
    # a quoted id this long used to end select with a _csv.Error traceback, and the one-pass parser read it unquoted
    limit = csv.field_size_limit()
    features = tmp_path / "features.csv"
    features.write_text(f"patient_id,target,a,b\nP1,0,1,2\n{quote}{'P' * (limit + 1)}{quote},1,2,1\n")
    code, _, err = run(capsys, "select", "--features", str(features), "--out", str(tmp_path / "o"))
    assert (code, err) == (1, f"error: {features}:3: field larger than field limit ({limit})\n")
    assert not (tmp_path / "o" / "ranking.csv").exists()


def test_missing_input_fails_cleanly(tmp_path, capsys):
    code, _, err = run(capsys, "stats", "--in", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error:" in err


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", "--frobnicate"])
    assert excinfo.value.code == 2


def test_bad_window_format_rejected():
    with pytest.raises(SystemExit) as excinfo:
        main(["stats", "--in", "x", "--out", "y", "--window-close", "sixty:thirty"])
    assert excinfo.value.code == 2


def test_inputs_not_mutated(cohort_dir, tmp_path):
    before = {p.name: p.read_bytes() for p in cohort_dir.iterdir()}
    main(["stats", "--in", str(cohort_dir), "--out", str(tmp_path / "s2")])
    main(["label", "--in", str(cohort_dir), "--out", str(tmp_path / "l2")])
    after = {p.name: p.read_bytes() for p in cohort_dir.iterdir()}
    assert before == after


def test_evaluate_rejects_nan_gbt_l2(cohort_dir, tmp_path, capsys):
    code, _, err = run(capsys, "evaluate", "--in", str(cohort_dir), "--out", str(tmp_path / "o"), "--gbt-l2", "nan")
    assert code == 1
    assert err.startswith("error: gbt_l2 must be finite")


def test_stages_load_the_sidecar_instead_of_parsing(cohort_dir, tmp_path, monkeypatch):
    def no_parse(*args):
        raise AssertionError("read_cohort parsed the CSVs instead of loading cohort.npz")

    monkeypatch.setattr(fbcsurv.cohort, "ingest_cohort", no_parse)
    ingested = tmp_path / "ingested"
    assert main(["ingest", "--in", str(cohort_dir), "--out", str(ingested)]) == 0
    evaluate = ["--seed", "5", "--k-min", "5", "--k-max", "5", "--versions", "v1", "--ada-rounds", "5", "--gbt-rounds", "5"]
    for command, extra in (("stats", []), ("label", []), ("features", []), ("evaluate", evaluate)):
        assert main([command, "--in", str(ingested), "--out", str(tmp_path / command), *extra]) == 0


def test_stages_build_no_per_patient_records(cohort_dir, tmp_path, monkeypatch):
    def no_records(*args, **kwargs):
        raise AssertionError("a stage built PatientRecords instead of reading the cohort's columns")

    monkeypatch.setattr(fbcsurv.cohort.PatientRecord, "__init__", no_records)
    monkeypatch.setattr(fbcsurv.cohort.Cohort, "patients", property(no_records))
    parsed = tmp_path / "parsed"  # no sidecar, so ingest parses the CSVs
    shutil.copytree(cohort_dir, parsed)
    (parsed / SIDECAR).unlink()
    assert main(["synth", "--n", "30", "--seed", "2", "--out", str(tmp_path / "synth")]) == 0
    assert main(["ingest", "--in", str(parsed), "--out", str(tmp_path / "ingested")]) == 0
    for command, extra in (("stats", []), ("label", []), ("features", []), ("evaluate", ["--seed", "5", *FAST_EVALUATE])):
        assert main([command, "--in", str(tmp_path / "ingested"), "--out", str(tmp_path / command), *extra]) == 0


def _two_patient_cohort(directory, age="67", diagnosis="2012-06-01", end="2018-12-31"):
    """A cohort directory of P1, who passes the filters, and P2 with the given age and diagnosis date."""
    directory.mkdir()
    panel = "".join(f"P1,{m},300,2012-05-20,150,450\n" for m in ("PLATELETS", "MCV", "MCH", "MCHC", "RDW"))
    write_csvs(
        directory,
        f"patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\nP1,M,67,2012-06-01,\nP2,F,{age},{diagnosis},\n",
        "patient_id,measure,value,date,ref_low,ref_high\n" + panel + panel.replace("P1", "P2"),
    )
    (directory / "meta.json").write_text(f'{{"data_end_date": "{end}"}}\n')
    return directory


@pytest.mark.parametrize("command", ["ingest", "features"])
def test_age_beyond_int64_is_a_parser_error(tmp_path, capsys, command):
    cohort = _two_patient_cohort(tmp_path / "cohort", age=str(2**63))
    code, _, err = run(capsys, command, "--in", str(cohort), "--out", str(tmp_path / "out"))
    assert code == 1
    path = cohort / "patients.csv"
    # the first of the problems: P2's results then name an unknown patient
    assert err.startswith(f"error: {path}:3: field 'age_at_diagnosis': must be at most {2**63 - 1}, got '{2**63}'; ")


@pytest.mark.parametrize("command", ["ingest", "features"])
def test_largest_int64_age_is_accepted(tmp_path, capsys, command):
    cohort = _two_patient_cohort(tmp_path / "cohort", age=str(2**63 - 1))
    assert run(capsys, command, "--in", str(cohort), "--out", str(tmp_path / "out"))[0] == 0


@pytest.mark.parametrize("table", ["patients.csv", "observations.csv"])
def test_ingest_rejects_a_field_over_the_csv_limit(tmp_path, capsys, table):
    # such a field used to end ingest with a _csv.Error traceback
    cohort = _two_patient_cohort(tmp_path / "cohort")
    path = cohort / table
    lines = path.read_text().splitlines(keepends=True)
    limit = csv.field_size_limit()
    lines[2] = "P" * (limit + 1) + lines[2][len("P1") :]
    path.write_text("".join(lines))
    code, _, err = run(capsys, "ingest", "--in", str(cohort), "--out", str(tmp_path / "out"))
    assert (code, err) == (1, f"error: {path}:3: field larger than field limit ({limit})\n")


@pytest.mark.parametrize("command", ["ingest", "stats", "label", "features"])
def test_far_future_diagnosis_lacks_follow_up(tmp_path, capsys, command):
    # 9999-06-01 plus two years is past the last date a datetime.date holds
    cohort = _two_patient_cohort(tmp_path / "cohort", diagnosis="9999-06-01", end="9999-12-31")
    code, _, err = run(capsys, command, "--in", str(cohort), "--out", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    if command != "stats":
        report = json.loads((tmp_path / "out" / "filter_report.json").read_text())
        assert report == {"removed_insufficient_followup": 1, "removed_incomplete_panel": 0, "retained": 1}


def csv_bytes(cohort_dir):
    return {name: (cohort_dir / name).read_bytes() for name in CSV_FILES}


def serialised_bytes(in_dir, out, data_end_date=None):
    """The CSV bytes that write_cohort serialises for the cohort read from in_dir."""
    write_cohort(read_cohort(in_dir, data_end_date), out)
    return csv_bytes(out)


def assert_sidecar_trusted(cohort_dir, monkeypatch):
    end = read_cohort(cohort_dir).data_end_date
    expected = ingest_cohort(cohort_dir / "patients.csv", cohort_dir / "observations.csv", end)
    with monkeypatch.context() as patch:
        patch.setattr(fbcsurv.cohort, "ingest_cohort", lambda *args: pytest.fail("read_cohort parsed the CSVs"))
        assert read_cohort(cohort_dir) == expected


def test_ingest_copies_the_csvs_its_input_sidecar_proves(cohort_dir, tmp_path, monkeypatch):
    def no_writer(*args, **kwargs):
        raise AssertionError("write_cohort serialised the CSVs instead of copying them")

    ingested = tmp_path / "ingested"
    with monkeypatch.context() as patch:
        patch.setattr(fbcsurv.tables.csv, "writer", no_writer)
        assert main(["ingest", "--in", str(cohort_dir), "--out", str(ingested)]) == 0
    assert csv_bytes(ingested) == csv_bytes(cohort_dir) == serialised_bytes(cohort_dir, tmp_path / "fresh")
    assert_sidecar_trusted(ingested, monkeypatch)


def fields(array, field):
    return (array if field is None else array[field]).tobytes()


def test_ingest_into_its_own_directory(cohort_dir, tmp_path, monkeypatch):
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    before = csv_bytes(cohort)
    with np.load(cohort / SIDECAR) as npz:
        arrays = {name: npz[name] for name in npz.files}
    assert main(["ingest", "--in", str(cohort), "--out", str(cohort)]) == 0
    assert csv_bytes(cohort) == before
    with np.load(cohort / SIDECAR) as npz:
        assert sorted(npz.files) == sorted(arrays)
        for name, array in arrays.items():
            for field in array.dtype.names or [None]:  # padding bytes between record fields carry no data
                assert fields(npz[name], field) == fields(array, field), (name, field)
    assert_sidecar_trusted(cohort, monkeypatch)


def _crlf(cohort):
    path = cohort / "patients.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


@pytest.mark.parametrize(
    "prepare, extra",
    [
        (lambda cohort: (cohort / SIDECAR).unlink(), []),
        (lambda cohort: (cohort / SIDECAR).write_bytes((cohort / SIDECAR).read_bytes()[:1000]), []),
        (_crlf, []),
        (lambda cohort: None, ["--data-end-date", "2019-06-30"]),
    ],
    ids=["no_sidecar", "spoiled_sidecar", "crlf_patients", "data_end_date"],
)
def test_ingest_writes_the_bytes_write_cohort_serialises(cohort_dir, tmp_path, monkeypatch, prepare, extra):
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    prepare(cohort)
    ingested = tmp_path / "ingested"
    assert main(["ingest", "--in", str(cohort), "--out", str(ingested), *extra]) == 0
    end = date.fromisoformat(extra[1]) if extra else None
    # the synth CSVs are write_cohort's own bytes, so every case writes them
    assert csv_bytes(ingested) == serialised_bytes(cohort, tmp_path / "fresh", end) == csv_bytes(cohort_dir)
    data_end_date = json.loads((ingested / "meta.json").read_text())["data_end_date"]
    assert data_end_date == (extra[1] if extra else json.loads((cohort_dir / "meta.json").read_text())["data_end_date"])
    assert_sidecar_trusted(ingested, monkeypatch)


def test_data_end_date_before_an_observation_gives_the_parser_message(cohort_dir, tmp_path, capsys):
    with pytest.raises(CohortError) as parsed:
        ingest_cohort(cohort_dir / "patients.csv", cohort_dir / "observations.csv", date(2015, 1, 1))
    code, _, err = run(capsys, "stats", "--in", str(cohort_dir), "--out", str(tmp_path / "s"), "--data-end-date", "2015-01-01")
    assert code == 1
    assert err == f"error: {parsed.value}\n"
    assert "is after data_end_date 2015-01-01" in err


@pytest.mark.parametrize(
    "meta_text, problem",
    [
        ("{}\n", "missing field 'data_end_date'"),
        ('{"data_end_date": 20181231}\n', "field 'data_end_date': must be a YYYY-MM-DD date string, got 20181231"),
        ('{"data_end_date": "31/12/2018"}\n', "field 'data_end_date': must be a YYYY-MM-DD date string, got '31/12/2018'"),
        ('{"data_end_date": "2018-W52-1"}\n', "field 'data_end_date': must be a YYYY-MM-DD date string, got '2018-W52-1'"),
        ("", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["missing_field", "not_a_string", "bad_date", "iso_week_date", "invalid_json"],
)
def test_malformed_meta_names_the_file(tmp_path, capsys, meta_text, problem):
    write_csvs(
        tmp_path,
        "patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\nP1,M,67,2012-06-01,\n",
        "patient_id,measure,value,date,ref_low,ref_high\n",
    )
    (tmp_path / "meta.json").write_text(meta_text)
    code, _, err = run(capsys, "stats", "--in", str(tmp_path), "--out", str(tmp_path / "s"))
    assert code == 1
    assert err == f"error: {tmp_path / 'meta.json'}: {problem}\n"


@pytest.mark.parametrize(
    "patient_date, observation_rows, problem",
    [
        ("2012-W22-5", "", "patients.csv:2: field 'diagnosis_date': unparseable date '2012-W22-5'"),
        ("2012-06-01", "P1,PLATELETS,300,20130918,150,450\n",
         "observations.csv:2: field 'date': unparseable date '20130918'"),
    ],
    ids=["patients_iso_week_date", "observations_basic_date"],
)
def test_a_csv_date_other_than_yyyy_mm_dd_names_file_line_and_field(tmp_path, capsys, patient_date, observation_rows,
                                                                     problem):
    # Python 3.11's date.fromisoformat reads both forms, and ingest used to write them back as YYYY-MM-DD
    write_csvs(
        tmp_path,
        f"patient_id,sex,age_at_diagnosis,diagnosis_date,death_date\nP1,M,67,{patient_date},\n",
        f"patient_id,measure,value,date,ref_low,ref_high\n{observation_rows}",
    )
    code, _, err = run(capsys, "ingest", "--in", str(tmp_path), "--out", str(tmp_path / "o"), "--data-end-date",
                       "2018-12-31")
    assert (code, err) == (1, f"error: {tmp_path / problem}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config_text, problem",
    [
        ('{"bogus": 1}\n', "unknown generator config keys ['bogus']"),
        ("[1, 2]\n", "a generator config must be a JSON object, got list"),
        ('{"n_patients": "ten"}\n', "n_patients must be an integer, got 'ten'"),
        ('{"n_patients": 1000000}\n', "n_patients must lie in 1..999999, got 1000000"),
        ("nope\n", "Expecting value: line 1 column 1 (char 0)"),
        ('{"p_oor_given_risk": {"MCV": 0.3}}\n', "p_oor_given_risk needs a value for every measure; "
         "['PLATELETS', 'MCH', 'MCHC', 'RDW'] missing"),
        ('{"seed": -1}\n', "seed must be >= 0, got -1"),
    ],
    ids=["unknown_key", "not_an_object", "string_count", "too_many_patients", "invalid_json", "missing_measure",
         "negative_seed"],
)
def test_synth_rejects_a_malformed_config(tmp_path, capsys, config_text, problem):
    # each of these used to end in a TypeError traceback, or, for invalid JSON, an error without the file name
    config = tmp_path / "generator.json"
    config.write_text(config_text)
    code, _, err = run(capsys, "synth", "--config", str(config), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err == f"error: {config}: {problem}\n"
    assert not (tmp_path / "o").exists()


FAST_EVALUATE = ["--versions", "v1", "--k-min", "5", "--k-max", "5", "--ada-rounds", "5", "--gbt-rounds", "5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stats", "--data-end-date", "garbage"], "--data-end-date must be a YYYY-MM-DD date, got 'garbage': "
         "Invalid isoformat string: 'garbage'"),
        (["label", "--data-end-date", "2018-13-01"], "--data-end-date must be a YYYY-MM-DD date, got '2018-13-01': "
         "month must be in 1..12"),
        (["stats", "--data-end-date", "2018-W52-1"], "--data-end-date must be a YYYY-MM-DD date, got '2018-W52-1': "
         "Invalid isoformat string: '2018-W52-1'"),
        (["synth", "--p-death", "0.1,x,0.3"], "--p-death needs three comma-separated probabilities, got '0.1,x,0.3'"),
        (["synth", "--p-death", "0.1,0.3"], "--p-death needs three comma-separated probabilities, got '0.1,0.3'"),
        (["synth", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["evaluate", "--seed", "-1"], "--seed must be >= 0, got -1"),
    ],
    ids=["unparsable_date", "month_13", "iso_week_date", "p_death_not_a_number", "p_death_two_values", "synth_seed", "evaluate_seed"],
)
def test_a_bad_flag_value_names_the_flag(cohort_dir, tmp_path, capsys, monkeypatch, argv, message):
    # each of these used to print only the parser's or numpy's message, naming no flag; evaluate failed only
    # after it had read and labeled the cohort
    monkeypatch.setattr(fbcsurv.cli, "read_cohort", lambda *args, **kwargs: pytest.fail("the cohort was read"))
    command, *flags = argv
    inputs = [] if command == "synth" else ["--in", str(cohort_dir)]
    code, _, err = run(capsys, command, *inputs, "--out", str(tmp_path / "o"), *flags)
    assert (code, err) == (1, f"error: {message}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["stats", "label", "features", "evaluate"])
def test_non_finite_soft_margin_rejected(cohort_dir, tmp_path, capsys, command):
    # a NaN margin used to make every V5 label 1 and an infinite one every V5 label 2, with exit 0
    for margin in ("nan", "inf", "-inf"):
        code, _, err = run(capsys, command, "--in", str(cohort_dir), "--out", str(tmp_path / margin), f"--soft-margin={margin}")
        assert code == 1
        assert err == f"error: soft_margin must be finite, got {margin}\n"
    for margin in ("-0.2", "0.7"):
        extra = FAST_EVALUATE if command == "evaluate" else []
        assert main([command, "--in", str(cohort_dir), "--out", str(tmp_path / margin), f"--soft-margin={margin}", *extra]) == 0


@pytest.mark.parametrize("command", ["stats", "label", "features", "evaluate"])
def test_overflowing_soft_margin_rejected(cohort_dir, tmp_path, capsys, command):
    # a margin whose shrink overflows used to print numpy's overflow warning, make every soft range
    # (inf, -inf) and exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run(capsys, command, "--in", str(cohort_dir), "--out", str(tmp_path / "o"), "--soft-margin=1e308")
    assert code == 1
    assert err == "error: soft_margin 1e+308 is too large: margin * (high - low) is not finite\n"


@pytest.mark.parametrize("flag", ["--gbt-rounds", "--ada-rounds"])
def test_too_many_boosting_rounds_rejected(cohort_dir, tmp_path, capsys, flag):
    # 10**20 rounds used to fail in numpy with "Maximum allowed dimension exceeded", naming no flag; only values the
    # check rejects are run, as an accepted large value would size a grower for that many rounds
    name = flag[2:].replace("-", "_")
    for rounds in (str(10**20), str(MAX_ROUNDS + 1)):
        code, _, err = run(capsys, "evaluate", "--in", str(cohort_dir), "--out", str(tmp_path / rounds), flag, rounds)
        assert (code, err) == (1, f"error: {name} must lie in 0..{MAX_ROUNDS}, got {rounds}\n")
        assert not (tmp_path / rounds / "results.csv").exists()


@pytest.mark.parametrize("command", ["label", "features", "evaluate"])
def test_negative_far_days_rejected(cohort_dir, tmp_path, capsys, command):
    # a negative far horizon used to make every V3 label 1, with exit 0
    extra = FAST_EVALUATE if command == "evaluate" else []
    for days in ("-400", "-1"):
        code, _, err = run(capsys, command, "--in", str(cohort_dir), "--out", str(tmp_path / days), f"--window-far-days={days}", *extra)
        assert code == 1
        assert err == f"error: far_days must be >= 0, got {days}\n"
    assert main([command, "--in", str(cohort_dir), "--out", str(tmp_path / "0"), "--window-far-days=0", *extra]) == 0


def _flag_surface(parser) -> dict:
    """(option strings, dest, type name, default) of every flag, per subcommand."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [
            (tuple(a.option_strings), a.dest, getattr(a.type, "__name__", None), a.default)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, sub in commands.choices.items()
    }


def test_flag_surface():
    cohort_input = [(("--in",), "in_dir", None, None), (("--data-end-date",), "data_end_date", None, None)]
    out = [(("--out",), "out", None, None)]
    close = [(("--window-close",), "window_close", "_parse_window", DiagnosisWindow(-60, 30))]
    far = [(("--window-far-days",), "window_far_days", "int", 180)]
    margin = [(("--soft-margin",), "soft_margin", "float", 0.025)]
    assert _flag_surface(build_parser()) == {
        "synth": [
            (("--n",), "n", "int", None),
            (("--seed",), "seed", "int", None),
            *out,
            (("--config",), "config", None, None),
            (("--p-death",), "p_death", None, None),
            (("--p-oor-risk",), "p_oor_risk", "float", None),
            (("--p-oor-norisk",), "p_oor_norisk", "float", None),
            (("--latent-risk",), "latent_risk", "float", None),
            (("--window-bias",), "window_bias", "float", None),
            (("--sex-delta",), "sex_delta", "float", None),
            (("--female-g3-boost",), "female_g3_boost", "float", None),
        ],
        "ingest": [*cohort_input, *out],
        "stats": [
            *cohort_input,
            *out,
            *close,
            *margin,
            (("--pre-filter-stats", "--no-pre-filter-stats"), "pre_filter_stats", None, True),
        ],
        "label": [*cohort_input, *out, *close, *far, *margin],
        "features": [
            *cohort_input,
            *out,
            (("--version",), "version", "Version", Version.V1),
            (("--extra-version",), "extra_version", "Version", None),
            *close,
            *far,
            *margin,
        ],
        "select": [
            (("--features",), "features", None, None),
            (("--k",), "k", "int", None),
            *out,
        ],
        "evaluate": [
            *cohort_input,
            *out,
            (("--seed",), "seed", "int", 0),
            (("--jobs",), "jobs", "int", 1),
            (("--versions",), "versions", "_parse_versions", tuple(Version)),
            (("--k-min",), "k_min", "int", 5),
            (("--k-max",), "k_max", "int", 25),
            *close,
            *far,
            *margin,
            (("--tree-max-depth",), "tree_max_depth", "int", 4),
            (("--tree-min-leaf",), "tree_min_leaf", "int", 5),
            (("--ada-rounds",), "ada_rounds", "int", 50),
            (("--gbt-rounds",), "gbt_rounds", "int", 100),
            (("--gbt-depth",), "gbt_depth", "int", 3),
            (("--gbt-learning-rate",), "gbt_learning_rate", "float", 0.1),
            (("--gbt-l2",), "gbt_l2", "float", 1.0),
        ],
    }


def test_evaluate_default_echo(cohort_dir, tmp_path):
    out = tmp_path / "e"
    assert main(["evaluate", "--in", str(cohort_dir), "--out", str(out), "--versions", "v1", "--k-min", "5", "--k-max", "5"]) == 0
    config = json.loads((out / "config.json").read_text())
    assert config["hyperparameters"] == Hyperparameters().to_dict()
    assert config["window_far_days"] == FAR_DAYS_DEFAULT
    assert config["soft_margin"] == SOFT_MARGIN_DEFAULT
    assert config["window_close"] == [DEFAULT_WINDOW.start_offset_days, DEFAULT_WINDOW.end_offset_days]


@pytest.mark.parametrize("command", ["ingest", "stats", "label", "features", "evaluate"])
def test_cohort_commands_echo_the_resolved_data_end_date(cohort_dir, tmp_path, command):
    extra = FAST_EVALUATE if command == "evaluate" else []
    meta = json.loads((cohort_dir / "meta.json").read_text())["data_end_date"]
    assert main([command, "--in", str(cohort_dir), "--out", str(tmp_path / "meta"), *extra]) == 0
    assert json.loads((tmp_path / "meta" / "config.json").read_text())["data_end_date"] == meta
    later = (date.fromisoformat(meta) + timedelta(days=90)).isoformat()
    assert main([command, "--in", str(cohort_dir), "--out", str(tmp_path / "flag"), "--data-end-date", later, *extra]) == 0
    assert json.loads((tmp_path / "flag" / "config.json").read_text())["data_end_date"] == later
