import json
import os

import pytest

import fbcsurv.evaluation
from fbcsurv.cli import main

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
    ],
)
def test_select_rejects_malformed_features(tmp_path, capsys, row, message):
    features = tmp_path / "features.csv"
    features.write_text(f"patient_id,target,a,b\nP1,0,1,2\nP2,1,2,1\n{row}\n")
    code, _, err = run(capsys, "select", "--features", str(features), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.strip() == f"error: {features}:4: {message}"
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
