"""Golden outputs of the CLI chain: synth, ingest, stats, label, features, select and a small evaluate.

The sweep pins in test_golden.py start from a cohort directory; these pin the
files each earlier stage writes from it, so a change to how a cohort is read,
filtered, labeled, written or turned into features shows as a changed hash.
They also pin every JSON side file the chain writes. config.json echoes --in
and --out, so the chain runs inside its directory with relative paths.
"""

import hashlib
import os

import pytest

from fbcsurv.cli import main

# synth --n 200 --seed 3, then each stage below with default flags except features --extra-version v4
PIPELINE = {
    "ingest/patients.csv": "44300a24c9083db4e79d8932336d5533243ebabe6d54bc29a3466bf91cd79881",
    "ingest/observations.csv": "0b35fd373098f17426fdc155b8ffc8f0493ca904471e15b9fc755b6433e4c7e6",
    "stats/stats.csv": "06d7c6a5fa09b49a0ba423dff002c0e63f66a376568ce89c4d1ac9a5467225b5",
    "label/labels.csv": "c0197ff015a992cb9ab8252fbe5eaf51e4d5b6d8cad373231d90d68c6c402cde",
    "features/features.csv": "282b08e9caad8d0425d1c516311316ccf818af3908538e368367d477084a9224",
    "select/ranking.csv": "5235b6cc7569ac2b51a5859c0a07e59360fcacf38c3962de8ea87692dbd96c8e",
}

# every JSON file the chain writes; evaluate runs --seed 3 --versions v1 --k-min 5 --k-max 6 with 5 rounds each
JSON_SIDE_FILES = {
    "cohort/config.json": "8715e3d6677186dac0dcfc3528200aff244cee065f738a3070c29e53ac1a53ef",
    "cohort/generator_config.json": "7f5e767f3d35f8786b6b8f7da3808dfdaf71fcaed509aacfebd5d5fea383b7ac",
    "cohort/meta.json": "3bae039d58984abe51e26e7e62ddea2c8111a862612b6c6f2974482beb89c8cf",
    "evaluate/config.json": "14bef540a6667dd05564bbf5a947267115f98ba1dffa6b0adaee9a0112c181b0",
    "evaluate/filter_report.json": "79b4545678844401e3d3f4f18c7abdfc362ec8681b2b3ace681124c91b424f1f",
    "features/config.json": "cdd5772e05eeee0536634b2ac68a59d2394e5f4a99537817aa6558b879afbf64",
    "features/filter_report.json": "79b4545678844401e3d3f4f18c7abdfc362ec8681b2b3ace681124c91b424f1f",
    "ingest/config.json": "2932dfd04cdcd657e99a004572fd11ff79a1a075d914ab71b569c90010665e18",
    "ingest/filter_report.json": "79b4545678844401e3d3f4f18c7abdfc362ec8681b2b3ace681124c91b424f1f",
    "ingest/meta.json": "3bae039d58984abe51e26e7e62ddea2c8111a862612b6c6f2974482beb89c8cf",
    "label/config.json": "b30cf24fd0e482af7262b96f1d7da877bceddd089277b15ea6fa305beea28bac",
    "label/filter_report.json": "79b4545678844401e3d3f4f18c7abdfc362ec8681b2b3ace681124c91b424f1f",
    "select/config.json": "5e2ec9c11607d4c1b6b352efbc98ab01875ab04b6039c56e264587bb992fcdeb",
    "stats/config.json": "0d24b1c5a48cfd7227467f9f8577ab0e052c28d2338e1a3fde14903b279d7284",
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    stages = [
        ["synth", "--n", "200", "--seed", "3", "--out", "cohort"],
        ["ingest", "--in", "cohort", "--out", "ingest"],
        ["stats", "--in", "ingest", "--out", "stats"],
        ["label", "--in", "ingest", "--out", "label"],
        ["features", "--in", "ingest", "--out", "features", "--extra-version", "v4"],
        ["select", "--features", "features/features.csv", "--out", "select"],
        ["evaluate", "--in", "ingest", "--out", "evaluate", "--seed", "3", "--versions", "v1", "--k-min", "5",
         "--k-max", "6", "--ada-rounds", "5", "--gbt-rounds", "5"],
    ]
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in stages:
            assert main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return root


@pytest.mark.parametrize("name", sorted(PIPELINE))
def test_golden_pipeline_outputs(pipeline, name):
    assert hashlib.sha256((pipeline / name).read_bytes()).hexdigest() == PIPELINE[name]


def test_the_chain_writes_no_unpinned_json(pipeline):
    assert sorted(path.relative_to(pipeline).as_posix() for path in pipeline.rglob("*.json")) == sorted(JSON_SIDE_FILES)


@pytest.mark.parametrize("name", sorted(JSON_SIDE_FILES))
def test_golden_json_side_files(pipeline, name):
    assert hashlib.sha256((pipeline / name).read_bytes()).hexdigest() == JSON_SIDE_FILES[name]
