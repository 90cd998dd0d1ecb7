"""Golden outputs of the CLI chain before the sweep: synth, ingest, stats, label, features and select.

The sweep pins in test_golden.py start from a cohort directory; these pin the
files each earlier stage writes from it, so a change to how a cohort is read,
filtered, labeled, written or turned into features shows as a changed hash.
"""

import hashlib

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


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cohort = root / "cohort"
    stages = [
        ["synth", "--n", "200", "--seed", "3", "--out", cohort],
        ["ingest", "--in", cohort, "--out", root / "ingest"],
        ["stats", "--in", root / "ingest", "--out", root / "stats"],
        ["label", "--in", root / "ingest", "--out", root / "label"],
        ["features", "--in", root / "ingest", "--out", root / "features", "--extra-version", "v4"],
        ["select", "--features", root / "features" / "features.csv", "--out", root / "select"],
    ]
    for argv in stages:
        assert main([str(arg) for arg in argv]) == 0, argv
    return root


@pytest.mark.parametrize("name", sorted(PIPELINE))
def test_golden_pipeline_outputs(pipeline, name):
    assert hashlib.sha256((pipeline / name).read_bytes()).hexdigest() == PIPELINE[name]
