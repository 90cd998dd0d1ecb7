"""Golden outputs: sha256 of the sweep CSVs for small fixed sweeps.

The hashes pin what `fbcsurv evaluate` computes, at every `--jobs` value. A
change that alters results on purpose must update them and say why.
"""

import hashlib

import pytest

from fbcsurv.cli import main

SWEEP_FILES = ("results.csv", "summary.csv", "consistency.csv")

# synth --n 200 --seed 3; evaluate --seed 3 --versions v1,v4 --k-min 5 --k-max 8, default hyperparameters
DEFAULT_SWEEP = {
    "results.csv": "0eadf23e044ba0b05c12578c53f75612e5146a2add6fbe7166614a05df62b98c",
    "summary.csv": "7a46b939362f92cbb157779407b4fae308ed5a16e604d6d33377d2364cd2bbb4",
    "consistency.csv": "c32b3f41d028118d7fbe5c4cdb263f365de61c3ba15c87ab59faf7e636a86294",
}

# synth --n 120 --seed 11; evaluate --seed 11 --versions v2 --k-min 3 --k-max 30 with the flags below;
# the GBT models of a fold span more than one lockstep group here
WIDE_K_ARGS = ["--ada-rounds", "10", "--gbt-rounds", "20", "--gbt-depth", "4", "--gbt-l2", "0"]
WIDE_K_SWEEP = {
    "results.csv": "b97e603d32745b7ca75b1898d8689dc2591248104a1bef55c38334e03b8bd005",
    "summary.csv": "4d9de34ca3a198c10d4fdbd5ca1a5c774c02989339dfc88b1e4ece020ee9a661",
    "consistency.csv": "f01f02dbb3cb52d5dc1a4f36836b3c92c0f652ae8a01c731fa037f1b5f5f272d",
}


# synth --n 150 --seed 5; evaluate --seed 5 --versions v3 --k-min 3 --k-max 12 with the flags below;
# most decision trees grow past depth 4, many to the full 12
DEEP_TREE_ARGS = ["--tree-max-depth", "12", "--tree-min-leaf", "1", "--ada-rounds", "10", "--gbt-rounds", "10"]
DEEP_TREE_SWEEP = {
    "results.csv": "0364f14dda25b00da4c494830daefc98b111ab07a7e6e9286feceaf99e1f9277",
    "summary.csv": "4df198c17b27c820382c97ed62076e1d628fe0a58e0879c4933570edd6ec0f9f",
    "consistency.csv": "7e1469101298687855f9a9dac2c5c1e2186036f92717be8882b1094152cc2e77",
}


def _cohort(tmp_path_factory, n: int, seed: int):
    out = tmp_path_factory.mktemp(f"cohort{n}")
    assert main(["synth", "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
    return out


def _digests(out) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SWEEP_FILES}


@pytest.fixture(scope="module")
def cohort_200(tmp_path_factory):
    return _cohort(tmp_path_factory, 200, 3)


@pytest.mark.parametrize("jobs", [1, 2])
def test_golden_default_sweep(cohort_200, tmp_path, jobs):
    argv = ["evaluate", "--in", str(cohort_200), "--out", str(tmp_path), "--seed", "3", "--jobs", str(jobs),
            "--versions", "v1,v4", "--k-min", "5", "--k-max", "8"]
    assert main(argv) == 0
    assert _digests(tmp_path) == DEFAULT_SWEEP


def test_golden_wide_k_sweep(tmp_path_factory, tmp_path):
    cohort = _cohort(tmp_path_factory, 120, 11)
    argv = ["evaluate", "--in", str(cohort), "--out", str(tmp_path), "--seed", "11",
            "--versions", "v2", "--k-min", "3", "--k-max", "30", *WIDE_K_ARGS]
    assert main(argv) == 0
    assert _digests(tmp_path) == WIDE_K_SWEEP


@pytest.fixture(scope="module")
def cohort_150(tmp_path_factory):
    return _cohort(tmp_path_factory, 150, 5)


@pytest.mark.parametrize("jobs", [1, 2])
def test_golden_deep_tree_sweep(cohort_150, tmp_path, jobs):
    argv = ["evaluate", "--in", str(cohort_150), "--out", str(tmp_path), "--seed", "5", "--jobs", str(jobs),
            "--versions", "v3", "--k-min", "3", "--k-max", "12", *DEEP_TREE_ARGS]
    assert main(argv) == 0
    assert _digests(tmp_path) == DEEP_TREE_SWEEP
