"""Output checks behind `wrong_outputs`.

Each check takes the path of one output file (plus what it needs to know
about the run) and returns a list of problems; an empty list means the file
is correct. The checks recompute what they can without the package: the
summary from the per-fold results, the chi-squared ranking from the feature
matrix, the label columns of the feature matrix from labels.csv. Pinned
sha256 values for the default seed live in expected.json and are compared
separately, as are the byte-identity checks between repeated, traced and
`--jobs 2` runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

MODELS = ("decision_tree", "adaboost", "gbt")
MEASURES = ("PLATELETS", "MCV", "MCH", "MCHC", "RDW")
SCHEMES = ("v1", "v2", "v3", "v4", "v5", "v6")
N_FOLDS = 10
SWEEP_FILES = ("results.csv", "summary.csv", "consistency.csv")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, list(reader)


def _unit(value: float, allow_nan: bool = False) -> bool:
    return (allow_nan and math.isnan(value)) or 0.0 <= value <= 1.0


# -- sweep outputs -----------------------------------------------------------


def check_results(path: Path, versions: tuple[str, ...], k_values: tuple[int, ...]) -> list[str]:
    header, rows = _rows(path)
    if header != ["version", "model", "k", "fold", "accuracy", "sensitivity", "specificity"]:
        return [f"results.csv: unexpected header {header}"]
    keys = [(v, m, str(k), str(f)) for v in versions for f in range(N_FOLDS) for k in k_values for m in MODELS]
    if [tuple(r[:4]) for r in rows] != keys:
        return [f"results.csv: {len(rows)} rows, not the {len(keys)} (version, fold, k, model) cells in order"]
    for r in rows:
        acc, sens, spec = (float(v) for v in r[4:])
        if not (_unit(acc) and _unit(sens, True) and _unit(spec, True)):
            return [f"results.csv: rate outside [0, 1] in row {r}"]
    return []


def check_summary(path: Path, results_path: Path, versions: tuple[str, ...], k_values: tuple[int, ...]) -> list[str]:
    """Recompute mean and population std per cell from results.csv; bytes must match."""
    _, rows = _rows(results_path)
    accs: dict[tuple[str, str, str], list[float]] = {}
    for version, model, k, _, acc, _, _ in rows:
        accs.setdefault((version, model, k), []).append(float(acc))
    lines = ["version,model,k,mean_accuracy,std"]
    for version in versions:
        for model in MODELS:
            for k in k_values:
                a = np.asarray(accs.get((version, model, str(k)), [math.nan]))
                lines.append(f"{version},{model},{k},{float(a.mean())!r},{float(a.std())!r}")
    if Path(path).read_text() != "\n".join(lines) + "\n":
        return ["summary.csv: differs from the mean/std recomputed from results.csv"]
    return []


def check_consistency(path: Path, versions: tuple[str, ...], k_values: tuple[int, ...]) -> list[str]:
    """Per k: features sorted, fractions are counts over the version x fold cells and sum to k."""
    header, rows = _rows(path)
    if header != ["feature", "k", "selection_fraction"]:
        return [f"consistency.csv: unexpected header {header}"]
    cells = len(versions) * N_FOLDS
    by_k: dict[str, list[tuple[str, float]]] = {}
    for feature, k, frac in rows:
        by_k.setdefault(k, []).append((feature, float(frac)))
    if list(by_k) != [str(k) for k in k_values]:
        return [f"consistency.csv: k blocks {list(by_k)}, expected {list(k_values)}"]
    for k, entries in by_k.items():
        names = [name for name, _ in entries]
        if names != sorted(names):
            return [f"consistency.csv: features not sorted for k={k}"]
        fracs = np.asarray([f for _, f in entries])
        counts = fracs * cells
        if not (np.all((fracs >= 0) & (fracs <= 1)) and np.allclose(counts, np.round(counts), atol=1e-9)):
            return [f"consistency.csv: fraction not a count over {cells} cells for k={k}"]
        if abs(counts.sum() - cells * int(k)) > 1e-6:
            return [f"consistency.csv: selections for k={k} do not add up to k per cell"]
    return []


def check_sweep(out_dir: Path, versions: tuple[str, ...], k_values: tuple[int, ...]) -> dict[str, list[str]]:
    out_dir = Path(out_dir)
    missing = {name: [f"{name}: missing"] for name in SWEEP_FILES if not (out_dir / name).exists()}
    if missing:
        return {name: missing.get(name, []) for name in SWEEP_FILES}
    return {
        "results.csv": check_results(out_dir / "results.csv", versions, k_values),
        "summary.csv": check_summary(out_dir / "summary.csv", out_dir / "results.csv", versions, k_values),
        "consistency.csv": check_consistency(out_dir / "consistency.csv", versions, k_values),
    }


# -- pipeline outputs ----------------------------------------------------------


def check_labels(path: Path, retained: int) -> list[str]:
    header, rows = _rows(path)
    if header != ["patient_id", "measure", *SCHEMES]:
        return [f"labels.csv: unexpected header {header}"]
    if len(rows) != len(MEASURES) * retained:
        return [f"labels.csv: {len(rows)} rows for {retained} retained patients"]
    if [r[1] for r in rows] != list(MEASURES) * retained:
        return ["labels.csv: measures not in panel order per patient"]
    if any(not 1 <= int(v) <= 3 for r in rows for v in r[2:]):
        return ["labels.csv: label outside 1..3"]
    return []


def check_features(path: Path, labels_path: Path, extra: str) -> list[str]:
    """The base-label columns of both schemes must equal labels.csv, and sum5 their sum."""
    header, rows = _rows(path)
    _, label_rows = _rows(labels_path)
    if header[:2] != ["patient_id", "target"] or len(header) != 2 + 88 + 86:
        return [f"features.csv: unexpected header of {len(header)} columns"]
    col = {name: j for j, name in enumerate(header)}
    labels: dict[str, dict[str, list[str]]] = {}
    for pid, measure, *values in label_rows:
        labels.setdefault(pid, {})[measure] = values
    if [r[0] for r in rows] != list(labels):
        return ["features.csv: patient rows differ from labels.csv"]
    v1, vx = SCHEMES.index("v1"), SCHEMES.index(extra)
    for r in rows:
        per = labels[r[0]]
        base = [r[col[f"lbl_{m}"]] for m in MEASURES]
        extra_base = [r[col[f"x{extra}_lbl_{m}"]] for m in MEASURES]
        if base != [per[m][v1] for m in MEASURES] or extra_base != [per[m][vx] for m in MEASURES]:
            return [f"features.csv: label columns of {r[0]} differ from labels.csv"]
        if int(r[col["sum5"]]) != sum(int(v) for v in base) or r[1] not in ("0", "1") or r[col["sex"]] not in ("1", "20"):
            return [f"features.csv: derived column wrong for {r[0]}"]
    return []


def _chi2(column: np.ndarray, y: np.ndarray) -> float:
    """Pearson chi-squared of a categorical column against a 0/1 target, cell by cell."""
    n, n1 = len(y), int(y.sum())
    stat = 0.0
    for value in np.unique(column):
        rows = column == value
        for cls, cls_total in ((0, n - n1), (1, n1)):
            expected = rows.sum() * cls_total / n
            if expected > 0:
                observed = np.sum(rows & (y == cls))
                stat += (observed - expected) ** 2 / expected
    return float(stat)


def check_ranking(path: Path, features_path: Path, k: int) -> list[str]:
    header, rows = _rows(path)
    if header != ["rank", "column_name", "chi2"] or len(rows) != k:
        return [f"ranking.csv: expected header rank,column_name,chi2 and {k} rows"]
    fheader, frows = _rows(features_path)
    X = np.asarray([[int(v) for v in r[2:]] for r in frows], dtype=np.int64)
    y = np.asarray([int(r[1]) for r in frows], dtype=np.int64)
    stat = {name: _chi2(X[:, j], y) for j, name in enumerate(fheader[2:])}

    def close(a: float, b: float) -> bool:
        # the recomputation sums in another order, so near-equal statistics may swap bits
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)

    previous = None
    for rank, (rank_field, name, recorded) in enumerate(rows, start=1):
        value = float(recorded)
        if rank_field != str(rank) or name not in stat or not close(value, stat[name]):
            return [f"ranking.csv: rank {rank} ({name}, {recorded}) disagrees with recomputed chi2"]
        if previous is not None and value > previous[1] and not close(value, previous[1]):
            return [f"ranking.csv: rank {rank} ({name}) ranks above a lower statistic"]
        if previous is not None and value == previous[1] and name < previous[0]:
            return [f"ranking.csv: tie at rank {rank} not broken by column name"]
        previous = (name, value)
    selected = {row[1] for row in rows}
    kth = float(rows[-1][2])
    for name, value in stat.items():
        if name not in selected and value > kth and not close(value, kth):
            return [f"ranking.csv: unselected column {name} has chi2 {value!r} above rank {k}"]
    return []


def check_stats(path: Path) -> list[str]:
    header, rows = _rows(path)
    if header != ["stratum", "measure", "group", "n_patients", "n_deceased", "pct_deceased"] or not rows:
        return [f"stats.csv: unexpected header {header} or no rows"]
    for r in rows:
        n, dead = int(r[3]), int(r[4])
        if not 0 <= dead <= n or r[5] != repr(100.0 * dead / n if n else 0.0):
            return [f"stats.csv: inconsistent row {r}"]
    return []


def check_pipeline(dirs: dict[str, Path], extra: str, k: int) -> dict[str, list[str]]:
    """`dirs` maps stage name to its output directory."""
    files = {
        "labels.csv": dirs["label"] / "labels.csv",
        "features.csv": dirs["features"] / "features.csv",
        "ranking.csv": dirs["select"] / "ranking.csv",
        "stats.csv": dirs["stats"] / "stats.csv",
    }
    problems = {name: [] if path.exists() else [f"{name}: missing"] for name, path in files.items()}
    if any(problems.values()):
        return problems
    with open(dirs["label"] / "filter_report.json") as fh:
        retained = json.load(fh)["retained"]
    return {
        "labels.csv": check_labels(files["labels.csv"], retained),
        "features.csv": check_features(files["features.csv"], files["labels.csv"], extra),
        "ranking.csv": check_ranking(files["ranking.csv"], files["features.csv"], k),
        "stats.csv": check_stats(files["stats.csv"]),
    }
