"""Deterministic feature matrix construction from per-measure labels.

Column layout (88 columns, fixed order; measures ordered PLATELETS, MCV,
MCH, MCHC, RDW throughout, matching the panel order):

    lbl_<MEASURE> x5 | sex | age_group | sum5
    | add_<M1>_<M2> x10 | mul_<M1>_<M2> x10
    | add_<M1>_<M2>_<M3> x10 | mul_<M1>_<M2>_<M3> x10
    | sexadd_<combo> x40

Pair/triple operands are the five base labels; sex is coded 1 for male and
20 for female so the sex-crossed sums stay separable. An optional second
labeling scheme appends its 86 scheme-dependent columns under an x<version>_
prefix (sex and age_group are scheme-independent and not repeated).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .cohort import Cohort, Measure, MEASURES, Sex, survival_label
from .labeling import VERSION_INDEX, CohortLabels, Version

SEX_CODE = {Sex.MALE: 1, Sex.FEMALE: 20}

PAIRS = tuple(combinations(MEASURES, 2))
TRIPLES = tuple(combinations(MEASURES, 3))


def age_group(age_at_diagnosis: int) -> int:
    """Decade group: the first digit of the age (69 -> 6, 9 -> 0)."""
    if age_at_diagnosis < 0:
        raise ValueError(f"age must be non-negative, got {age_at_diagnosis}")
    return age_at_diagnosis // 10


def _combo_name(op: str, measures: tuple[Measure, ...]) -> str:
    return f"{op}_" + "_".join(m.value for m in measures)


def _scheme_columns() -> list[str]:
    """The 86 scheme-dependent column names, unprefixed and in matrix order."""
    cols = [f"lbl_{m.value}" for m in MEASURES]
    cols.append("sum5")
    combo = [_combo_name("add", p) for p in PAIRS]
    combo += [_combo_name("mul", p) for p in PAIRS]
    combo += [_combo_name("add", t) for t in TRIPLES]
    combo += [_combo_name("mul", t) for t in TRIPLES]
    cols += combo
    cols += [f"sexadd_{name}" for name in combo]
    return cols


def feature_columns(extra_version: Version | None = None) -> tuple[str, ...]:
    scheme = _scheme_columns()
    cols = scheme[:5] + ["sex", "age_group"] + scheme[5:]
    if extra_version is not None:
        cols += [f"x{extra_version.value}_{name}" for name in _scheme_columns()]
    return tuple(cols)


@dataclass(frozen=True)
class FeatureMatrix:
    column_names: tuple[str, ...]
    patient_ids: tuple[str, ...]
    X: np.ndarray  # (n_patients, n_columns) small non-negative ints
    y: np.ndarray  # (n_patients,) 1 = deceased within 2y
    version: Version
    extra_version: Version | None = None

    def __post_init__(self):
        if self.X.shape != (len(self.patient_ids), len(self.column_names)):
            raise ValueError(f"matrix shape {self.X.shape} does not match ids/columns")
        if self.y.shape != (len(self.patient_ids),):
            raise ValueError("target length does not match patient count")

    def column_index(self, name: str) -> int:
        return self.column_names.index(name)


# positions of each pair's and triple's measures in the (n, 5) label matrix
_PAIR_INDEX = np.array([[MEASURES.index(m) for m in p] for p in PAIRS])
_TRIPLE_INDEX = np.array([[MEASURES.index(m) for m in t] for t in TRIPLES])


def _scheme_block(base: np.ndarray, sex_code: np.ndarray) -> np.ndarray:
    """The 86 scheme-dependent columns from the (n, 5) base labels, in matrix order."""
    pairs = base[:, _PAIR_INDEX]
    triples = base[:, _TRIPLE_INDEX]
    combo = np.hstack((pairs.sum(axis=2), pairs.prod(axis=2), triples.sum(axis=2), triples.prod(axis=2)))
    return np.hstack((base, base.sum(axis=1, keepdims=True), combo, combo + sex_code[:, None]))


def build_matrix(
    cohort: Cohort,
    labels: CohortLabels,
    version: Version,
    extra_version: Version | None = None,
) -> FeatureMatrix:
    """Assemble the named feature matrix for one labeling scheme.

    Column order is fixed before any row is built; regeneration from the same
    inputs is byte-identical after serialization.
    """
    columns = feature_columns(extra_version)
    patient_ids = cohort.patient_ids()
    per_patient = labels.rows_for(patient_ids).astype(np.int64)
    sex_code = np.array([SEX_CODE[p.sex] for p in cohort.patients], dtype=np.int64)
    ages = np.array([age_group(p.age_at_diagnosis) for p in cohort.patients], dtype=np.int64)
    scheme = _scheme_block(per_patient[:, :, VERSION_INDEX[version]], sex_code)
    blocks = [scheme[:, :5], sex_code[:, None], ages[:, None], scheme[:, 5:]]
    if extra_version is not None:
        blocks.append(_scheme_block(per_patient[:, :, VERSION_INDEX[extra_version]], sex_code))
    X = np.hstack(blocks)
    y = np.array([survival_label(p).value for p in cohort.patients], dtype=np.int64)
    return FeatureMatrix(
        column_names=columns,
        patient_ids=patient_ids,
        X=X,
        y=y,
        version=version,
        extra_version=extra_version,
    )


def write_features_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["patient_id", "target", *matrix.column_names])
        for pid, row, target in zip(matrix.patient_ids, matrix.X.tolist(), matrix.y.tolist()):
            writer.writerow([pid, target, *row])


def read_features_csv(path: str | Path, version: Version = Version.V1) -> FeatureMatrix:
    """Load a features.csv; the version tag is informational for loaded files.

    A row whose field count differs from the header's, a cell that is not an
    integer, or a target other than 0 or 1 raises ValueError naming path:line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["patient_id", "target"]:
            raise ValueError(f"{path}: expected header starting patient_id,target")
        columns = tuple(header[2:])
        ids, rows = [], []
        for line, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([int(v) for v in row[1:]])
            except ValueError:
                for name, raw in zip(header[1:], row[1:]):
                    try:
                        int(raw)
                    except ValueError:
                        raise ValueError(f"{path}:{line}: field {name!r}: must be an integer, got {raw!r}") from None
            if rows[-1][0] not in (0, 1):
                raise ValueError(f"{path}:{line}: field 'target': must be 0 or 1, got {row[1]!r}")
            ids.append(row[0])
    data = np.asarray(rows, dtype=np.int64).reshape(len(ids), 1 + len(columns))
    return FeatureMatrix(
        column_names=columns,
        patient_ids=tuple(ids),
        X=np.ascontiguousarray(data[:, 1:]),
        y=data[:, 0].copy(),
        version=version,
    )
