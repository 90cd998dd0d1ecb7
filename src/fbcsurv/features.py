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
import io
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .cohort import INT64, Cohort, Measure, MEASURES, Sex, died_within_follow_up
from .labeling import VERSION_INDEX, CohortLabels, Version
from .tables import BLOCK_CELLS, csv_field, csv_rows, parse_digit_cells, write_table

SEX_CODE = {Sex.MALE: 1, Sex.FEMALE: 20}

PAIRS = tuple(combinations(MEASURES, 2))
TRIPLES = tuple(combinations(MEASURES, 3))


def age_group(age_at_diagnosis):
    """Decade group: the first digit of the age (69 -> 6, 9 -> 0), of one int or elementwise of an int array."""
    negative = np.less(age_at_diagnosis, 0)
    if negative.any():
        raise ValueError(f"age must be non-negative, got {np.asarray(age_at_diagnosis)[negative].flat[0]}")
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
    patient_ids = cohort.patient_ids
    per_patient = labels.rows_for(patient_ids).astype(np.int64)
    sex_code = np.where(cohort.sex == Sex.MALE.value, SEX_CODE[Sex.MALE], SEX_CODE[Sex.FEMALE]).astype(np.int64)
    ages = age_group(cohort.age)
    scheme = _scheme_block(per_patient[:, :, VERSION_INDEX[version]], sex_code)
    blocks = [scheme[:, :5], sex_code[:, None], ages[:, None], scheme[:, 5:]]
    if extra_version is not None:
        blocks.append(_scheme_block(per_patient[:, :, VERSION_INDEX[extra_version]], sex_code))
    X = np.hstack(blocks)
    y = died_within_follow_up(cohort.diagnosis, cohort.death).astype(np.int64)
    return FeatureMatrix(column_names=columns, patient_ids=patient_ids, X=X, y=y)


def write_features_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    write_table(
        path,
        ["patient_id", "target", *matrix.column_names],
        (csv_field(pid) + "," for pid in matrix.patient_ids),
        matrix.y[:, None],
        matrix.X,
    )


def read_features_csv(path: str | Path) -> FeatureMatrix:
    """Load a features.csv.

    A row whose field count differs from the header's, a cell that is not an
    integer within int64, a target other than 0 or 1, a repeated column name
    or a field longer than csv.field_size_limit() characters raises ValueError
    naming path:line. Canonical text, as write_features_csv writes
    non-negative values, is parsed a block of rows at a time, each block's
    cells in one numpy pass; any other text goes through csv.reader row by
    row, which also reports every error.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    columns, ids, y, X = _parse_canonical(path, text) or _parse_rows(path, text)
    return FeatureMatrix(column_names=columns, patient_ids=ids, X=X, y=y)


def _columns(path: str | Path, header: list[str] | None) -> tuple[str, ...]:
    if header is None or header[:2] != ["patient_id", "target"]:
        raise ValueError(f"{path}: expected header starting patient_id,target")
    columns = tuple(header[2:])
    seen = set()
    for name in columns:
        if name in seen:
            raise ValueError(f"{path}:1: duplicate column {name!r}")
        seen.add(name)
    return columns


def _parse_canonical(path: str | Path, text: str):
    """(columns, ids, y, X) of canonical text, else None.

    Canonical: no quote and no carriage return, so csv.reader would split each
    line on its commas; a newline after the last line; no line longer than
    csv.field_size_limit(), so csv.reader would accept each field; at least
    one row and one column; every line with the header's comma count;
    targets and cells ASCII digits (parse_digit_cells) with every target 0 or
    1. The rows are parsed a block at a time into arrays allocated once, so
    only one block's cell text is held beside them.
    """
    if '"' in text or "\r" in text or not text.endswith("\n"):
        return None
    lines = text.split("\n")
    lines.pop()  # the empty string after the final newline
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    columns = _columns(path, lines[0].split(","))
    n, width = len(lines) - 1, len(columns)
    if not n or not width:
        return None
    ids, y, X = [], np.empty(n, dtype=np.int64), np.empty((n, width), dtype=np.int64)
    step = max(1, BLOCK_CELLS // width)
    for start in range(0, n, step):
        block = lines[1 + start : 1 + start + step]
        if any(line.count(",") != width + 1 for line in block):
            return None
        block_ids, targets, cells = zip(*(line.split(",", 2) for line in block))
        block_y = parse_digit_cells(",".join(targets), (len(block),))
        block_X = parse_digit_cells(",".join(cells), (len(block), width))
        if block_y is None or block_y.max() > 1 or block_X is None:
            return None
        ids.extend(block_ids)
        y[start : start + len(block)] = block_y
        X[start : start + len(block)] = block_X
    return columns, tuple(ids), y, X


def _parse_rows(path: str | Path, text: str):
    """(columns, ids, y, X) through csv.reader, one row at a time; raises ValueError on the first bad row."""
    reader = csv_rows(io.StringIO(text, newline=""), path)
    header = next(reader, None)
    columns = _columns(path, header)
    ids, rows = [], []
    for line, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
        try:
            values = [int(v) for v in row[1:]]
        except ValueError:
            for name, raw in zip(header[1:], row[1:]):
                try:
                    int(raw)
                except ValueError:
                    raise ValueError(f"{path}:{line}: field {name!r}: must be an integer, got {raw!r}") from None
        if values[0] not in (0, 1):
            raise ValueError(f"{path}:{line}: field 'target': must be 0 or 1, got {row[1]!r}")
        if min(values) < INT64.min or max(values) > INT64.max:
            for name, raw, value in zip(header[1:], row[1:], values):
                if not INT64.min <= value <= INT64.max:
                    raise ValueError(f"{path}:{line}: field {name!r}: must be an integer within int64, got {raw!r}")
        ids.append(row[0])
        rows.append(values)
    data = np.asarray(rows, dtype=np.int64).reshape(len(ids), 1 + len(columns))
    return columns, tuple(ids), data[:, 0].copy(), np.ascontiguousarray(data[:, 1:])
