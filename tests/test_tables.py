"""Oracle tests of the integer table codec behind features.csv and labels.csv.

csv.writer over `tolist()` rows is the reference for the bytes written, and
the per-row parser (`features._parse_rows`, csv.reader and `int()` per cell)
is the reference for what a features.csv reads as: the one-pass parse of
canonical text must give the same matrix, and any other text the same matrix
or the same error.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fbcsurv.cohort import MEASURES
from fbcsurv.features import FeatureMatrix, _parse_canonical, _parse_rows, read_features_csv, write_features_csv
from fbcsurv.labeling import VERSIONS, CohortLabels, write_labels_csv
from fbcsurv.tables import BLOCK_CELLS

from conftest import make_cohort, make_patient

INT64 = np.iinfo(np.int64)
FILE_TESTS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

# csv.writer leaves a carriage return unquoted and csv.reader then splits the row there,
# so no id or column name holding one survives a write and a read, at any version
TEXT = st.text(st.characters(blacklist_characters="\r", blacklist_categories=("Cs",)), max_size=6)
QUOTED_TEXT = st.one_of(TEXT, st.sampled_from([",", '"', "\n", "a,b", 'say "x"', "\x00", "é", "日本", " lead"]))
EXTREMES = st.sampled_from([INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max])
CELLS = st.one_of(st.integers(0, 30), st.integers(INT64.min, INT64.max), EXTREMES)


@st.composite
def matrices(draw, cells=CELLS, ids=QUOTED_TEXT, names=QUOTED_TEXT, max_rows=8):
    n = draw(st.integers(0, max_rows))
    columns = tuple(draw(st.lists(names, min_size=0, max_size=5, unique=True)))
    X = np.array(draw(st.lists(st.lists(cells, min_size=len(columns), max_size=len(columns)), min_size=n, max_size=n)), dtype=np.int64)
    return FeatureMatrix(
        column_names=columns,
        patient_ids=tuple(draw(st.lists(ids, min_size=n, max_size=n))),
        X=X.reshape(n, len(columns)),
        y=np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64),
    )


def parts(matrix: FeatureMatrix):
    return matrix.column_names, matrix.patient_ids, matrix.y, matrix.X


def assert_same_parts(got, expected):
    """Equal (columns, ids, y, X), with C-contiguous int64 arrays of equal shape."""
    (columns, ids, y, X), (want_columns, want_ids, want_y, want_X) = got, expected
    assert columns == tuple(want_columns) and ids == tuple(want_ids)
    for array, want in ((X, want_X), (y, want_y)):
        assert array.dtype == np.int64 and array.flags.c_contiguous
        assert array.shape == want.shape and np.array_equal(array, want)


def csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


@FILE_TESTS
@given(matrices())
def test_features_round_trip_and_match_csv_writer_bytes(tmp_path, matrix):
    path = tmp_path / "features.csv"
    write_features_csv(matrix, path)
    rows = ([pid, target, *row] for pid, target, row in zip(matrix.patient_ids, matrix.y.tolist(), matrix.X.tolist()))
    assert path.read_bytes() == csv_writer_bytes(["patient_id", "target", *matrix.column_names], rows)
    assert_same_parts(parts(read_features_csv(path)), parts(matrix))


def assert_labels_match_csv_writer(tmp_path, ids, values):
    cohort = make_cohort([make_patient(pid) for pid in ids])
    path = tmp_path / "labels.csv"
    write_labels_csv(cohort, CohortLabels(cohort.patient_ids, values), path)
    rows = ([pid, m.value, *row] for pid, per_measure in zip(ids, values.tolist()) for m, row in zip(MEASURES, per_measure))
    assert path.read_bytes() == csv_writer_bytes(["patient_id", "measure", *(v.value for v in VERSIONS)], rows)


@FILE_TESTS
@given(st.lists(QUOTED_TEXT, max_size=6), st.data())
def test_labels_match_csv_writer_bytes(tmp_path, ids, data):
    values = data.draw(st.lists(st.integers(1, 3), min_size=30 * len(ids), max_size=30 * len(ids)))
    assert_labels_match_csv_writer(tmp_path, ids, np.array(values, dtype=np.int8).reshape(len(ids), len(MEASURES), len(VERSIONS)))


def test_labels_spanning_most_of_int8_match_csv_writer_bytes(tmp_path):
    # 180 values from -90 to 89: a value table narrower than the block, whose offsets overflow int8
    values = (np.arange(180) - 90).astype(np.int8).reshape(6, len(MEASURES), len(VERSIONS))
    assert_labels_match_csv_writer(tmp_path, [f"P{i}" for i in range(6)], values)


def test_blocks_split_rows_on_both_value_tables(tmp_path):
    # more rows than one block holds, narrow values in the first blocks and a wide range in the last
    n = 2 * BLOCK_CELLS // 3 + 5
    X = np.arange(3 * n, dtype=np.int64).reshape(n, 3) % 7
    X[-1] = [0, 1, INT64.max - 1]
    matrix = FeatureMatrix(("a", "b", "c"), tuple(f"P{i}" for i in range(n)), X, np.arange(n) % 2)
    path = tmp_path / "features.csv"
    write_features_csv(matrix, path)
    rows = ([pid, t, *row] for pid, t, row in zip(matrix.patient_ids, matrix.y.tolist(), X.tolist()))
    assert path.read_bytes() == csv_writer_bytes(["patient_id", "target", "a", "b", "c"], rows)
    fast = _parse_canonical(path, path.read_text())
    assert fast is not None
    assert_same_parts(fast, parts(matrix))


PLAIN = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)), max_size=6)
CANONICAL = matrices(cells=st.one_of(st.integers(0, 30), st.integers(0, INT64.max - 1)), ids=PLAIN, names=PLAIN)


@FILE_TESTS
@given(CANONICAL.filter(lambda m: len(m.patient_ids) and len(m.column_names)))
def test_one_pass_parse_equals_the_per_row_parser(tmp_path, matrix):
    path = tmp_path / "features.csv"
    write_features_csv(matrix, path)
    text = path.read_text()
    fast = _parse_canonical(path, text)
    assert fast is not None
    assert_same_parts(fast, parts(matrix))
    assert_same_parts(_parse_rows(path, text), parts(matrix))


def _outcome(read):
    try:
        return read()
    except ValueError as exc:
        return str(exc)


PERTURBATIONS = {
    "plus": lambda cell: "+" + cell,
    "space": lambda cell: " " + cell,
    "zero_padded": lambda cell: "00" + cell,
    "underscore": lambda cell: cell[:1] + "_" + cell[1:] if len(cell) > 1 else cell + "_",
    "minus": lambda cell: "-" + cell,
    "quoted": lambda cell: f'"{cell}"',
    "empty": lambda cell: "",
    "beyond_int64": lambda cell: "9" * 20,
    "int64_max": lambda cell: str(INT64.max),
    "fullwidth_digit": lambda cell: "５",
    "float": lambda cell: cell + ".0",
    "carriage_return": lambda cell: cell[:1] + "\r" + cell[1:],
}


@FILE_TESTS
@given(CANONICAL.filter(lambda m: len(m.patient_ids) and len(m.column_names)), st.data())
def test_perturbed_text_reads_as_the_per_row_parser_reads_it(tmp_path, matrix, data):
    path = tmp_path / "features.csv"
    write_features_csv(matrix, path)
    lines = path.read_text().split("\n")
    row = data.draw(st.integers(1, len(matrix.patient_ids)))
    fields = lines[row].split(",")
    col = data.draw(st.integers(0, len(fields) - 1))  # the id too: a quote or carriage return there changes its text
    fields[col] = PERTURBATIONS[data.draw(st.sampled_from(sorted(PERTURBATIONS)))](fields[col])
    lines[row] = ",".join(fields)
    text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    path.write_text(text, newline="")
    expected = _outcome(lambda: _parse_rows(path, text))
    got = _outcome(lambda: parts(read_features_csv(path)))
    if isinstance(expected, str):
        assert got == expected
    else:
        assert_same_parts(got, expected)


@pytest.mark.parametrize("last_ending", ["\n", ""])
def test_a_file_without_a_final_newline_keeps_its_last_row(tmp_path, last_ending):
    path = tmp_path / "features.csv"
    path.write_text("patient_id,target,a\nP1,0,1\nP2,1,2" + last_ending)
    assert_same_parts(parts(read_features_csv(path)), (("a",), ("P1", "P2"), np.array([0, 1]), np.array([[1], [2]])))


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_signed_padded_and_quoted_cells_read_as_int_reads_them(tmp_path, ending):
    path = tmp_path / "features.csv"
    path.write_text(ending.join(["patient_id,target,a,b", "P1,0,+5, 5", "P2,01,007,1_0", '"P3",1,"4",9', ""]), newline="")
    expected = (("a", "b"), ("P1", "P2", "P3"), np.array([0, 1, 1]), np.array([[5, 5], [7, 10], [4, 9]]))
    assert_same_parts(parts(read_features_csv(path)), expected)
