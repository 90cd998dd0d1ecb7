import csv

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fbcsurv.cohort import MEASURES, Measure, Sex
from fbcsurv.features import (
    FeatureMatrix,
    PAIRS,
    TRIPLES,
    age_group,
    build_matrix,
    feature_columns,
    read_features_csv,
    write_features_csv,
)
from fbcsurv.labeling import VERSIONS, CohortLabels, Version, label_cohort

from conftest import full_panel_readings, make_cohort, make_patient


@pytest.mark.parametrize("age, expected", [(15, 1), (69, 6), (9, 0), (0, 0), (104, 10)])
def test_age_group(age, expected):
    assert age_group(age) == expected


def test_age_group_rejects_negative():
    with pytest.raises(ValueError):
        age_group(-1)


def test_age_group_of_an_array():
    assert age_group(np.array([15, 69, 9, 0, 104])).tolist() == [1, 6, 0, 0, 10]
    with pytest.raises(ValueError, match="got -3"):
        age_group(np.array([15, -3, -1]))


def test_column_layout():
    cols = feature_columns()
    assert len(cols) == 88
    assert cols[:8] == (
        "lbl_PLATELETS",
        "lbl_MCV",
        "lbl_MCH",
        "lbl_MCHC",
        "lbl_RDW",
        "sex",
        "age_group",
        "sum5",
    )
    assert sum(1 for c in cols if c.startswith("add_")) == 20
    assert sum(1 for c in cols if c.startswith("mul_")) == 20
    assert sum(1 for c in cols if c.startswith("sexadd_")) == 40
    assert len(set(cols)) == 88


def test_extra_version_appends_prefixed_scheme_columns():
    cols = feature_columns(extra_version=Version.V4)
    assert len(cols) == 88 + 86
    assert "xv4_lbl_PLATELETS" in cols
    assert "xv4_sexadd_mul_MCH_MCHC_RDW" in cols
    assert "xv4_sex" not in cols  # sex and age_group are scheme-independent


def _matrix_for(base_labels: dict[Measure, int], sex: Sex = Sex.MALE, age: int = 65) -> FeatureMatrix:
    patient = make_patient("P1", sex=sex, age=age, readings=full_panel_readings())
    cohort = make_cohort([patient])
    values = np.array([[[base_labels[m]] * len(VERSIONS) for m in MEASURES]], dtype=np.int8)
    return build_matrix(cohort, CohortLabels(("P1",), values), Version.V1)


def test_sum_column_value():
    base = dict(zip(MEASURES, (1, 2, 3, 1, 2)))
    matrix = _matrix_for(base)
    assert matrix.X[0, matrix.column_index("sum5")] == 9


def test_multiplicative_pair_value():
    base = dict(zip(MEASURES, (2, 3, 1, 1, 1)))
    matrix = _matrix_for(base)
    assert matrix.X[0, matrix.column_index("mul_PLATELETS_MCV")] == 6


def test_sex_crossed_triple_for_female_patient():
    base = dict(zip(MEASURES, (1, 1, 2, 1, 1)))
    matrix = _matrix_for(base, sex=Sex.FEMALE)
    assert matrix.X[0, matrix.column_index("add_PLATELETS_MCV_MCH")] == 4
    assert matrix.X[0, matrix.column_index("sexadd_add_PLATELETS_MCV_MCH")] == 24
    assert matrix.X[0, matrix.column_index("sex")] == 20


def test_sex_codes():
    male = _matrix_for(dict(zip(MEASURES, (1, 1, 1, 1, 1))), sex=Sex.MALE)
    assert male.X[0, male.column_index("sex")] == 1


label_sets = st.tuples(*[st.integers(min_value=1, max_value=3) for _ in range(5)])


@given(label_sets, st.sampled_from([Sex.MALE, Sex.FEMALE]), st.integers(min_value=0, max_value=99))
def test_combination_values_match_recomputation(base_tuple, sex, age):
    base = dict(zip(MEASURES, base_tuple))
    matrix = _matrix_for(base, sex=sex, age=age)
    row = matrix.X[0]
    names = matrix.column_names
    sex_code = 1 if sex is Sex.MALE else 20
    assert row[names.index("age_group")] == age // 10
    assert row[names.index("sum5")] == sum(base_tuple)
    for pair in PAIRS:
        add_name = "add_" + "_".join(m.value for m in pair)
        mul_name = "mul_" + "_".join(m.value for m in pair)
        assert row[names.index(add_name)] == base[pair[0]] + base[pair[1]]
        assert row[names.index(mul_name)] == base[pair[0]] * base[pair[1]]
        assert row[names.index("sexadd_" + add_name)] == base[pair[0]] + base[pair[1]] + sex_code
    for triple in TRIPLES:
        add_name = "add_" + "_".join(m.value for m in triple)
        mul_name = "mul_" + "_".join(m.value for m in triple)
        total = sum(base[m] for m in triple)
        product = base[triple[0]] * base[triple[1]] * base[triple[2]]
        assert row[names.index(add_name)] == total
        assert row[names.index(mul_name)] == product
        assert row[names.index("sexadd_" + mul_name)] == product + sex_code
    # bounds for labels in {1..3}
    assert 2 <= row[names.index("add_PLATELETS_MCV")] <= 6
    assert 1 <= row[names.index("mul_PLATELETS_MCV_MCH")] <= 27


def test_perturbing_one_label_touches_only_its_columns():
    base = dict(zip(MEASURES, (1, 2, 1, 2, 1)))
    bumped = dict(base)
    bumped[Measure.MCH] = 3
    a = _matrix_for(base)
    b = _matrix_for(bumped)
    changed = {name for name, va, vb in zip(a.column_names, a.X[0], b.X[0]) if va != vb}

    def involves_mch(name):
        # token-wise match so MCH does not swallow MCHC
        return "MCH" in name.replace("sexadd_", "").replace("lbl_", "").split("_")

    expected = {n for n in a.column_names if involves_mch(n)} | {"sum5"}
    assert changed == expected


def test_build_matrix_requires_labels_for_every_patient():
    patient = make_patient("P1", readings=full_panel_readings())
    cohort = make_cohort([patient])
    with pytest.raises(KeyError, match="P1"):
        build_matrix(cohort, CohortLabels((), np.zeros((0, len(MEASURES), len(VERSIONS)))), Version.V1)


def test_matrix_determinism_and_roundtrip(tmp_path):
    from fbcsurv.synth import GeneratorConfig, generate

    cohort = generate(GeneratorConfig(n_patients=30, seed=9))
    labels = label_cohort(cohort)
    m1 = build_matrix(cohort, labels, Version.V2)
    m2 = build_matrix(cohort, labels, Version.V2)
    write_features_csv(m1, tmp_path / "a.csv")
    write_features_csv(m2, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    again = read_features_csv(tmp_path / "a.csv")
    assert again.column_names == m1.column_names
    assert np.array_equal(again.X, m1.X)
    assert np.array_equal(again.y, m1.y)
    assert again.patient_ids == m1.patient_ids


def test_extra_version_matrix_values(tmp_path):
    from fbcsurv.synth import GeneratorConfig, generate

    cohort = generate(GeneratorConfig(n_patients=15, seed=10))
    labels = label_cohort(cohort)
    combo = build_matrix(cohort, labels, Version.V1, extra_version=Version.V5)
    plain_v5 = build_matrix(cohort, labels, Version.V5)
    assert len(combo.column_names) == 174
    j_combo = combo.column_index("xv5_lbl_RDW")
    j_plain = plain_v5.column_index("lbl_RDW")
    assert np.array_equal(combo.X[:, j_combo], plain_v5.X[:, j_plain])


@pytest.mark.parametrize(
    "row, fragment",
    [
        ("P2,1,3", ":3: expected 4 fields, got 3"),
        ("P2,1,3,4,5", ":3: expected 4 fields, got 5"),
        ("P2,1,3\nP3,0,4,5,6", ":3: expected 4 fields, got 3"),  # the cell count of the whole body is right
        ("P2,1,3,x", ":3: field 'b': must be an integer, got 'x'"),
        ("P2,1,2.5,4", ":3: field 'a': must be an integer, got '2.5'"),
        ("P2,1,,4", ":3: field 'a': must be an integer, got ''"),
        ("P2,1,3,", ":3: field 'b': must be an integer, got ''"),
        ("P2,one,3,4", ":3: field 'target': must be an integer, got 'one'"),
        ("P2,2,3,4", ":3: field 'target': must be 0 or 1, got '2'"),
        ("P2,-1,3,4", ":3: field 'target': must be 0 or 1, got '-1'"),
        ("P2,1,3,99999999999999999999", ":3: field 'b': must be an integer within int64, got '99999999999999999999'"),
        ("P2,1,-9223372036854775809,4", ":3: field 'a': must be an integer within int64, got '-9223372036854775809'"),
    ],
)
def test_read_features_csv_rejects_malformed_rows(tmp_path, row, fragment):
    path = tmp_path / "features.csv"
    path.write_text(f"patient_id,target,a,b\nP1,0,1,2\n{row}\n")
    with pytest.raises(ValueError) as excinfo:
        read_features_csv(path)
    assert str(excinfo.value) == f"{path}{fragment}"


@pytest.mark.parametrize("ending", ["\n", "\r\n"])  # the one-pass parse and the per-row parser
def test_read_features_csv_rejects_a_repeated_column(tmp_path, ending):
    path = tmp_path / "features.csv"
    path.write_text(ending.join(["patient_id,target,lbl_PLATELETS,sex,lbl_PLATELETS", "P1,0,1,1,2", ""]), newline="")
    with pytest.raises(ValueError) as excinfo:
        read_features_csv(path)
    assert str(excinfo.value) == f"{path}:1: duplicate column 'lbl_PLATELETS'"


@pytest.mark.parametrize("quote", ['"', ""], ids=["per_row_parser", "one_pass_parser"])
def test_read_features_csv_field_length_rule(tmp_path, quote):
    # both read paths accept a field of up to csv.field_size_limit() characters and reject a longer one
    limit = csv.field_size_limit()
    path = tmp_path / "features.csv"
    for length in (limit, limit + 1):
        path.write_text(f"patient_id,target,a\nP1,0,1\n{quote}{'P' * length}{quote},1,2\n")
        if length == limit:
            assert read_features_csv(path).patient_ids == ("P1", "P" * limit)
        else:
            with pytest.raises(ValueError) as excinfo:
                read_features_csv(path)
            assert str(excinfo.value) == f"{path}:3: field larger than field limit ({limit})"


def test_read_features_csv_keeps_int64_extremes(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("patient_id,target,a,b\nP1,0,9223372036854775807,-9223372036854775808\nP2,1,0,9223372036854775806\n")
    matrix = read_features_csv(path)
    assert matrix.X.tolist() == [[2**63 - 1, -(2**63)], [0, 2**63 - 2]]


def test_read_features_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="expected header starting patient_id,target"):
        read_features_csv(path)
