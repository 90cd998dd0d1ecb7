"""Pathology-history feature engineering and 2-year survival classification."""

from .cohort import (
    Cohort,
    CohortError,
    FilterReport,
    Measure,
    Observations,
    PatientRecord,
    ReferenceRange,
    Sex,
    SurvivalStatus,
    apply_inclusion_filters,
    ingest_cohort,
    read_cohort,
    survival_label,
    write_cohort,
)
from .labeling import CohortLabels, DiagnosisWindow, Group, Version, assign_group, label_cohort, label_version
from .ranges import RangeStatus, classify_value, range_codes, soft_bounds
from .features import FeatureMatrix, age_group, build_matrix, feature_columns
from .selection import FeatureRanking, chi2_statistic, select_top_k
from .classifiers import Hyperparameters, ModelFamily, TrainedModel, predict
from .evaluation import EvaluationReport, FoldPlan, cohort_stats, feature_consistency, make_fold_plan, run_sweep
from .synth import GeneratorConfig, generate

__version__ = "0.1.0"
