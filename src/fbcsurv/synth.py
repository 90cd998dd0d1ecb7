"""Synthetic cohort generator with a configurable history-to-mortality coupling.

Patients draw a latent high-risk flag that raises their per-observation
probability of an out-of-range result. Two-year mortality is then conditioned
on the realized history group of one anchor measure, so the statistics module
recovers the configured group mortalities directly (up to sampling noise).

Not a clinical simulator: measures are coupled only through the shared latent
flag, and values are uniform within or just outside the sampled lab range.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .cohort import MEASURE_CODE, MEASURES, Cohort, Measure, Observations, PatientRecord, Sex
from .labeling import DEFAULT_WINDOW, Group, history_groups

EXTRACT_START = date(2008, 1, 1)
DIAGNOSIS_SPAN_DAYS = 2922  # diagnoses spread over 8 years
DATA_END_DATE = date(2018, 12, 31)  # >= any diagnosis + 730 days, so follow-up always suffices
HISTORY_DAYS = 720  # earliest observation offset before diagnosis

# (low_min, low_max, high_min, high_max) per measure; MCV bounds follow the
# commonly reported laboratory spreads, the others are plausible spans.
DEFAULT_RANGE_JITTER: dict[Measure, tuple[float, float, float, float]] = {
    Measure.PLATELETS: (140.0, 160.0, 400.0, 450.0),
    Measure.MCV: (75.0, 80.0, 98.0, 100.0),
    Measure.MCH: (26.0, 28.0, 33.0, 35.0),
    Measure.MCHC: (310.0, 325.0, 355.0, 365.0),
    Measure.RDW: (11.0, 12.0, 14.5, 15.5),
}

# decade -> weight; mass concentrated in the 60-89 bands typical of lung-cancer cohorts
DEFAULT_AGE_DISTRIBUTION: dict[int, float] = {3: 0.02, 4: 0.05, 5: 0.13, 6: 0.30, 7: 0.30, 8: 0.15, 9: 0.05}


def _uniform_per_measure(value: float) -> dict[Measure, float]:
    return {m: value for m in MEASURES}


@dataclass(frozen=True)
class GeneratorConfig:
    n_patients: int = 472
    seed: int = 0
    p_latent_high_risk: float = 0.3
    p_oor_given_risk: dict[Measure, float] = field(default_factory=lambda: _uniform_per_measure(0.30))
    p_oor_given_no_risk: dict[Measure, float] = field(default_factory=lambda: _uniform_per_measure(0.02))
    p_death_2y_by_group: tuple[float, float, float] = (0.38, 0.46, 0.53)
    obs_count_range: tuple[int, int] = (1, 10)
    window_placement_bias: float = 0.5
    range_jitter: dict[Measure, tuple[float, float, float, float]] = field(
        default_factory=lambda: dict(DEFAULT_RANGE_JITTER)
    )
    sex_ratio: float = 0.6  # male fraction
    age_distribution: dict[int, float] = field(default_factory=lambda: dict(DEFAULT_AGE_DISTRIBUTION))
    anchor_measure: Measure = Measure.PLATELETS
    # defaults reproduce the qualitative sex pattern: higher male mortality,
    # with the within-window effect amplified for female patients
    sex_mortality_delta: float = 0.06
    female_g3_boost: float = 0.06

    def validate(self) -> None:
        if self.n_patients < 1:
            raise ValueError("n_patients must be >= 1")
        probs = [self.p_latent_high_risk, self.window_placement_bias, self.sex_ratio, *self.p_death_2y_by_group]
        probs += list(self.p_oor_given_risk.values()) + list(self.p_oor_given_no_risk.values())
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise ValueError("all probabilities must be within [0, 1]")
        lo, hi = self.obs_count_range
        if not (1 <= lo <= hi <= 50):
            raise ValueError("obs_count_range must satisfy 1 <= lo <= hi <= 50")
        for m in MEASURES:
            low_min, low_max, high_min, high_max = self.range_jitter[m]
            if not (low_min <= low_max < high_min <= high_max):
                raise ValueError(f"range_jitter for {m.value} must satisfy low_min <= low_max < high_min <= high_max")
        if not self.age_distribution or any(w < 0 for w in self.age_distribution.values()):
            raise ValueError("age_distribution weights must be non-negative and non-empty")
        if sum(self.age_distribution.values()) <= 0:
            raise ValueError("age_distribution weights must sum to a positive value")

    def to_dict(self) -> dict:
        return {
            "n_patients": self.n_patients,
            "seed": self.seed,
            "p_latent_high_risk": self.p_latent_high_risk,
            "p_oor_given_risk": {m.value: p for m, p in self.p_oor_given_risk.items()},
            "p_oor_given_no_risk": {m.value: p for m, p in self.p_oor_given_no_risk.items()},
            "p_death_2y_by_group": list(self.p_death_2y_by_group),
            "obs_count_range": list(self.obs_count_range),
            "window_placement_bias": self.window_placement_bias,
            "range_jitter": {m.value: list(v) for m, v in self.range_jitter.items()},
            "sex_ratio": self.sex_ratio,
            "age_distribution": {str(d): w for d, w in self.age_distribution.items()},
            "anchor_measure": self.anchor_measure.value,
            "sex_mortality_delta": self.sex_mortality_delta,
            "female_g3_boost": self.female_g3_boost,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        kwargs = dict(d)
        if "p_oor_given_risk" in kwargs:
            kwargs["p_oor_given_risk"] = {Measure(k): v for k, v in kwargs["p_oor_given_risk"].items()}
        if "p_oor_given_no_risk" in kwargs:
            kwargs["p_oor_given_no_risk"] = {Measure(k): v for k, v in kwargs["p_oor_given_no_risk"].items()}
        if "p_death_2y_by_group" in kwargs:
            kwargs["p_death_2y_by_group"] = tuple(kwargs["p_death_2y_by_group"])
        if "obs_count_range" in kwargs:
            kwargs["obs_count_range"] = tuple(kwargs["obs_count_range"])
        if "range_jitter" in kwargs:
            kwargs["range_jitter"] = {Measure(k): tuple(v) for k, v in kwargs["range_jitter"].items()}
        if "age_distribution" in kwargs:
            kwargs["age_distribution"] = {int(k): v for k, v in kwargs["age_distribution"].items()}
        if "anchor_measure" in kwargs:
            kwargs["anchor_measure"] = Measure(kwargs["anchor_measure"])
        return cls(**kwargs)


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return lo + rng.random() * (hi - lo)


def _draw_observations(
    rng: np.random.Generator, config: GeneratorConfig, diagnosis_day: int, risky: bool, columns: tuple[array, ...]
) -> int:
    """Append one patient's results to the (measure, value, day, ref_low, ref_high) columns; returns the count."""
    measure_col, value_col, day_col, low_col, high_col = columns
    lo_count, hi_count = config.obs_count_range
    total = 0
    for code, measure in enumerate(MEASURES):
        p_oor = (config.p_oor_given_risk if risky else config.p_oor_given_no_risk)[measure]
        low_min, low_max, high_min, high_max = config.range_jitter[measure]
        n_obs = int(rng.integers(lo_count, hi_count + 1))
        for _ in range(n_obs):
            low = _uniform(rng, low_min, low_max)
            high = _uniform(rng, high_min, high_max)
            width = high - low
            if rng.random() < p_oor:
                below = rng.random() < 0.5
                excess = _uniform(rng, 0.02, 0.25) * width
                value = low - excess if below else high + excess
                if value < 0:
                    value = high + excess
                if rng.random() < config.window_placement_bias:
                    offset = int(rng.integers(DEFAULT_WINDOW.start_offset_days, DEFAULT_WINDOW.end_offset_days + 1))
                else:
                    offset = int(rng.integers(-HISTORY_DAYS, DEFAULT_WINDOW.start_offset_days))
            else:
                value = low + rng.random() * width
                offset = int(rng.integers(-HISTORY_DAYS, DEFAULT_WINDOW.end_offset_days + 1))
            measure_col.append(code)
            value_col.append(value)
            day_col.append(diagnosis_day + offset)
            low_col.append(low)
            high_col.append(high)
        total += n_obs
    return total


def _death_probability(config: GeneratorConfig, group: Group, sex: Sex) -> float:
    p = config.p_death_2y_by_group[group.value - 1]
    p += config.sex_mortality_delta if sex is Sex.MALE else -config.sex_mortality_delta
    if sex is Sex.FEMALE and group is Group.G3_OOR_WITHIN_WINDOW:
        p += config.female_g3_boost
    return min(max(p, 0.0), 1.0)


def generate(config: GeneratorConfig) -> Cohort:
    """Sample a cohort deterministically from the seed (one substream per patient).

    Each patient's substream draws demographics and observations, then, once
    the anchor measure's history group is known, the death date.
    """
    config.validate()
    decades = sorted(config.age_distribution)
    weights = np.array([config.age_distribution[d] for d in decades], dtype=np.float64)
    weights = weights / weights.sum()
    columns = (array("b"), array("d"), array("q"), array("d"), array("d"))
    rngs, demographics, counts = [], [], []
    for i, child_seed in enumerate(np.random.SeedSequence(config.seed).spawn(config.n_patients)):
        rng = np.random.default_rng(child_seed)
        sex = Sex.MALE if rng.random() < config.sex_ratio else Sex.FEMALE
        decade = int(rng.choice(decades, p=weights))
        age = decade * 10 + int(rng.integers(0, 10))
        diagnosis = EXTRACT_START + timedelta(days=int(rng.integers(0, DIAGNOSIS_SPAN_DAYS)))
        risky = rng.random() < config.p_latent_high_risk
        counts.append(_draw_observations(rng, config, diagnosis.toordinal(), risky, columns))
        rngs.append(rng)
        demographics.append((f"P{i + 1:06d}", sex, age, diagnosis))

    per_patient = Observations.from_columns(*columns).split(counts)
    patients = [
        PatientRecord(
            patient_id=pid, sex=sex, age_at_diagnosis=age, diagnosis_date=diagnosis, death_date=None, observations=obs
        )
        for (pid, sex, age, diagnosis), obs in zip(demographics, per_patient)
    ]
    anchor = history_groups(patients, DEFAULT_WINDOW)[:, MEASURE_CODE[config.anchor_measure]]
    for i, (rng, patient, group) in enumerate(zip(rngs, patients, anchor.tolist())):
        if rng.random() < _death_probability(config, Group(group), patient.sex):
            death = patient.diagnosis_date + timedelta(days=int(rng.integers(1, 731)))
            patients[i] = replace(patient, death_date=death)
    return Cohort(patients=tuple(patients), data_end_date=DATA_END_DATE)


def write_generator_config(config: GeneratorConfig, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_generator_config(path: str | Path) -> GeneratorConfig:
    with open(path) as fh:
        return GeneratorConfig.from_dict(json.load(fh))
