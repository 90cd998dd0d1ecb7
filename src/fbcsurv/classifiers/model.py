"""The one fit dispatch and predict contract over the three model families, and the saved-model JSON."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .adaboost import AdaBoostEnsemble, fit_adaboost_ensembles
from .gbt import GbtEnsemble, fit_gbt_ensembles
from .splits import BinnedMatrix
from .tree import GiniGrower, Tree


class ModelFamily(Enum):
    DECISION_TREE = "decision_tree"
    ADABOOST = "adaboost"
    GBT = "gbt"


MODEL_FAMILIES = tuple(ModelFamily)


@dataclass(frozen=True)
class Hyperparameters:
    tree_max_depth: int | None = 4  # None = unbounded
    tree_min_leaf: int = 5
    ada_rounds: int = 50
    gbt_rounds: int = 100
    gbt_depth: int = 3
    gbt_learning_rate: float = 0.1
    gbt_l2: float = 1.0

    def __post_init__(self):
        if self.tree_max_depth is not None and self.tree_max_depth < 1:
            raise ValueError("tree_max_depth must be >= 1 or None")
        if self.tree_min_leaf < 1:
            raise ValueError("tree_min_leaf must be >= 1")
        if self.ada_rounds < 0 or self.gbt_rounds < 0:
            raise ValueError("boosting rounds must be >= 0")
        if self.gbt_depth < 1:
            raise ValueError("gbt_depth must be >= 1")
        if not (0.0 < self.gbt_learning_rate <= 1.0):
            raise ValueError("gbt_learning_rate must be in (0, 1]")
        if not (0.0 <= self.gbt_l2 < math.inf):
            raise ValueError("gbt_l2 must be finite and >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrainedModel:
    family: ModelFamily
    feature_names: tuple[str, ...]
    model: Tree | AdaBoostEnsemble | GbtEnsemble

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "feature_names": list(self.feature_names),
            "params": self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainedModel":
        """A model as `to_dict` writes it; malformed trees are a ValueError (see `Tree.from_dict`)."""
        family = ModelFamily(d["family"])
        feature_names = tuple(d["feature_names"])
        model = _MODEL_TYPES[family].from_dict(d["params"], len(feature_names))
        if family is ModelFamily.DECISION_TREE and (model.n1 is None or model.p is None):
            raise ValueError("a decision tree needs its n1 and p arrays")
        return cls(family=family, feature_names=feature_names, model=model)

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "TrainedModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


_MODEL_TYPES = {ModelFamily.DECISION_TREE: Tree, ModelFamily.ADABOOST: AdaBoostEnsemble, ModelFamily.GBT: GbtEnsemble}


def _int_matrix(X: np.ndarray) -> np.ndarray:
    """X as a 2-D int64 array; a value the cast would change (fractional, NaN or infinite) is an error."""
    raw = np.asarray(X)
    with np.errstate(invalid="ignore"):
        X = raw.astype(np.int64, copy=False)
    if X is not raw and not np.array_equal(X, raw):
        raise ValueError("X must hold integer values; got a fractional, NaN or infinite entry")
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    return X


def fit_group(
    family: ModelFamily, binned: BinnedMatrix, y: np.ndarray, hp: Hyperparameters, ks: tuple[int, ...],
    names: tuple[str, ...],
) -> tuple[list[TrainedModel], np.ndarray]:
    """One model of `family` per k, grown in lockstep; model i trains on the first ks[i] columns of binned.

    Each model equals `fit_model(family, ...)` on those columns. Also returns
    each model's class for every training row, one row per model, from the
    fit rather than a prediction pass.
    """
    y = np.asarray(y)
    if y.shape != (binned.n,) or not np.isin(y, (0, 1)).all():
        raise ValueError("y must hold one binary 0/1 target per row of the binned matrix")
    if not ks or min(ks) < 1 or max(ks) > binned.d:
        raise ValueError(f"column prefixes {ks} must lie in 1..{binned.d}")
    if len(names) < max(ks):
        raise ValueError("feature_names must name every column the largest k uses")
    y = y.astype(np.int64)
    if family is ModelFamily.GBT:
        fits = fit_gbt_ensembles(binned, ks, y, hp.gbt_rounds, hp.gbt_depth, hp.gbt_learning_rate, hp.gbt_l2)
    elif family is ModelFamily.DECISION_TREE:
        fits = GiniGrower(binned, ks, y, hp.tree_max_depth, hp.tree_min_leaf).grow()
    else:
        fits = fit_adaboost_ensembles(binned, ks, y, hp.ada_rounds)
    models = [TrainedModel(family, tuple(names[:k]), model) for k, (model, _) in zip(ks, fits)]
    return models, np.array([classes for _, classes in fits])


def fit_model(
    family: ModelFamily,
    X: np.ndarray,
    y: np.ndarray,
    hp: Hyperparameters,
    feature_names: tuple[str, ...] | None = None,
) -> TrainedModel:
    """Fit one model of `family` on integer features X and binary targets y: `fit_group` with k = all columns."""
    X = _int_matrix(X)
    if len(X) == 0:
        raise ValueError("empty input")
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(X.shape[1]))
    elif len(feature_names) != X.shape[1]:
        raise ValueError("feature_names length must match X columns")
    return fit_group(family, BinnedMatrix(X), y, hp, (X.shape[1],), tuple(feature_names))[0][0]


def predict(model: TrainedModel, X: np.ndarray, columns: tuple[str, ...] | None = None) -> np.ndarray:
    """Deterministic class predictions; columns, when given, must match training exactly."""
    X = _int_matrix(X)
    if columns is not None and tuple(columns) != model.feature_names:
        raise ValueError(
            f"column mismatch: model trained on {list(model.feature_names)}, got {list(columns)}"
        )
    if X.shape[1] != len(model.feature_names):
        raise ValueError(
            f"column mismatch: model expects {len(model.feature_names)} columns, got {X.shape[1]}"
        )
    # a decision tree's leaf payload is its class
    return model.model.predict(X).astype(np.int64, copy=False)


def decision_tree_dump(model: TrainedModel) -> str:
    if model.family is not ModelFamily.DECISION_TREE:
        raise ValueError("tree dump is only defined for decision-tree models")
    return model.model.dump(model.feature_names)
