"""Common fit/predict contract over the three model families."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .adaboost import AdaBoostEnsemble, fit_adaboost_ensemble
from .gbt import GbtEnsemble, fit_gbt_ensembles
from .splits import BinnedMatrix
from .tree import TreeNode, dump_tree, grow_classification_tree, node_from_dict, node_to_dict, predict_classes


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
        if self.gbt_l2 < 0.0:
            raise ValueError("gbt_l2 must be >= 0")

    def to_dict(self) -> dict:
        return {
            "tree_max_depth": self.tree_max_depth,
            "tree_min_leaf": self.tree_min_leaf,
            "ada_rounds": self.ada_rounds,
            "gbt_rounds": self.gbt_rounds,
            "gbt_depth": self.gbt_depth,
            "gbt_learning_rate": self.gbt_learning_rate,
            "gbt_l2": self.gbt_l2,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparameters":
        return cls(**d)


@dataclass(frozen=True)
class TrainedModel:
    family: ModelFamily
    feature_names: tuple[str, ...]
    model: TreeNode | AdaBoostEnsemble | GbtEnsemble

    def to_dict(self) -> dict:
        if self.family is ModelFamily.DECISION_TREE:
            params = node_to_dict(self.model)
        else:
            params = self.model.to_dict()
        return {
            "family": self.family.value,
            "feature_names": list(self.feature_names),
            "params": params,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainedModel":
        family = ModelFamily(d["family"])
        if family is ModelFamily.DECISION_TREE:
            model = node_from_dict(d["params"])
        elif family is ModelFamily.ADABOOST:
            model = AdaBoostEnsemble.from_dict(d["params"])
        else:
            model = GbtEnsemble.from_dict(d["params"])
        return cls(family=family, feature_names=tuple(d["feature_names"]), model=model)

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "TrainedModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _validate_training_input(X: np.ndarray, y: np.ndarray, feature_names: tuple[str, ...] | None):
    X = np.asarray(X, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if len(X) == 0:
        raise ValueError("empty input")
    if y.shape != (len(X),):
        raise ValueError("y length must match X rows")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("targets must be binary 0/1")
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(X.shape[1]))
    elif len(feature_names) != X.shape[1]:
        raise ValueError("feature_names length must match X columns")
    return X, y, tuple(feature_names)


def fit_decision_tree(
    X: np.ndarray, y: np.ndarray, hp: Hyperparameters, feature_names: tuple[str, ...] | None = None
) -> TrainedModel:
    X, y, names = _validate_training_input(X, y, feature_names)
    root = grow_classification_tree(X, y, hp.tree_max_depth, hp.tree_min_leaf)
    return TrainedModel(family=ModelFamily.DECISION_TREE, feature_names=names, model=root)


def fit_adaboost(
    X: np.ndarray, y: np.ndarray, hp: Hyperparameters, feature_names: tuple[str, ...] | None = None
) -> TrainedModel:
    X, y, names = _validate_training_input(X, y, feature_names)
    ensemble = fit_adaboost_ensemble(X, y, hp.ada_rounds)
    return TrainedModel(family=ModelFamily.ADABOOST, feature_names=names, model=ensemble)


def fit_gbt(
    X: np.ndarray, y: np.ndarray, hp: Hyperparameters, feature_names: tuple[str, ...] | None = None
) -> TrainedModel:
    X, y, names = _validate_training_input(X, y, feature_names)
    models, _ = fit_gbt_group(BinnedMatrix(X), y, hp, (X.shape[1],), names)
    return models[0]


def fit_gbt_group(
    binned: BinnedMatrix, y: np.ndarray, hp: Hyperparameters, ks: tuple[int, ...], feature_names: tuple[str, ...]
) -> tuple[list[TrainedModel], np.ndarray]:
    """One GBT per k, boosted in lockstep; model i trains on the first ks[i] columns of binned.

    Each model equals `fit_gbt` on those columns. Also returns the final
    training scores, one row per model (score > 0 predicts class 1).
    """
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (binned.n,) or not np.isin(y, (0, 1)).all():
        raise ValueError("y must hold one binary 0/1 target per row of the binned matrix")
    if len(feature_names) < max(ks):
        raise ValueError("feature_names must name every column the largest k uses")
    ensembles, scores = fit_gbt_ensembles(
        binned, tuple(ks), y, hp.gbt_rounds, hp.gbt_depth, hp.gbt_learning_rate, hp.gbt_l2
    )
    models = [
        TrainedModel(family=ModelFamily.GBT, feature_names=tuple(feature_names[:k]), model=ensemble)
        for k, ensemble in zip(ks, ensembles)
    ]
    return models, scores


def fit_model(
    family: ModelFamily,
    X: np.ndarray,
    y: np.ndarray,
    hp: Hyperparameters,
    feature_names: tuple[str, ...] | None = None,
) -> TrainedModel:
    fitter = {
        ModelFamily.DECISION_TREE: fit_decision_tree,
        ModelFamily.ADABOOST: fit_adaboost,
        ModelFamily.GBT: fit_gbt,
    }[family]
    return fitter(X, y, hp, feature_names)


def predict(model: TrainedModel, X: np.ndarray, columns: tuple[str, ...] | None = None) -> np.ndarray:
    """Deterministic class predictions; columns, when given, must match training exactly."""
    X = np.asarray(X, dtype=np.int64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if columns is not None and tuple(columns) != model.feature_names:
        raise ValueError(
            f"column mismatch: model trained on {list(model.feature_names)}, got {list(columns)}"
        )
    if X.shape[1] != len(model.feature_names):
        raise ValueError(
            f"column mismatch: model expects {len(model.feature_names)} columns, got {X.shape[1]}"
        )
    if len(X) == 0:
        return np.empty(0, dtype=np.int64)
    if model.family is ModelFamily.DECISION_TREE:
        return predict_classes(model.model, X)
    return model.model.predict(X)


def decision_tree_dump(model: TrainedModel) -> str:
    if model.family is not ModelFamily.DECISION_TREE:
        raise ValueError("tree dump is only defined for decision-tree models")
    return dump_tree(model.model, model.feature_names)
