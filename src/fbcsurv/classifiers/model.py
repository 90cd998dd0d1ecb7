"""The one fit entry point and predict contract over the three model families, and the saved-model JSON.

Every family's model is a `TreeEnsemble`, so scoring, saving and loading do
not depend on the family: a model saves as `{"family", "feature_names",
"params"}` with `params = {"init_score", "weights", "trees"}`. The family
only picks its grower class, whose `fit` grows the models, and, at load,
requires a decision tree to be one tree that keeps `n1`, the class-1 counts
its dump reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .splits import BinnedMatrix
from .tree import GiniGrower, NewtonGrower, StumpGrower, TreeEnsemble


class ModelFamily(Enum):
    DECISION_TREE = "decision_tree"
    ADABOOST = "adaboost"
    GBT = "gbt"


MODEL_FAMILIES = tuple(ModelFamily)
# each family's grower class, whose classmethod `fit` grows a group of its models
_GROWERS = {ModelFamily.DECISION_TREE: GiniGrower, ModelFamily.ADABOOST: StumpGrower, ModelFamily.GBT: NewtonGrower}
_MODEL_KEYS = ("family", "feature_names", "params")


# the most boosting rounds a model may take: a grower allocates its node records for every round up front
MAX_ROUNDS = 10_000


@dataclass(frozen=True)
class Hyperparameters:
    tree_max_depth: int | None = 4  # None = unbounded
    tree_min_leaf: int = 5
    ada_rounds: int = field(default=50, metadata={"bounds": (0, MAX_ROUNDS)})
    gbt_rounds: int = field(default=100, metadata={"bounds": (0, MAX_ROUNDS)})
    gbt_depth: int = 3
    gbt_learning_rate: float = 0.1
    gbt_l2: float = 1.0

    def __post_init__(self):
        if self.tree_max_depth is not None and self.tree_max_depth < 1:
            raise ValueError("tree_max_depth must be >= 1 or None")
        if self.tree_min_leaf < 1:
            raise ValueError("tree_min_leaf must be >= 1")
        for hp_field in fields(self):
            if "bounds" in hp_field.metadata:
                (low, high), value = hp_field.metadata["bounds"], getattr(self, hp_field.name)
                if not low <= value <= high:
                    raise ValueError(f"{hp_field.name} must lie in {low}..{high}, got {value}")
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
    model: TreeEnsemble

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "feature_names": list(self.feature_names),
            "params": self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainedModel":
        """A model as `to_dict` writes it; a malformed one is a ValueError (see `TreeEnsemble.from_dict`).

        d must have exactly the keys family, feature_names and params, and
        feature_names must list strings; a name may repeat, as `fit_model` allows.
        """
        if not isinstance(d, dict):
            raise ValueError(f"a saved model must be a JSON object, got {type(d).__name__}")
        if set(d) != set(_MODEL_KEYS):
            raise ValueError(f"a saved model needs exactly the keys {list(_MODEL_KEYS)}, got {sorted(map(str, d))}")
        if not (isinstance(d["feature_names"], list) and all(isinstance(name, str) for name in d["feature_names"])):
            raise ValueError("a saved model's feature_names must be a list of strings")
        family = ModelFamily(d["family"])
        feature_names = tuple(d["feature_names"])
        model = TreeEnsemble.from_dict(d["params"], len(feature_names))
        if family is ModelFamily.DECISION_TREE and (len(model.weights) != 1 or model.nodes.n1 is None):
            raise ValueError("a decision tree needs n1 and exactly one tree")
        return cls(family=family, feature_names=feature_names, model=model)

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "TrainedModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


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
    ensembles, classes = _GROWERS[family].fit(binned, ks, y.astype(np.int64), hp)
    return [TrainedModel(family, tuple(names[:k]), model) for k, model in zip(ks, ensembles)], classes


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
    return (model.model.decision_scores(X) > 0).astype(np.int64)


def decision_tree_dump(model: TrainedModel) -> str:
    if model.family is not ModelFamily.DECISION_TREE:
        raise ValueError("tree dump is only defined for decision-tree models")
    return model.model.nodes.dump(model.feature_names)
