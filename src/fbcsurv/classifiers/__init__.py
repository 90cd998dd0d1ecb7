from .adaboost import AdaBoostEnsemble, Stump, best_stump, fit_adaboost_ensemble
from .gbt import GbtEnsemble
from .model import (
    MODEL_FAMILIES,
    Hyperparameters,
    ModelFamily,
    TrainedModel,
    decision_tree_dump,
    fit_adaboost,
    fit_decision_tree,
    fit_gbt,
    fit_gbt_group,
    fit_model,
    predict,
)
from .tree import TreeNode, dump_tree, grow_classification_tree, predict_classes

__all__ = [
    "AdaBoostEnsemble",
    "GbtEnsemble",
    "Hyperparameters",
    "MODEL_FAMILIES",
    "ModelFamily",
    "Stump",
    "TrainedModel",
    "TreeNode",
    "best_stump",
    "decision_tree_dump",
    "dump_tree",
    "fit_adaboost",
    "fit_adaboost_ensemble",
    "fit_decision_tree",
    "fit_gbt",
    "fit_gbt_group",
    "fit_model",
    "grow_classification_tree",
    "predict",
    "predict_classes",
]
