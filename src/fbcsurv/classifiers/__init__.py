from .model import (
    MODEL_FAMILIES,
    Hyperparameters,
    ModelFamily,
    TrainedModel,
    decision_tree_dump,
    fit_group,
    fit_model,
    predict,
)

__all__ = [
    "Hyperparameters",
    "MODEL_FAMILIES",
    "ModelFamily",
    "TrainedModel",
    "decision_tree_dump",
    "fit_group",
    "fit_model",
    "predict",
]
