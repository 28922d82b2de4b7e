from .base import (
    ClassifierBackend,
    ClassifierScore,
    Decision,
    decide,
)
from .baseline import (
    BaselineBackend,
    BaselineModel,
    TrainHyper,
    hash_token_features,
    load_baseline,
    regularized_gradient,
    regularized_loss,
    save_baseline,
    score_batch,
    train_baseline,
)
from .remote import RemoteBackend, encode_request, remote_score

__all__ = [
    "BaselineBackend",
    "BaselineModel",
    "ClassifierBackend",
    "ClassifierScore",
    "Decision",
    "RemoteBackend",
    "TrainHyper",
    "decide",
    "encode_request",
    "hash_token_features",
    "load_baseline",
    "regularized_gradient",
    "regularized_loss",
    "remote_score",
    "save_baseline",
    "score_batch",
    "train_baseline",
]
