"""Classifier backend contract and the threshold rule."""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

from ..preprocess import NormalizedInput


class ClassifierBackend(Protocol):
    """Scores inputs in two steps: featurize, then score the features. A
    backend that scores elsewhere may start on features in send(), so that
    the caller can work until it asks score_features for their scores.

    Two backends whose feature_dim is equal and not None featurize an input
    alike, so the cascade may score one's features with the other.
    """

    feature_dim: Optional[int]

    def featurize(self, inputs: Sequence[NormalizedInput]) -> Sequence:
        """What score_features scores, one row per input, in order."""
        ...

    def send(self, features: Sequence) -> None:
        """Start scoring features, which score_features is given next; it
        raises what goes wrong. An in-process backend does nothing here."""
        ...

    def score_features(self, features: Sequence) -> list[float]:
        """One probability of the task's positive class per row, order-preserving;
        never mutates model state. The cascade checks each is in [0, 1]."""
        ...


def decide(probability: float, threshold: float) -> bool:
    """Whether a member calls a report positive. Ties at the threshold resolve
    positive: missing a positive is the costly error, so the boundary goes to
    the positive class."""
    return probability >= threshold
