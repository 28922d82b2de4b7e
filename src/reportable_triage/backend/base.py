"""Classifier backend contract and the threshold rule."""

from __future__ import annotations

from typing import Protocol, Sequence

from ..preprocess import NormalizedInput


class ClassifierBackend(Protocol):
    def score_batch(self, inputs: Sequence[NormalizedInput]) -> list[float]:
        """One probability of the task's positive class per input, order-preserving;
        never mutates model state. The cascade checks each is in [0, 1]."""
        ...


def decide(probability: float, threshold: float) -> bool:
    """Whether a member calls a report positive. Ties at the threshold resolve
    positive: missing a positive is the costly error, so the boundary goes to
    the positive class."""
    return probability >= threshold
