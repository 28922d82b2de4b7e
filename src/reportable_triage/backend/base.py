"""Classifier backend abstraction: scores and thresholded decisions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from ..corpus import T1Label, T2Label, Tier
from ..errors import ValidationError
from ..preprocess import NormalizedInput


@dataclass(frozen=True)
class ClassifierScore:
    """Probability of the positive class for the task at hand."""

    probability: float

    def __post_init__(self) -> None:
        p = self.probability
        if not isinstance(p, (int, float)) or isinstance(p, bool) or math.isnan(p):
            raise ValidationError(f"score must be a number in [0, 1], got {p!r}")
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"score out of range [0, 1]: {p!r}")


@dataclass(frozen=True)
class Decision:
    """A thresholded score. Ties at the threshold resolve positive: missing a
    positive is the costly error, so the boundary goes to the positive class."""

    label: T1Label | T2Label
    score: ClassifierScore
    threshold: float
    backend_id: str
    task: Tier

    @property
    def is_positive(self) -> bool:
        return self.label is self.task.positive


@runtime_checkable
class ClassifierBackend(Protocol):
    backend_id: str

    def score_batch(self, inputs: Sequence[NormalizedInput]) -> list[ClassifierScore]:
        """One score per input, order-preserving; never mutates model state."""
        ...


def decide(score: ClassifierScore, threshold: float, task: Tier, backend_id: str) -> Decision:
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold must be in (0, 1), got {threshold}")
    label = task.positive if score.probability >= threshold else task.negative
    return Decision(label=label, score=score, threshold=threshold, backend_id=backend_id,
                    task=task)
