"""Confusion-matrix metrics, micro/macro aggregates, and table rendering.

Per-class metrics are computed for both orientations of the binary task
(positive class, then the complementary class as positive), matching the
row-pair layout of the reported results tables. Zero-denominator metrics are
carried as None and rendered as an em-dash style marker "—", never as 0: an
all-positive test set genuinely has no negative-class recall.

Per-class F1 follows the harmonic-mean definition and is undefined whenever
precision or recall is undefined or both are zero. Micro-F1 is the pooled
2*TP / (2*TP + FP + FN) over both orientations, which for a single-label
binary task reduces exactly (in float arithmetic too) to accuracy, so it is
computed as accuracy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .corpus import T1Label, T2Label, Tier
from .errors import ValidationError
from .util import round_half_up

UNDEFINED_MARK = "—"


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValidationError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def swapped(self) -> "ConfusionMatrix":
        """The same predictions with the opposite class treated as positive."""
        return ConfusionMatrix(tp=self.tn, fp=self.fn, tn=self.tp, fn=self.fp)


@dataclass(frozen=True)
class ClassMetrics:
    recall: Optional[float]
    precision: Optional[float]
    specificity: Optional[float]
    f1: Optional[float]
    accuracy: Optional[float]


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def confusion(preds: Sequence, golds: Sequence, positive) -> ConfusionMatrix:
    if len(preds) != len(golds):
        raise ValidationError(
            f"length mismatch: {len(preds)} predictions vs {len(golds)} golds"
        )
    if not preds:
        raise ValidationError("cannot build a confusion matrix from zero records")
    tp = fp = tn = fn = 0
    for p, g in zip(preds, golds):
        if p == positive:
            if g == positive:
                tp += 1
            else:
                fp += 1
        else:
            if g == positive:
                fn += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def class_metrics(cm: ConfusionMatrix) -> ClassMetrics:
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    specificity = _ratio(cm.tn, cm.tn + cm.fp)
    accuracy = _ratio(cm.tp + cm.tn, cm.total)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        # algebraically 2pr/(p+r); the integer form rounds once
        f1 = 2 * cm.tp / (2 * cm.tp + cm.fp + cm.fn)
    return ClassMetrics(recall=recall, precision=precision,
                        specificity=specificity, f1=f1, accuracy=accuracy)


@dataclass(frozen=True)
class EvalReport:
    task: Tier
    n_evaluated: int
    per_class: dict[str, ClassMetrics]  # keyed by class label value
    micro_f1: Optional[float]
    macro_f1: Optional[float]
    missed_positive_count: int

    def metrics_for(self, label: "T1Label | T2Label") -> ClassMetrics:
        return self.per_class[label.value]


def eval_report(preds: Sequence, golds: Sequence, task: Tier) -> EvalReport:
    """Full evaluation of one model's predictions against gold labels."""
    positive = task.positive
    cm_pos = confusion(preds, golds, positive)
    cm_neg = cm_pos.swapped()
    metrics_pos = class_metrics(cm_pos)
    metrics_neg = class_metrics(cm_neg)

    if metrics_pos.f1 is None or metrics_neg.f1 is None:
        macro_f1 = None
    else:
        macro_f1 = (metrics_pos.f1 + metrics_neg.f1) / 2

    return EvalReport(
        task=task,
        n_evaluated=cm_pos.total,
        per_class={
            positive.value: metrics_pos,
            task.negative.value: metrics_neg,
        },
        micro_f1=metrics_pos.accuracy,  # see the module docstring
        macro_f1=macro_f1,
        missed_positive_count=cm_pos.fn,
    )


# --- rendering ---------------------------------------------------------------

def format_metric(value: Optional[float]) -> str:
    if value is None:
        return UNDEFINED_MARK
    return f"{round_half_up(value, 2):.2f}"


def _class_display(label_value: str) -> str:
    return label_value.replace("_", " ")


def render_eval_table(named_reports: Sequence[tuple[str, EvalReport]], task: Tier) -> str:
    """Rows of model x class with Recall / Precision / F1 score columns,
    negative-class row first per model, plus a missed-positives summary."""
    rows: list[tuple[str, str, str, str]] = []
    for name, report in named_reports:
        for label in (task.negative, task.positive):
            m = report.metrics_for(label)
            rows.append((
                f"{name} ({_class_display(label.value)})",
                format_metric(m.recall),
                format_metric(m.precision),
                format_metric(m.f1),
            ))
    head = ("Model (class)", "Recall", "Precision", "F1 score")
    width = max(len(head[0]), *(len(r[0]) for r in rows)) if rows else len(head[0])
    lines = [f"{head[0]:<{width}}  {head[1]:>7}  {head[2]:>9}  {head[3]:>8}"]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(f"{row[0]:<{width}}  {row[1]:>7}  {row[2]:>9}  {row[3]:>8}")
    lines.append("")
    positive_name = _class_display(task.positive.value)
    for name, report in named_reports:
        lines.append(
            f"{name}: missed {report.missed_positive_count} "
            f"{positive_name} case(s) of {report.n_evaluated} evaluated"
        )
    return "\n".join(lines) + "\n"


def dumps_eval(named_reports: Sequence[tuple[str, EvalReport]], task: Tier, extra: dict) -> str:
    doc = {
        "task": task.value,
        **extra,
        # Tier is a str enum, so a report's task is written as its value
        "models": [{"model": name, **asdict(report)} for name, report in named_reports],
    }
    return json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
