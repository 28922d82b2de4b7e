import math
import random
from dataclasses import asdict

import pytest

from oracles import naive_counts, naive_eval
from reportable_triage.corpus import T1Label, T2Label, Tier
from reportable_triage.errors import ValidationError
from reportable_triage.metrics import (
    ClassMetrics,
    ConfusionMatrix,
    class_metrics,
    confusion,
    eval_report,
    format_metric,
    render_eval_table,
)
from reportable_triage.util import round_half_up

POS, NEG = T1Label.CANCER, T1Label.NON_CANCER


def close(a, b, tol=1e-12):
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=0, abs_tol=tol)


def test_confusion_all_correct_positive():
    cm = confusion([POS] * 5, [POS] * 5, POS)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (5, 0, 0, 0)


def test_confusion_all_missed():
    cm = confusion([NEG] * 4, [POS] * 4, POS)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 0, 0, 4)


def test_confusion_hand_enumerated():
    preds = [POS, POS, NEG, NEG, POS]
    golds = [POS, NEG, NEG, POS, POS]
    cm = confusion(preds, golds, POS)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 1, 1)


def test_confusion_validation():
    with pytest.raises(ValidationError, match="length"):
        confusion([POS], [POS, NEG], POS)
    with pytest.raises(ValidationError):
        confusion([], [], POS)


def test_f1_from_reported_two_decimal_pairs():
    # tp/fp/fn chosen so precision and recall land exactly on the reported pair
    cm = ConfusionMatrix(tp=8712, fp=1188, tn=0, fn=88)
    m = class_metrics(cm)
    assert close(m.precision, 0.88) and close(m.recall, 0.99)
    assert round_half_up(m.f1, 2) == 0.93
    cm2 = ConfusionMatrix(tp=9009, fp=891, tn=0, fn=91)
    m2 = class_metrics(cm2)
    assert close(m2.precision, 0.91) and close(m2.recall, 0.99)
    assert round_half_up(m2.f1, 2) == 0.95


def test_zero_denominators_yield_none():
    m = class_metrics(ConfusionMatrix(tp=0, fp=0, tn=3, fn=2))
    assert m.precision is None
    assert m.recall == 0.0
    assert m.f1 is None  # precision undefined
    both_zero = class_metrics(ConfusionMatrix(tp=0, fp=1, tn=0, fn=1))
    assert both_zero.precision == 0.0 and both_zero.recall == 0.0
    assert both_zero.f1 is None  # p + r == 0


def test_perfect_predictions_report():
    preds = [POS, NEG, POS, NEG]
    report = eval_report(preds, preds, Tier.T1)
    for label in (POS, NEG):
        m = report.metrics_for(label)
        assert m.recall == 1.0 and m.precision == 1.0 and m.f1 == 1.0
    assert report.micro_f1 == 1.0 and report.macro_f1 == 1.0
    assert report.missed_positive_count == 0


def test_missed_positive_count_is_fn():
    preds = [NEG, NEG, POS, NEG]
    golds = [POS, POS, POS, NEG]
    report = eval_report(preds, golds, Tier.T1)
    assert report.missed_positive_count == 2


def test_symmetry_swapping_orientation():
    rng = random.Random(5)
    preds = [rng.choice([POS, NEG]) for _ in range(200)]
    golds = [rng.choice([POS, NEG]) for _ in range(200)]
    cm = confusion(preds, golds, POS)
    sw = cm.swapped()
    assert (sw.tp, sw.fp, sw.tn, sw.fn) == (cm.tn, cm.fn, cm.tp, cm.fp)
    m, ms = class_metrics(cm), class_metrics(sw)
    assert close(m.recall, ms.specificity) and close(m.specificity, ms.recall)
    assert close(m.accuracy, ms.accuracy)


def test_oracle_equivalence_randomized():
    rng = random.Random(99)
    for trial in range(200):
        n = 1000
        preds = [rng.choice([POS, NEG]) for _ in range(n)]
        golds = [rng.choice([POS, NEG]) for _ in range(n)]
        report = eval_report(preds, golds, Tier.T1)
        expected = naive_eval(preds, golds, POS, NEG)
        for label in (POS, NEG):
            got = report.metrics_for(label)
            want = expected["per_class"][label]
            for metric in ("recall", "precision", "specificity", "f1", "accuracy"):
                assert close(getattr(got, metric), want[metric]), (trial, label, metric)
        assert close(report.micro_f1, expected["micro_f1"])
        assert close(report.macro_f1, expected["macro_f1"])
        assert report.missed_positive_count == expected["missed_positive_count"]
        # binary micro-F1 equals accuracy, bit-for-bit
        tp, fp, tn, fn = naive_counts(preds, golds, POS)
        assert report.micro_f1 == (tp + tn) / n


def test_all_positive_gold_set_renders_dashes():
    # e.g. an all-reportable evaluation set: negative-class recall is undefined
    preds = [T2Label.REPORTABLE] * 9 + [T2Label.NON_REPORTABLE]
    golds = [T2Label.REPORTABLE] * 10
    report = eval_report(preds, golds, Tier.T2)
    neg = report.metrics_for(T2Label.NON_REPORTABLE)
    assert neg.recall is None and neg.precision == 0.0
    table = render_eval_table([("model", report)], Tier.T2)
    assert "—" in table


def test_render_table_shape():
    preds = [POS, NEG, POS, NEG]
    golds = [POS, NEG, NEG, POS]
    named = [("member-a", eval_report(preds, golds, Tier.T1)),
             ("member-b", eval_report(golds, golds, Tier.T1)),
             ("combined", eval_report(preds, golds, Tier.T1))]
    table = render_eval_table(named, Tier.T1)
    assert "Recall" in table and "Precision" in table and "F1 score" in table
    lines = [l for l in table.splitlines()
             if l.startswith(("member-", "combined")) and "(" in l]
    assert lines[0].startswith("member-a (non cancer)")
    assert lines[1].startswith("member-a (cancer)")
    assert lines[4].startswith("combined (non cancer)")
    assert "missed" in table


def test_format_metric_rounding_half_up():
    assert format_metric(0.984999) == "0.98"
    assert format_metric(0.985) == "0.99"  # half-up at the boundary
    assert format_metric(None) == "—"


def test_class_metrics_dataclass_dict():
    m = ClassMetrics(recall=1.0, precision=0.5, specificity=None, f1=2 / 3, accuracy=0.5)
    d = asdict(m)
    assert d["specificity"] is None and close(d["f1"], 2 / 3)
