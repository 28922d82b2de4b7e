"""Independent brute-force recomputations used to cross-check the program.

The metric oracles are deliberately naive and written from the raw
definitions only; they must never import from reportable_triage.metrics.
"""

from __future__ import annotations

import logging
import re
import unicodedata
import zlib

import numpy as np

from reportable_triage.corpus import LabeledReport, PathologyReport, Section, Tier
from reportable_triage.errors import ValidationError
from reportable_triage.util import read_field

# the logger corpus.record_from_dict warns through, so that warnings compare equal
_corpus_logger = logging.getLogger("reportable_triage.corpus")
_RECORD_FIELDS = ("report_id", "diagnosis_year", "source_site", "raw_text", "sections",
                  "t1_label", "t2_label")
_SECTION_FIELDS = ("name", "text", "header")


def naive_counts(preds, golds, positive):
    tp = sum(1 for p, g in zip(preds, golds) if p == positive and g == positive)
    fp = sum(1 for p, g in zip(preds, golds) if p == positive and g != positive)
    fn = sum(1 for p, g in zip(preds, golds) if p != positive and g == positive)
    tn = sum(1 for p, g in zip(preds, golds) if p != positive and g != positive)
    return tp, fp, tn, fn


def naive_class_metrics(tp, fp, tn, fn):
    def div(a, b):
        return a / b if b else None

    recall = div(tp, tp + fn)
    precision = div(tp, tp + fp)
    specificity = div(tn, tn + fp)
    accuracy = div(tp + tn, tp + fp + tn + fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return {"recall": recall, "precision": precision, "specificity": specificity,
            "f1": f1, "accuracy": accuracy}


def naive_eval(preds, golds, positive, negative):
    """Everything an EvalReport carries, recomputed from first principles."""
    tp, fp, tn, fn = naive_counts(preds, golds, positive)
    pos = naive_class_metrics(tp, fp, tn, fn)
    neg = naive_class_metrics(tn, fn, tp, fp)
    # pooled micro counts over both class orientations
    pooled_tp = tp + tn
    pooled_fp = fp + fn
    pooled_fn = fn + fp
    den = 2 * pooled_tp + pooled_fp + pooled_fn
    micro_f1 = 2 * pooled_tp / den if den else None
    if pos["f1"] is None or neg["f1"] is None:
        macro_f1 = None
    else:
        macro_f1 = (pos["f1"] + neg["f1"]) / 2
    return {
        "per_class": {positive: pos, negative: neg},
        "micro_f1": micro_f1,
        "macro_f1": macro_f1,
        "missed_positive_count": fn,
        "n_evaluated": len(preds),
    }


# --- reference featurization --------------------------------------------------
# The per-character normalization and the per-example dict scoring and SGD that
# the program used before it hashed each batch into CSR arrays. They must never
# import from reportable_triage.preprocess or reportable_triage.backend; the
# bit-exactness tests compare the program against them with ==.

_MAX_LOGIT = 35.0


def reference_normalize_text(text):
    """Lowercase the whole string, punctuation to spaces, one character at a time."""
    replaced = "".join(" " if unicodedata.category(ch).startswith("P") else ch
                       for ch in text.lower())
    return " ".join(replaced.split())


def reference_hash(tokens, feature_dim):
    mask = feature_dim - 1
    feats = {}
    for tok in tokens:
        idx = zlib.crc32(b"u\x00" + tok.encode("utf-8")) & mask
        feats[idx] = feats.get(idx, 0.0) + 1.0
    for a, b in zip(tokens, tokens[1:]):
        idx = zlib.crc32(b"b\x00" + a.encode("utf-8") + b"\x1f" + b.encode("utf-8")) & mask
        feats[idx] = feats.get(idx, 0.0) + 1.0
    return feats


def reference_rows(texts, feature_dim):
    """CSR lists (indptr, indices, values) packed from reference_hash, one text at a time."""
    indptr, indices, values = [0], [], []
    for text in texts:
        feats = reference_hash(text.split(), feature_dim)
        indices += feats
        values += feats.values()
        indptr.append(len(indices))
    return indptr, indices, values


def reference_assemble(chunks, token_budget):
    """(text, token count, truncated, sections used) of (name, raw) chunks in
    assembly order, each normalized in full before the budget cuts it."""
    kept, used = [], []
    for name, raw in chunks:
        tokens = reference_normalize_text(raw).split()
        room = token_budget - len(kept)
        if tokens[:room]:
            kept += tokens[:room]
            used.append(name)
        if len(tokens) > room:
            return " ".join(kept), len(kept), True, tuple(used)
    return " ".join(kept), len(kept), False, tuple(used)


def reference_ordered_chunks(sections, names):
    """(name, text) of sections in assembly order, as the program ordered them
    before it popped taken sections from a copy: one scan of the list per
    requested name, skipping the indices taken, then one more for the rest."""
    used_indices = set()
    chunks = []
    for name in names:
        for i, section in enumerate(sections):
            if section.name == name and i not in used_indices:
                used_indices.add(i)
                chunks.append((section.name, section.text))
                break
    for i, section in enumerate(sections):
        if i not in used_indices:
            chunks.append((section.name, section.text))
    return chunks


_REFERENCE_HEADER_PREFIX = re.compile(r"[ \t]*([^:\n\r]*):")
_REFERENCE_HEADER_CONTENT = re.compile(r"[A-Za-z0-9 &,/\-]+")


def reference_header_end(line):
    """sectioner.header_end as it was before it counted letters in C: the
    offset just past the header colon, or None. Letters are counted with
    str.isalpha and str.isupper, one character at a time."""
    if ":" not in line:
        return None
    m = _REFERENCE_HEADER_PREFIX.match(line)
    if m is None:
        return None
    content = m.group(1).strip()
    if not 1 <= len(content) <= 48:
        return None
    if _REFERENCE_HEADER_CONTENT.fullmatch(content) is None:
        return None
    letters = [c for c in content if c.isalpha()]
    if not letters:
        return None
    upper = sum(1 for c in letters if c.isupper())
    if upper / len(letters) < 0.8:
        return None
    return m.end()


def _reference_sigmoid(z):
    z = max(min(z, _MAX_LOGIT), -_MAX_LOGIT)
    return 1.0 / (1.0 + np.exp(-z))


def reference_score(weights, bias, text):
    """The probability a model gives a normalized text, by a sum over its dict."""
    feats = reference_hash(text.split(), len(weights))
    logit = bias + sum(weights[i] * v for i, v in feats.items())
    return float(_reference_sigmoid(logit))


def _reference_loss(weights, bias, features, labels, l2):
    total = 0.0
    for feats, y in zip(features, labels):
        z = bias + sum(weights[i] * v for i, v in feats.items())
        total += float(np.logaddexp(0.0, z)) - y * z
    # The regularizer is summed without BLAS, as in the program: np.dot's
    # result depends on the BLAS thread count. This is the one deliberate
    # departure from the per-example code it reproduces.
    return total / len(features) + 0.5 * l2 * float(np.sum(weights * weights))


def reference_example_objective(weights, bias, feats, y, l2):
    """The objective one SGD step on an example descends: its logistic loss,
    softplus(z) - y*z, plus (l2/2) * the squared weights of its features only
    (lazy L2). feats maps each feature index to its count."""
    z = bias + sum(weights[i] * v for i, v in feats.items())
    return (float(np.logaddexp(0.0, z)) - y * z
            + 0.5 * l2 * sum(weights[i] * weights[i] for i in feats))


def reference_train(texts, labels, feature_dim, epochs, learning_rate, l2, seed):
    """Seeded per-example SGD over dict rows: (weights, bias, loss_history)."""
    features = [reference_hash(t.split(), feature_dim) for t in texts]
    rng = np.random.default_rng(seed)
    weights = np.zeros(feature_dim, dtype=np.float64)
    bias = 0.0
    history = []
    for _ in range(epochs):
        for idx in rng.permutation(len(features)):
            feats, y = features[idx], labels[idx]
            z = bias + sum(weights[i] * v for i, v in feats.items())
            err = _reference_sigmoid(z) - y
            for i, v in feats.items():
                weights[i] -= learning_rate * (err * v + l2 * weights[i])
            bias -= learning_rate * err
        history.append(_reference_loss(weights, bias, features, labels, l2))
    return weights, bias, history


def _reference_unknown_fields(obj, known, strict, where):
    unknown = [k for k in obj if k not in known]
    if unknown:
        if strict:
            raise ValidationError(f"{where}: field {unknown[0]!r}: unknown field")
        _corpus_logger.warning("%s: ignoring unknown fields %s", where, unknown)


def reference_record_from_dict(obj, *, strict=False, where="record"):
    """corpus.record_from_dict as it was before its inline checks: every field
    read through read_field, in this order, and every label through Tier."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: not a JSON object")
    _reference_unknown_fields(obj, _RECORD_FIELDS, strict, where)
    report_id = read_field(obj, "report_id", str, where)
    year = read_field(obj, "diagnosis_year", int, where)
    raw_text = read_field(obj, "raw_text", str, where)
    source_site = read_field(obj, "source_site", str, where, None)

    sections = []
    for j, s in enumerate(read_field(obj, "sections", list, where, None)
                          or ()):
        sub = f"{where}: sections[{j}]"
        if not isinstance(s, dict):
            raise ValidationError(f"{sub}: not a JSON object")
        _reference_unknown_fields(s, _SECTION_FIELDS, strict, sub)
        name = read_field(s, "name", str, sub)
        text = read_field(s, "text", str, sub)
        header = read_field(s, "header", str, sub, "")
        try:
            sections.append(Section(name=name, text=text, header=header))
        except ValidationError:
            raise ValidationError(
                f"{sub}: field 'name': not normalized (non-empty, lowercase, no whitespace)"
            ) from None

    labels = []
    for key, tier in (("t1_label", Tier.T1), ("t2_label", Tier.T2)):
        raw = read_field(obj, key, str, where, None)
        labels.append(None if raw is None else tier.parse_label(raw, where, key))
    try:
        report = PathologyReport(report_id, year, raw_text, source_site, tuple(sections))
    except ValidationError:
        raise ValidationError(f"{where}: field 'report_id': empty string") from None
    try:
        return LabeledReport(report, *labels)
    except ValidationError:
        raise ValidationError(f"{where}: field 't2_label': requires t1_label cancer") from None
