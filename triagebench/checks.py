"""Correctness checks on the program's outputs.

Every check reads the files the commands wrote and tests a property, or
recomputes the result independently from the gold corpus; none compares
against stored output. A failed check raises CheckFailed.
"""

from __future__ import annotations

import copy
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

POSITIVE = {"t1": "cancer", "t2": "reportable"}
NEGATIVE = {"t1": "non_cancer", "t2": "non_reportable"}
BATCH_SIZE = 256  # the cascade's batch size: one remote request per batch


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def gold_labels(records: list[dict], tier: str) -> dict[str, str]:
    key = f"{tier}_label"
    return {r["report_id"]: r[key] for r in records if r.get(key) is not None}


# --- outcomes -------------------------------------------------------------

def check_outcomes(outcomes: list[dict]) -> None:
    """Per outcome: member label vs threshold, OR rule, gating, final label."""
    for o in outcomes:
        rid = o["report_id"]
        positive = {}
        for tier in ("t1", "t2"):
            res = o.get(tier)
            if res is None:
                continue
            members = res["members"]
            require(len(members) == 2, f"{rid} {tier}: {len(members)} members")
            for m in members:
                want = POSITIVE[tier] if m["probability"] >= m["threshold"] else NEGATIVE[tier]
                require(m["label"] == want,
                        f"{rid} {tier} {m['backend_id']}: label {m['label']} but "
                        f"probability {m['probability']} vs threshold {m['threshold']}")
            any_pos = any(m["label"] == POSITIVE[tier] for m in members)
            require(res["combined"] == (POSITIVE[tier] if any_pos else NEGATIVE[tier]),
                    f"{rid} {tier}: combined {res['combined']} breaks the OR rule")
            positive[tier] = any_pos
        require("t1" in positive, f"{rid}: no t1 result")
        require(("t2" in positive) == positive["t1"],
                f"{rid}: t2 {'present' if 't2' in positive else 'absent'} with t1 "
                f"{'positive' if positive['t1'] else 'negative'}")
        if not positive["t1"]:
            want = "non_cancer"
        else:
            want = "cancer_reportable" if positive["t2"] else "cancer_non_reportable"
        require(o["final"] == want, f"{rid}: final {o['final']}, tiers say {want}")


def _evaluated(outcomes: list[dict], gold: dict[str, str], tier: str) -> list[tuple]:
    """(gold, member A label, member B label, combined) over the evaluated
    reports: every gold-labeled report for t1, those with a t2 result for t2."""
    by_id = {o["report_id"]: o for o in outcomes}
    require(len(by_id) == len(outcomes), "duplicate report_id in outcomes")
    rows = []
    for rid, label in gold.items():
        require(rid in by_id, f"{rid}: gold record without outcome")
        res = by_id[rid].get(tier)
        if res is None:
            continue
        a, b = (m["label"] for m in res["members"])
        rows.append((label, a, b, res["combined"]))
    return rows


def check_fn_intersection(outcomes: list[dict], gold: dict[str, str], tier: str) -> None:
    """FN(combined) = FN(A) ∩ FN(B) against gold."""
    pos = POSITIVE[tier]
    fn_a, fn_b, fn_c = set(), set(), set()
    for i, (g, a, b, c) in enumerate(_evaluated(outcomes, gold, tier)):
        if g == pos:
            for fn, label in ((fn_a, a), (fn_b, b), (fn_c, c)):
                if label != pos:
                    fn.add(i)
    require(fn_c == fn_a & fn_b, f"{tier}: FN(combined) != FN(A) & FN(B)")


def _ratio(num: int, den: int):
    return float(Fraction(num, den)) if den else None


def _class_metrics(tp: int, fp: int, tn: int, fn: int) -> dict:
    recall, precision = _ratio(tp, tp + fn), _ratio(tp, tp + fp)
    f1 = (None if recall is None or precision is None or recall + precision == 0
          else _ratio(2 * tp, 2 * tp + fp + fn))
    return {"recall": recall, "precision": precision, "specificity": _ratio(tn, tn + fp),
            "f1": f1, "accuracy": _ratio(tp + tn, tp + fp + tn + fn)}


def check_eval(doc: dict, outcomes: list[dict], gold: dict[str, str], tier: str) -> dict:
    """eval_<tier>.json against a TP/FP/TN/FN recount; returns the recount."""
    rows = _evaluated(outcomes, gold, tier)
    pos, neg = POSITIVE[tier], NEGATIVE[tier]
    require(doc["task"] == tier and doc["gating"] == "predicted", f"eval {tier}: header")
    require(doc["n_gold"] == len(rows), f"eval {tier}: n_gold {doc['n_gold']} != {len(rows)}")
    members = next(o[tier]["members"] for o in outcomes if o.get(tier) is not None)
    models = doc["models"]
    require([m["model"] for m in models] == [m["backend_id"] for m in members] + ["combined"],
            f"eval {tier}: expected the two members in file order, then combined")
    recount = {}
    for col, model in enumerate(models, start=1):
        cm = Counter((row[0] == pos, row[col] == pos) for row in rows)
        tp, fn = cm[(True, True)], cm[(True, False)]
        fp, tn = cm[(False, True)], cm[(False, False)]
        per_pos, per_neg = _class_metrics(tp, fp, tn, fn), _class_metrics(tn, fn, tp, fp)
        micro = _ratio(tp + tn, tp + fp + tn + fn)
        macro = (None if per_pos["f1"] is None or per_neg["f1"] is None
                 else (per_pos["f1"] + per_neg["f1"]) / 2)
        want = {"n_evaluated": len(rows), "missed_positive_count": fn,
                "per_class": {pos: per_pos, neg: per_neg},
                "micro_f1": micro, "macro_f1": macro}
        for key, value in want.items():
            require(model[key] == value,
                    f"eval {tier} {model['model']}: {key} {model[key]!r} != recount {value!r}")
        recount[model["model"]] = {"tp": tp, "fp": fp, "tn": tn, "fn": fn, **per_pos}
    return recount


# --- build-dataset ----------------------------------------------------------

def check_dataset(corpus: list[dict], train: list[dict], test: list[dict],
                  manifest: dict, tier: str, policy: tuple[str, str, float],
                  train_fraction: float) -> None:
    """Split disjoint and exhaustive, kept class whole, sampled class exact."""
    kept, sampled, ratio = policy
    key = f"{tier}_label"
    labeled = {r["report_id"]: r for r in corpus if r.get(key) is not None}
    train_ids = [r["report_id"] for r in train]
    test_ids = [r["report_id"] for r in test]
    require(len(set(train_ids)) == len(train_ids) and len(set(test_ids)) == len(test_ids),
            f"{tier}: duplicate ids in a split")
    require(not set(train_ids) & set(test_ids), f"{tier}: train and test overlap")
    for r in train + test:
        require(labeled.get(r["report_id"]) == r,
                f"{tier}: {r['report_id']} differs from the input record")
    test_set = set(test_ids)
    pool = [r for rid, r in labeled.items() if rid not in test_set]

    # stratified split: each class keeps round-half-up(train_fraction * n) in train
    labels = (POSITIVE[tier], NEGATIVE[tier])
    by_class = Counter(r[key] for r in labeled.values())
    pool_class = Counter(r[key] for r in pool)
    frac = Fraction(str(train_fraction))
    for label in labels:
        want = math.floor(frac * by_class[label] + Fraction(1, 2))
        require(pool_class[label] == want,
                f"{tier}: split keeps {pool_class[label]} {label} for training, want {want}")
    counts = manifest["counts"]
    require(counts["input"] == {k: by_class[k] for k in labels}, f"{tier}: manifest input counts")
    require(counts["train_before_undersample"] == {k: pool_class[k] for k in labels},
            f"{tier}: manifest train_before_undersample counts")

    train_class = Counter(r[key] for r in train)
    pool_kept = {r["report_id"] for r in pool if r[key] == kept}
    require(pool_kept <= set(train_ids), f"{tier}: kept class {kept} is not whole")
    target = min(math.floor(Fraction(str(ratio)) * len(pool_kept)), pool_class[sampled])
    require(train_class[sampled] == target,
            f"{tier}: {train_class[sampled]} {sampled} in train, want {target}")
    require(sum(train_class.values()) == len(pool_kept) + target, f"{tier}: stray classes")
    require(counts["train"] == {k: train_class[k] for k in labels},
            f"{tier}: manifest train counts")


# --- long_raw -----------------------------------------------------------------

def check_sectioning(raw_texts: list[str], parse_sections, reassemble) -> None:
    for i, raw in enumerate(raw_texts):
        require(reassemble(parse_sections(raw)) == raw, f"report {i}: sectioning is lossy")


def check_budgets(inputs, budget: int) -> None:
    """No assembled input exceeds its token budget."""
    for inp in inputs:
        n = len(inp.text.split())
        require(n <= budget and inp.approx_token_count == n,
                f"assembled input of {n} tokens over budget {budget}")


# --- remote_hosted ------------------------------------------------------------

def check_remote(outcomes: list[dict], log: list[dict], budget: int) -> None:
    """Each member probability is exactly the score the service computed for
    the text it received, in ceil(n/256) requests per member per tier."""
    for tier in ("t1", "t2"):
        results = [o[tier] for o in outcomes if o.get(tier) is not None]
        n = len(results)
        entries = [e for e in log if e["task"] == tier]
        per_member = -(-n // BATCH_SIZE)
        require(len(entries) == 2 * per_member,
                f"{tier}: {len(entries)} requests, want 2 x ceil({n}/{BATCH_SIZE})")
        for e in entries:
            require(e["max_tokens"] <= budget, f"{tier}: service received a text over budget")
        for m in range(2):
            served = [s for e in entries[m * per_member:(m + 1) * per_member]
                      for s in e["scores"]]
            got = [res["members"][m]["probability"] for res in results]
            require(served == got,
                    f"{tier} member {m}: probabilities differ from the scores served")


# --- negative controls ----------------------------------------------------------

def negative_controls(outcomes: list[dict]) -> None:
    """The outcome checks must reject a flipped member label and a dropped t2."""
    flipped = copy.deepcopy(outcomes)
    member = flipped[0]["t1"]["members"][0]
    member["label"] = NEGATIVE["t1"] if member["label"] == POSITIVE["t1"] else POSITIVE["t1"]
    dropped = copy.deepcopy(outcomes)
    victim = next((o for o in dropped if o.get("t2") is not None), None)
    require(victim is not None, "negative control: no outcome with a t2 result")
    victim["t2"] = None
    for name, bad in (("flipped member label", flipped), ("dropped t2 result", dropped)):
        try:
            check_outcomes(bad)
        except CheckFailed:
            continue
        raise CheckFailed(f"negative control not rejected: {name}")
