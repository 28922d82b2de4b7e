"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.

Criterion 2 checks that the externally reported recall/precision/F1 table
is arithmetically consistent under the rounding it was printed with: every
number is a half-up two-decimal rounding, so a printed 0.97 stands for any
value in [0.965, 0.975). Each row's printed F1 must be reachable from some
(recall, precision) that prints as the row's pair, and each (tier, model)
row pair must be reproduced, all six numbers, by one integer confusion
matrix and its class-swapped view.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from cli_util import write_config
from mock_server import MockClassifyServer, score_once
from oracles import naive_counts, naive_eval, reference_example_objective

from reportable_triage.backend.base import decide
from reportable_triage.backend.baseline import FeatureRows, sgd_step
from reportable_triage.cascade import or_combine
from reportable_triage.cli import main
from reportable_triage.corpus import (
    SynthSpec,
    T1Label,
    Tier,
    synth_corpus,
    write_corpus,
)
from reportable_triage.errors import RemoteProtocolError, ScoreRangeError
from reportable_triage.metrics import ConfusionMatrix, class_metrics, eval_report
from reportable_triage.sectioner import default_synonym_table, parse_sections, reassemble
from reportable_triage.util import round_half_up

import numpy as np


def report_line(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {status}{suffix}")


# --- criterion 1: OR-ensemble FN-subset property -------------------------------

def test_criterion_1_fn_subset_property():
    rng = random.Random(1401)
    t0 = time.monotonic()
    for _ in range(1000):
        n = 500
        golds = [rng.getrandbits(1) == 1 for _ in range(n)]
        preds_a = [rng.getrandbits(1) == 1 for _ in range(n)]
        preds_b = [rng.getrandbits(1) == 1 for _ in range(n)]
        miss_a, miss_b, miss_ens = set(), set(), set()
        for i in range(n):
            combined_positive = or_combine([decide(0.9 if preds_a[i] else 0.1, 0.5),
                                            decide(0.9 if preds_b[i] else 0.1, 0.5)])
            if golds[i]:
                if not preds_a[i]:
                    miss_a.add(i)
                if not preds_b[i]:
                    miss_b.add(i)
                if not combined_positive:
                    miss_ens.add(i)
        assert miss_ens == miss_a & miss_b
        assert len(miss_ens) <= min(len(miss_a), len(miss_b))
    elapsed = time.monotonic() - t0
    ok = elapsed < 5.0
    report_line(1, "or-ensemble fn-subset", ok, f"1000 trials in {elapsed:.2f}s")
    assert ok, f"runtime {elapsed:.2f}s exceeds the 5s budget"


# --- criterion 2: reported-table arithmetic ------------------------------------

# (tier, model, class, recall, precision, reported F1), as printed in the
# external reference tables at two decimals
REPORTED_ROWS = [
    ("t1", "model-g", "non cancer", 0.97, 1.00, 0.98),
    ("t1", "model-g", "cancer", 0.99, 0.89, 0.94),
    ("t1", "model-x", "non cancer", 0.97, 1.00, 0.99),
    ("t1", "model-x", "cancer", 0.99, 0.91, 0.95),
    ("t1", "combined", "non cancer", 0.96, 1.00, 0.98),
    ("t1", "combined", "cancer", 0.99, 0.88, 0.93),
    ("t2", "model-g", "non reportable", 0.99, 0.94, 0.96),
    ("t2", "model-g", "reportable", 0.98, 1.00, 0.99),
    ("t2", "model-x", "non reportable", 0.99, 0.95, 0.97),
    ("t2", "model-x", "reportable", 0.99, 1.00, 0.99),
    ("t2", "combined", "non reportable", 0.98, 0.96, 0.97),
    ("t2", "combined", "reportable", 0.99, 0.99, 0.99),
]


# half a unit in the second decimal: the width of a printed value's interval
HALF_HUNDREDTH = Fraction(1, 200)
# the witness search gives up beyond this many reports per (tier, model)
WITNESS_MAX_TOTAL = 400


def _f1(recall: Fraction, precision: Fraction) -> Fraction:
    return 2 * recall * precision / (recall + precision) if recall + precision else Fraction(0)


def f1_interval_ok(recall: float, precision: float, reported_f1: float) -> bool:
    """Whether some (recall, precision) printing as the pair has F1 printing as reported.

    F1 rises with recall and with precision, so over the box of values that
    print as (recall, precision) it spans exactly [f1(low corner), f1(high
    corner)]; the row is possible iff that range meets the half-up interval
    [reported - 0.005, reported + 0.005) of the printed F1.
    """
    r, p, f = (Fraction(str(v)) for v in (recall, precision, reported_f1))
    low = _f1(max(0, r - HALF_HUNDREDTH), max(0, p - HALF_HUNDREDTH))
    high = _f1(min(1, r + HALF_HUNDREDTH), min(1, p + HALF_HUNDREDTH))
    return low < f + HALF_HUNDREDTH and high >= f - HALF_HUNDREDTH


def _prints_as(num: int, den: int, value: float) -> bool:
    """Whether num/den rounds half-up to `value` at two decimals (exact integer test)."""
    t = round(value * 100)
    return den > 0 and (2 * t - 1) * den <= 200 * num < (2 * t + 1) * den


def _numerators(den: int, value: float) -> range:
    """Every k in [0, den] with k/den printing as `value`."""
    t = round(value * 100)
    return range(max(0, -(-(2 * t - 1) * den // 200)),
                 min(den, -(-(2 * t + 1) * den // 200) - 1) + 1)


def printed_pair(cm: ConfusionMatrix) -> tuple[tuple, tuple]:
    """The (negative class, positive class) rows of `cm` as the table prints them."""
    return tuple(
        tuple(None if v is None else round_half_up(v, 2) for v in (m.recall, m.precision, m.f1))
        for m in (class_metrics(cm.swapped()), class_metrics(cm))
    )


def find_witness(neg_row: tuple, pos_row: tuple) -> ConfusionMatrix | None:
    """The smallest confusion matrix whose two printed rows are `neg_row`, `pos_row`.

    Rows are (recall, precision, F1). The search runs over totals up to
    WITNESS_MAX_TOTAL in a fixed order (total, then positives, tp, tn); exact
    integer rounding tests prune it, and the repo's own `class_metrics` and
    `round_half_up` confirm the match.
    """
    (r_neg, p_neg, f_neg), (r_pos, p_pos, f_pos) = neg_row, pos_row
    for total in range(2, WITNESS_MAX_TOTAL + 1):
        for positives in range(1, total):
            negatives = total - positives
            for tp in _numerators(positives, r_pos):
                fn = positives - tp
                for tn in _numerators(negatives, r_neg):
                    fp = negatives - tn
                    if (_prints_as(tp, tp + fp, p_pos) and _prints_as(tn, tn + fn, p_neg)
                            and _prints_as(2 * tp, 2 * tp + fp + fn, f_pos)
                            and _prints_as(2 * tn, 2 * tn + fn + fp, f_neg)):
                        cm = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
                        if printed_pair(cm) == (neg_row, pos_row):
                            return cm
    return None


def table_consistency(rows) -> tuple[list[str], dict[tuple[str, str], ConfusionMatrix]]:
    """Mismatches and per-(tier, model) witnesses for rows in (negative, positive) pairs."""
    mismatches, witnesses = [], {}
    for neg, pos in zip(rows[::2], rows[1::2]):
        tier, model = neg[:2]
        assert pos[:2] == (tier, model), f"rows of {tier} {model} are not paired"
        impossible = [row for row in (neg, pos) if not f1_interval_ok(*row[3:])]
        for _, _, cls, recall, precision, reported_f1 in impossible:
            mismatches.append(
                f"{tier} {model} ({cls}): no values printing as ({recall:.2f}, "
                f"{precision:.2f}) give an F1 printing as {reported_f1:.2f}"
            )
        if impossible:
            continue
        cm = find_witness(neg[3:], pos[3:])
        if cm is None:
            mismatches.append(
                f"{tier} {model}: no confusion matrix of at most "
                f"{WITNESS_MAX_TOTAL} reports prints as both rows"
            )
        else:
            witnesses[(tier, model)] = cm
    return mismatches, witnesses


def test_criterion_2_table_consistency_arithmetic():
    t0 = time.monotonic()
    mismatches, witnesses = table_consistency(REPORTED_ROWS)
    elapsed = time.monotonic() - t0
    consistent = 2 * len(witnesses)
    ok = not mismatches
    found = "; ".join(f"{tier} {model} tp={cm.tp} fp={cm.fp} tn={cm.tn} fn={cm.fn}"
                      for (tier, model), cm in witnesses.items())
    report_line(2, "table-consistency arithmetic", ok,
                f"{consistent}/{len(REPORTED_ROWS)} rows consistent in {elapsed:.2f}s; "
                f"witnesses: {found}"
                + ("; " + "; ".join(mismatches) if mismatches else ""))
    assert ok, "reported rows that no correctly rounded table can print: " + "; ".join(mismatches)


@pytest.mark.parametrize("impossible_f1", [0.97, 1.00])
def test_criterion_2_rejects_impossible_row(impossible_f1):
    # f1 over the box printing as (0.97, 1.00) spans [0.9798, 0.9873]: neither
    # 0.97 nor 1.00 can be printed for it
    rows = [row[:5] + (impossible_f1,) if row[:3] == ("t1", "model-x", "non cancer") else row
            for row in REPORTED_ROWS]
    mismatches, witnesses = table_consistency(rows)
    assert len(mismatches) == 1 and mismatches[0].startswith("t1 model-x (non cancer)")
    assert ("t1", "model-x") not in witnesses and len(witnesses) == 5


# --- criterion 3: undersampling exactness at the default ratios -----------------

def run_build(config, out_dir, tier):
    assert main(["--config", str(config), "--out-dir", str(out_dir),
                 "build-dataset", "--tier", tier]) == 0
    return (out_dir / tier / "manifest.json").read_bytes()


def test_criterion_3_undersampling_exactness(tmp_path):
    t0 = time.monotonic()
    t1_corpus = synth_corpus(
        SynthSpec(n_reports=10400, cancer_fraction=0.21,
                  vocabulary_signal_strength=0.9), seed=301)
    write_corpus(t1_corpus, tmp_path / "t1_corpus.jsonl")
    t2_corpus = synth_corpus(
        SynthSpec(n_reports=2200, cancer_fraction=1.0,
                  reportable_fraction_within_cancer=0.8,
                  vocabulary_signal_strength=0.9), seed=302)
    write_corpus(t2_corpus, tmp_path / "t2_corpus.jsonl")

    cfg_t1 = write_config(tmp_path, corpus="t1_corpus.jsonl", name="cfg_t1.json")
    cfg_t2 = write_config(tmp_path, corpus="t2_corpus.jsonl", name="cfg_t2.json")

    t1_manifests = [run_build(cfg_t1, tmp_path / f"run_t1_{i}", "t1") for i in range(3)]
    t2_manifests = [run_build(cfg_t2, tmp_path / f"run_t2_{i}", "t2") for i in range(3)]
    assert t1_manifests[0] == t1_manifests[1] == t1_manifests[2]
    assert t2_manifests[0] == t2_manifests[1] == t2_manifests[2]

    m1 = json.loads(t1_manifests[0])
    train_cancer = m1["counts"]["train_before_undersample"]["cancer"]
    assert train_cancer == 1747  # round-half-up of 0.8 * 2184
    assert m1["counts"]["train"]["non_cancer"] == math.floor(0.8 * train_cancer) == 1397
    assert m1["counts"]["train"]["cancer"] == train_cancer

    m2 = json.loads(t2_manifests[0])
    train_nonrep = m2["counts"]["train_before_undersample"]["non_reportable"]
    assert train_nonrep == 352  # 0.8 * 440
    assert m2["counts"]["train"]["reportable"] == math.floor(1.2 * train_nonrep) == 422
    assert m2["counts"]["train"]["non_reportable"] == train_nonrep

    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    report_line(3, "undersampling exactness", ok,
                f"t1: floor(0.8*{train_cancer})=1397 non-cancers kept; "
                f"t2: floor(1.2*{train_nonrep})=422 reportables kept; "
                f"3 byte-identical reruns in {elapsed:.2f}s")
    assert ok, f"runtime {elapsed:.2f}s exceeds the 10s budget"


# --- criterion 4: metric oracle equivalence --------------------------------------

def test_criterion_4_metric_oracle_equivalence():
    rng = random.Random(1404)
    pos, neg = T1Label.CANCER, T1Label.NON_CANCER
    worst = 0.0
    for _ in range(200):
        n = 1000
        preds = [pos if rng.getrandbits(1) else neg for _ in range(n)]
        golds = [pos if rng.getrandbits(1) else neg for _ in range(n)]
        report = eval_report(preds, golds, Tier.T1)
        expected = naive_eval(preds, golds, pos, neg)
        for label in (pos, neg):
            got = report.metrics_for(label)
            want = expected["per_class"][label]
            for name in ("recall", "precision", "specificity", "f1", "accuracy"):
                g, w = getattr(got, name), want[name]
                assert (g is None) == (w is None), (label, name)
                if g is not None:
                    diff = abs(g - w)
                    worst = max(worst, diff)
                    assert diff <= 1e-12, (label, name, diff)
        assert abs(report.micro_f1 - expected["micro_f1"]) <= 1e-12
        assert abs(report.macro_f1 - expected["macro_f1"]) <= 1e-12
        assert report.missed_positive_count == expected["missed_positive_count"]
        tp, fp, tn, fn = naive_counts(preds, golds, pos)
        assert report.micro_f1 == (tp + tn) / n  # micro-F1 == accuracy, exactly
    report_line(4, "metric oracle equivalence", True,
                f"200 vectors, max |diff| = {worst:.2e}")


# --- criterion 5: baseline gradient check ----------------------------------------

def test_criterion_5_gradient_check():
    """sgd_step, the trainer's step, moves each coordinate of an example and
    the bias by lr times the central finite difference of the objective it
    descends (oracles.reference_example_objective), and no other coordinate."""
    rng = np.random.default_rng(1405)
    dim = 1 << 10
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(3, 9))))
             for _ in range(10)]
    rows = FeatureRows.hash_texts(texts, dim)
    assert rows.values.max() > 1  # a step that drops the counts must show
    labels = [int(rng.integers(0, 2)) for _ in range(10)]
    lr, l2, h = 0.5, 1e-3, 1e-6

    def rel_err(step_grad, fd):
        return abs(step_grad - fd) / max(abs(fd), abs(step_grad), 1e-8)

    worst, n_coords = 0.0, 0
    for (idx, val), y in zip(rows.row_slices(), labels):
        weights = rng.normal(scale=0.4, size=dim)
        bias = float(rng.normal(scale=0.5))
        feats = dict(zip(idx.tolist(), val.tolist()))
        stepped = weights.copy()
        new_bias = sgd_step(stepped, bias, idx, val, y, lr, l2)
        others = np.ones(dim, dtype=bool)
        others[idx] = False
        assert np.array_equal(stepped[others], weights[others])
        for i in feats:
            w_hi, w_lo = weights.copy(), weights.copy()
            w_hi[i] += h
            w_lo[i] -= h
            fd = (reference_example_objective(w_hi, bias, feats, y, l2)
                  - reference_example_objective(w_lo, bias, feats, y, l2)) / (2 * h)
            rel = rel_err((weights[i] - stepped[i]) / lr, fd)
            worst = max(worst, rel)
            assert rel < 1e-5, (i, rel)
        fd_b = (reference_example_objective(weights, bias + h, feats, y, l2)
                - reference_example_objective(weights, bias - h, feats, y, l2)) / (2 * h)
        rel_b = rel_err((bias - new_bias) / lr, fd_b)
        worst = max(worst, rel_b)
        assert rel_b < 1e-5, rel_b
        n_coords += len(feats)
    report_line(5, "baseline gradient check", True,
                f"{n_coords} coords + bias over {len(texts)} steps, max rel err {worst:.2e}")


# --- criteria 6 and 7: end-to-end run and gating soundness -----------------------

@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    base = tmp_path_factory.mktemp("accept_e2e")
    t0 = time.monotonic()
    assert main(["synth", "--n", "5000", "--signal", "1.0", "--seed", "1406",
                 "--out", str(base / "corpus.jsonl")]) == 0
    config = write_config(base, epochs=5)
    for tier in ("t1", "t2"):
        assert main(["--config", str(config), "build-dataset", "--tier", tier]) == 0
        for variant in ("a", "b"):
            assert main(["--config", str(config), "train-baseline",
                         "--tier", tier, "--variant", variant]) == 0

    t1_test = base / "out/t1/test.jsonl"
    t2_test = base / "out/t2/test.jsonl"
    outcomes_t1 = base / "out/outcomes_t1.jsonl"
    outcomes_t2 = base / "out/outcomes_t2_goldscope.jsonl"
    assert main(["--config", str(config), "triage", "--corpus", str(t1_test),
                 "--out", str(outcomes_t1), "--t2-scope", "predicted"]) == 0
    assert main(["--config", str(config), "triage", "--corpus", str(t2_test),
                 "--out", str(outcomes_t2), "--t2-scope", "gold"]) == 0

    eval_dir = base / "out/eval"
    assert main(["evaluate", "--outcomes", str(outcomes_t1), "--gold", str(t1_test),
                 "--tier", "t1", "--gating", "predicted", "--out", str(eval_dir)]) == 0
    assert main(["evaluate", "--outcomes", str(outcomes_t2), "--gold", str(t2_test),
                 "--tier", "t2", "--gating", "gold", "--out", str(eval_dir)]) == 0
    elapsed = time.monotonic() - t0
    return {"base": base, "eval_dir": eval_dir, "outcomes_t1": outcomes_t1,
            "elapsed": elapsed}


def test_criterion_6_end_to_end_recall(end_to_end):
    t1_doc = json.loads((end_to_end["eval_dir"] / "eval_t1.json").read_text())
    t2_doc = json.loads((end_to_end["eval_dir"] / "eval_t2.json").read_text())
    t1_recall = next(m for m in t1_doc["models"] if m["model"] == "combined")[
        "per_class"]["cancer"]["recall"]
    t2_recall = next(m for m in t2_doc["models"] if m["model"] == "combined")[
        "per_class"]["reportable"]["recall"]
    elapsed = end_to_end["elapsed"]
    ok = t1_recall >= 0.98 and t2_recall >= 0.98 and elapsed < 120.0
    report_line(6, "end-to-end desk-scale run", ok,
                f"t1 recall {t1_recall:.4f}, t2 recall {t2_recall:.4f}, "
                f"{elapsed:.1f}s")
    assert t1_recall >= 0.98
    assert t2_recall >= 0.98
    assert elapsed < 120.0


def test_criterion_7_gating_soundness(end_to_end):
    violations = 0
    scanned = 0
    with open(end_to_end["outcomes_t1"], encoding="utf-8") as fh:
        for line in fh:
            outcome = json.loads(line)
            scanned += 1
            t1_positive = outcome["t1"]["combined"] == "cancer"
            if (outcome["t2"] is not None) != t1_positive:
                violations += 1
    ok = violations == 0 and scanned > 0
    report_line(7, "gating soundness", ok, f"{scanned} outcomes scanned")
    assert ok, f"{violations} outcomes violate the t2-iff-t1-positive invariant"


# --- criterion 8: remote wire conformance -----------------------------------------

def test_criterion_8_wire_conformance(tmp_path):
    # golden request bytes
    with MockClassifyServer(MockClassifyServer.echo_scores([0.2, 0.4, 0.6])) as server:
        score_once(server.endpoint, Tier.T1, ["alpha", "beta", "gamma"], timeout=5)
        body = server.requests[0].body
        headers = server.requests[0].headers
        path = server.requests[0].path
    golden = b'{"task":"t1","texts":["alpha","beta","gamma"]}'
    assert body == golden
    assert path == "/v1/classify"
    assert headers.get("x-client") == "reportable-triage/1"

    # count mismatch and out-of-range raise their designated error kinds
    with MockClassifyServer(MockClassifyServer.echo_scores([0.1, 0.2])) as server:
        with pytest.raises(RemoteProtocolError):
            score_once(server.endpoint, Tier.T1, ["a", "b", "c"], timeout=5)
    with MockClassifyServer(MockClassifyServer.echo_scores([1.5])) as server:
        with pytest.raises(ScoreRangeError):
            score_once(server.endpoint, Tier.T1, ["a"], timeout=5)

    # a 3-text batch against a stalled endpoint: the client retries the
    # configured number of times, then the triage command exits 2
    corpus = synth_corpus(SynthSpec(n_reports=3), seed=1408)
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    with MockClassifyServer(MockClassifyServer.score_per_text(), sleep_s=2.0) as server:
        config = write_config(
            tmp_path, remote_kind=True,
            remote={"timeout": 0.2, "max_retries": 2,
                    "endpoints": {"t1": server.endpoint, "t2": server.endpoint}})
        code = main(["--config", str(config), "triage",
                     "--out", str(tmp_path / "o.jsonl")])
        attempts = len(server.requests)
    assert code == 2
    assert attempts == 3  # 1 initial + 2 configured retries
    report_line(8, "remote wire conformance", True,
                f"golden body ok, {attempts} attempts, exit 2")


# --- criterion 9: sectioner lossless partition --------------------------------------

CURATED_DOCS = [
    "",
    "no headers at all",
    "DIAGNOSIS:\ninvasive carcinoma\n",
    "FINAL DIAGNOSIS:\ninvasive carcinoma",
    "clinical note text\nSYNOPTIC REPORT:\nTumour size: 2 cm\nDIAGNOSIS:\nbenign",
    "DIAGNOSIS: benign nevus, excised\n",
    "SYNOPTIC REPORT:\nDIAGNOSIS:\nback to back headers\n",
    "   INDENTED HEADER:\nbody\n",
    "UNKNOWN SECTION NAME:\nsomething\nANOTHER ONE:\nmore\n",
    "preamble only\nwith a colon: in prose\n",
    "DIAGNOSIS:\r\ncarriage returns\r\nSPECIMENS RECEIVED:\r\nskin\r\n",
    "A" * 48 + ":\nmax length header\n",
    "A" * 49 + ":\ntoo long to be a header\n",
    "MIXEDcase:\nratio below threshold\n",
    "ABCDe:\nexactly at the 80% uppercase boundary\n",
    "123:\ndigits only, not a header\n",
    "DIAGNOSIS:\n\n\nblank body lines\n\n",
    "GROSS DESCRIPTION:\ntwo fragments of tissue\nDIAGNOSIS:\nbenign\n",
    "SPECIMEN(S) RECEIVED:\nparenthesised header is prose\n",
    "trailing header no newline\nDIAGNOSIS:",
]


def test_criterion_9_sectioner_lossless_partition():
    table = default_synonym_table()
    rng = random.Random(1409)
    alphabet = (
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
        " :\n\t&,/-().;\réµΩ北"
    )
    docs = list(CURATED_DOCS)
    for _ in range(1000):
        docs.append("".join(rng.choice(alphabet)
                            for _ in range(rng.randrange(0, 300))))
    for doc in docs:
        sections = parse_sections(doc, table)
        assert reassemble(sections) == doc
        assert parse_sections(reassemble(sections), table) == sections
    report_line(9, "sectioner lossless partition", True,
                f"{len(docs)} documents ({len(CURATED_DOCS)} curated + 1000 fuzzed)")
