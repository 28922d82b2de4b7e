import random

import pytest

from reportable_triage.backend.base import ClassifierScore, decide
from reportable_triage.backend.baseline import TrainHyper, BaselineBackend, train_baseline
from reportable_triage.cascade import (
    FinalLabel,
    TierConfig,
    check_gating_soundness,
    dumps_outcome,
    or_combine,
    read_outcomes,
    run_tier,
    triage,
)
from reportable_triage.config import MemberConfig
from reportable_triage.corpus import (
    PathologyReport,
    SynthSpec,
    T1Label,
    T2Label,
    Tier,
    synth_corpus,
)
from reportable_triage.errors import ConfigurationError, TierExecutionError, ValidationError
from reportable_triage.preprocess import PipelineVariant, assemble_input

A, B = PipelineVariant.A_SYNOPTIC_FIRST, PipelineVariant.B_DIAGNOSIS_FIRST
HIGH, LOW = ClassifierScore(0.9), ClassifierScore(0.1)


def dec(tier, positive, backend_id="b"):
    score = HIGH if positive else LOW
    return decide(score, 0.5, tier, backend_id)


# --- or_combine --------------------------------------------------------------

def test_or_combine_one_positive():
    assert or_combine([dec(Tier.T1, True), dec(Tier.T1, False)]) is T1Label.CANCER


def test_or_combine_none_positive():
    assert or_combine([dec(Tier.T1, False), dec(Tier.T1, False)]) is T1Label.NON_CANCER


def test_or_combine_both_positive():
    assert or_combine([dec(Tier.T2, True), dec(Tier.T2, True)]) is T2Label.REPORTABLE


def test_or_combine_rejects_mixed_tasks():
    with pytest.raises(ConfigurationError, match="mixed"):
        or_combine([dec(Tier.T1, True), dec(Tier.T2, True)])
    with pytest.raises(ConfigurationError):
        or_combine([])


# --- fake backends for orchestration tests -----------------------------------

class KeywordBackend:
    """Scores 0.9 when its keyword occurs in the input text, else 0.1."""

    def __init__(self, backend_id, keyword):
        self.backend_id = backend_id
        self.keyword = keyword
        self.calls = 0

    def score_batch(self, inputs):
        self.calls += 1
        return [ClassifierScore(0.9 if self.keyword in inp.text.split() else 0.1)
                for inp in inputs]


class RecordingBackend(KeywordBackend):
    def __init__(self, backend_id, keyword):
        super().__init__(backend_id, keyword)
        self.texts = []

    def score_batch(self, inputs):
        self.texts.extend(inp.text for inp in inputs)
        return super().score_batch(inputs)


class FailingBackend:
    backend_id = "broken"

    def score_batch(self, inputs):
        raise ValidationError("backend exploded")


def report_from_raw(rid, raw):
    from reportable_triage.sectioner import default_synonym_table, parse_sections
    return PathologyReport(report_id=rid, diagnosis_year=2023, raw_text=raw,
                           sections=tuple(parse_sections(raw, default_synonym_table())))


def member(backend_id, variant, **settings):
    return MemberConfig(backend_id=backend_id, kind="native_baseline", variant=variant,
                        **settings)


def tier_of(task, backend_a, backend_b, **settings):
    """A tier whose variant-A and variant-B members are scored by these backends."""
    return TierConfig(task=task,
                      members=(member(backend_a.backend_id, A, **settings),
                               member(backend_b.backend_id, B, **settings)),
                      backends=(backend_a, backend_b))


def keyword_tier(task, keyword_a="carcinoma", keyword_b="carcinoma"):
    return tier_of(task, KeywordBackend("kw-a", keyword_a), KeywordBackend("kw-b", keyword_b))


# --- TierConfig validation ----------------------------------------------------

def test_tier_config_needs_two_distinct_variants():
    x, y = KeywordBackend("x", "k"), KeywordBackend("y", "k")
    TierConfig(task=Tier.T1, members=(member("x", A), member("y", B)), backends=(x, y))
    rejected = [
        ((member("x", A), member("y", A)), (x, y), "variants A and B"),
        ((member("x", A),), (x,), "exactly two members"),
        ((member("x", A), member("x", B)), (x, x), "backend_ids must be distinct"),
        ((member("x", A), member("y", B)), (x,), "one backend per member"),
    ]
    for members, backends, reason in rejected:
        with pytest.raises(ConfigurationError, match=reason):
            TierConfig(task=Tier.T1, members=members, backends=backends)


# --- run_tier ------------------------------------------------------------------

def test_run_tier_empty():
    results, inputs = run_tier([], keyword_tier(Tier.T1))
    assert results == [] and inputs == ([], [])


def test_run_tier_signal_only_in_synoptic_fires_member_a():
    raw = "SYNOPTIC REPORT:\ncarcinoma present\nDIAGNOSIS:\nsee synoptic note\n"
    report = report_from_raw("R1", raw)
    # member A reads synoptic-first, member B reads diagnosis-first with a tight
    # budget so only its priority section is visible to it
    config = tier_of(Tier.T1, KeywordBackend("kw-a", "carcinoma"),
                     KeywordBackend("kw-b", "carcinoma"), token_budget=2)
    [result], _ = run_tier([report], config)
    by_id = {d.backend_id: d for d in result.member_decisions}
    assert by_id["kw-a"].is_positive
    assert not by_id["kw-b"].is_positive
    assert result.combined_label is T1Label.CANCER


def test_run_tier_identical_decisions_combined_equal():
    raw = "SYNOPTIC REPORT:\nbenign\nDIAGNOSIS:\nbenign\n"
    [result], _ = run_tier([report_from_raw("R1", raw)], keyword_tier(Tier.T1))
    assert not result.is_positive
    assert result.combined_label is T1Label.NON_CANCER


def test_run_tier_order_preserving_and_batched():
    reports = [
        report_from_raw(f"R{i}",
                        f"SYNOPTIC REPORT:\n{'carcinoma' if i % 3 == 0 else 'benign'}\n"
                        f"DIAGNOSIS:\n{'carcinoma' if i % 3 == 0 else 'benign'}\n")
        for i in range(10)
    ]
    results, _ = run_tier(reports, keyword_tier(Tier.T1), batch_size=3)
    for i, res in enumerate(results):
        assert res.is_positive == (i % 3 == 0)


def test_run_tier_member_a_scores_every_batch_in_order_before_member_b():
    calls = []

    class LoggingBackend(KeywordBackend):
        def score_batch(self, inputs):
            calls.append((self.backend_id, [inp.text for inp in inputs]))
            return super().score_batch(inputs)

    reports = [report_from_raw(f"R{i}", f"SYNOPTIC REPORT:\nsyn {i}\n"
                                        f"DIAGNOSIS:\ndx {i}\n") for i in range(7)]
    config = tier_of(Tier.T1, LoggingBackend("rec-a", "x"), LoggingBackend("rec-b", "x"))
    run_tier(reports, config, batch_size=3)
    texts = {v: [assemble_input(r, v).text for r in reports] for v in (A, B)}
    assert calls == [("rec-a", texts[A][s:s + 3]) for s in (0, 3, 6)] + \
        [("rec-b", texts[B][s:s + 3]) for s in (0, 3, 6)]


def test_run_tier_returns_the_input_each_member_scored():
    reports = [report_from_raw(f"R{i}", f"SYNOPTIC REPORT:\ncarcinoma {i}\n"
                                        f"DIAGNOSIS:\nnote {i}\n") for i in range(5)]
    given = [assemble_input(r, B, 3) for r in reports]
    a, b = RecordingBackend("rec-a", "x"), RecordingBackend("rec-b", "x")
    config = tier_of(Tier.T1, a, b, token_budget=256)
    _, (inputs_a, inputs_b) = run_tier(reports, config, batch_size=2, inputs=[None, given])
    assert inputs_a == [assemble_input(r, A, 256) for r in reports]
    assert inputs_b == given
    assert a.texts == [i.text for i in inputs_a] and b.texts == [i.text for i in given]


def test_run_tier_backend_failure_names_report_range():
    config = tier_of(Tier.T1, FailingBackend(), KeywordBackend("kw-b", "x"))
    reports = [report_from_raw(f"R{i}", "DIAGNOSIS:\nbenign\n") for i in range(4)]
    with pytest.raises(TierExecutionError) as exc:
        run_tier(reports, config, batch_size=2)
    assert "broken" in str(exc.value)
    assert "R0" in str(exc.value) and "R1" in str(exc.value)


# --- triage --------------------------------------------------------------------

def cancer_raw(reportable=True):
    t2_word = "staging" if reportable else "recurrent"
    return (f"SYNOPTIC REPORT:\ncarcinoma {t2_word}\n"
            f"DIAGNOSIS:\ncarcinoma {t2_word}\n")


BENIGN_RAW = "SYNOPTIC REPORT:\nbenign\nDIAGNOSIS:\nbenign\n"


def full_cascade():
    t1 = keyword_tier(Tier.T1, "carcinoma", "carcinoma")
    t2 = keyword_tier(Tier.T2, "staging", "staging")
    return t1, t2


def test_triage_gating_and_final_labels():
    reports = [
        report_from_raw("neg", BENIGN_RAW),
        report_from_raw("pos-rep", cancer_raw(reportable=True)),
        report_from_raw("pos-nonrep", cancer_raw(reportable=False)),
    ]
    t1, t2 = full_cascade()
    outcomes = triage(reports, t1, t2)
    assert [o.report_id for o in outcomes] == ["neg", "pos-rep", "pos-nonrep"]
    assert outcomes[0].final is FinalLabel.NON_CANCER
    assert outcomes[0].t2 is None
    assert outcomes[1].final is FinalLabel.CANCER_REPORTABLE
    assert outcomes[2].final is FinalLabel.CANCER_NON_REPORTABLE
    check_gating_soundness(outcomes)


def test_triage_t2_invocation_count_matches_t1_positives():
    rng = random.Random(6)
    reports = []
    n_pos = 0
    for i in range(100):
        if rng.random() < 0.3:
            reports.append(report_from_raw(f"R{i}", cancer_raw()))
            n_pos += 1
        else:
            reports.append(report_from_raw(f"R{i}", BENIGN_RAW))
    t1, t2 = full_cascade()
    outcomes = triage(reports, t1, t2)
    scored_t2 = sum(1 for o in outcomes if o.t2 is not None)
    assert scored_t2 == n_pos
    t1_pos = sum(1 for o in outcomes if o.t1.is_positive)
    assert t1_pos == n_pos


def test_triage_explicit_t2_scope():
    reports = [report_from_raw("neg", BENIGN_RAW),
               report_from_raw("pos", cancer_raw())]
    t1, t2 = full_cascade()
    outcomes = triage(reports, t1, t2, t2_report_ids={"neg", "pos"})
    assert outcomes[0].t2 is not None  # scored even though t1-negative
    assert outcomes[0].final is FinalLabel.NON_CANCER  # final keeps production semantics
    with pytest.raises(ValidationError):
        check_gating_soundness(outcomes)


@pytest.mark.parametrize("t2_scope", ["predicted", "gold"])
@pytest.mark.parametrize("t2_budget_b", [256, 3])
def test_triage_t2_reads_the_inputs_t1_assembled(monkeypatch, t2_scope, t2_budget_b):
    import reportable_triage.cascade as cascade

    calls = []

    def counting_assemble(*args):
        calls.append(args)
        return assemble_input(*args)

    monkeypatch.setattr(cascade, "assemble_input", counting_assemble)
    rng = random.Random(8)
    # the members' inputs differ: the sections hold different words
    reports = [report_from_raw(f"R{i}", f"SYNOPTIC REPORT:\ncarcinoma staging {i}\n"
                                        f"DIAGNOSIS:\ncarcinoma note\nSPECIMEN:\nskin\n"
                               if rng.random() < 0.4 else BENIGN_RAW) for i in range(20)]
    t1 = tier_of(Tier.T1, KeywordBackend("kw-a", "carcinoma"),
                 KeywordBackend("kw-b", "carcinoma"), token_budget=256)
    t2_a, t2_b = RecordingBackend("t2-a", "staging"), RecordingBackend("t2-b", "staging")
    t2 = TierConfig(task=Tier.T2,
                    members=(member("t2-a", A, token_budget=256),
                             member("t2-b", B, token_budget=t2_budget_b)),
                    backends=(t2_a, t2_b))
    ids = {r.report_id for r in reports[::3]} if t2_scope == "gold" else None
    outcomes = triage(reports, t1, t2, batch_size=3, t2_report_ids=ids)

    selected = [r for r, o in zip(reports, outcomes) if o.t2 is not None]
    assert 0 < len(selected) < len(reports)
    assert [r.report_id for r in selected] == [
        r.report_id for r, o in zip(reports, outcomes)
        if (o.t1.is_positive if ids is None else r.report_id in ids)]
    assert t2_a.texts == [assemble_input(r, A, 256).text for r in selected]
    assert t2_b.texts == [assemble_input(r, B, t2_budget_b).text for r in selected]
    # tier 2 assembles only for the member whose settings no t1 member shares
    shared = t2_budget_b == 256
    assert len(calls) == 2 * len(reports) + (0 if shared else len(selected))


def test_triage_rejects_swapped_tier_configs():
    t1, t2 = full_cascade()
    with pytest.raises(ConfigurationError):
        triage([], t2, t1)


# --- FN-subset property --------------------------------------------------------

def test_fn_subset_property_randomized():
    rng = random.Random(17)
    for _ in range(50):
        n = 200
        golds = [rng.random() < 0.4 for _ in range(n)]
        a = [rng.random() < 0.7 for _ in range(n)]   # member A says positive
        b = [rng.random() < 0.7 for _ in range(n)]
        combined = [
            or_combine([dec(Tier.T1, pa, "a"), dec(Tier.T1, pb, "b")]) is T1Label.CANCER
            for pa, pb in zip(a, b)
        ]
        miss_a = {i for i in range(n) if golds[i] and not a[i]}
        miss_b = {i for i in range(n) if golds[i] and not b[i]}
        miss_c = {i for i in range(n) if golds[i] and not combined[i]}
        assert miss_c == miss_a & miss_b
        assert len(miss_c) <= min(len(miss_a), len(miss_b))


def test_ensemble_recall_at_least_max_member_recall():
    rng = random.Random(23)
    n = 500
    golds = [rng.random() < 0.3 for _ in range(n)]
    a = [g and rng.random() < 0.9 or (not g and rng.random() < 0.1) for g in golds]
    b = [g and rng.random() < 0.8 or (not g and rng.random() < 0.2) for g in golds]
    pos = sum(golds)
    recall_a = sum(1 for g, p in zip(golds, a) if g and p) / pos
    recall_b = sum(1 for g, p in zip(golds, b) if g and p) / pos
    recall_or = sum(1 for g, pa, pb in zip(golds, a, b) if g and (pa or pb)) / pos
    assert recall_or >= max(recall_a, recall_b)


# --- serialization ------------------------------------------------------------

def test_outcome_round_trip(tmp_path):
    reports = [report_from_raw("pos", cancer_raw()), report_from_raw("neg", BENIGN_RAW)]
    t1, t2 = full_cascade()
    outcomes = triage(reports, t1, t2)
    path = tmp_path / "outcomes.jsonl"
    path.write_text("".join(dumps_outcome(o) + "\n" for o in outcomes), encoding="utf-8")
    loaded = read_outcomes(path)
    assert list(loaded) == ["pos", "neg"]
    assert loaded["pos"]["final"] == "cancer_reportable"
    assert loaded["pos"]["t1"]["combined_by"] == "or"
    assert len(loaded["pos"]["t1"]["members"]) == 2
    assert loaded["neg"]["t2"] is None
    member = loaded["pos"]["t1"]["members"][0]
    assert set(member) == {"backend_id", "label", "probability", "threshold"}


def test_read_outcomes_validates(tmp_path):
    path = tmp_path / "o.jsonl"
    path.write_text('{"report_id": "R"}\n', encoding="utf-8")
    with pytest.raises(ValidationError, match="final"):
        read_outcomes(path)
    path.write_text("nope\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 1"):
        read_outcomes(path)


def test_end_to_end_with_trained_baselines_on_synth():
    corpus = synth_corpus(SynthSpec(n_reports=400, vocabulary_signal_strength=1.0), seed=77)
    hyper = TrainHyper(epochs=3, feature_dim=1 << 14)

    def pairs(variant, tier):
        out = []
        for rec in corpus:
            label = rec.label_for(tier)
            if label is None:
                continue
            inp = assemble_input(rec.report, variant, 256)
            out.append((inp, 1 if label == tier.positive else 0))
        return out

    def tier_config(tier):
        backends = [
            BaselineBackend(model=train_baseline(pairs(variant, tier), hyper, seed=5),
                            backend_id=f"bl-{name}")
            for variant, name in ((A, "a"), (B, "b"))
        ]
        return tier_of(tier, *backends, token_budget=256)

    outcomes = triage([r.report for r in corpus], tier_config(Tier.T1),
                      tier_config(Tier.T2))
    check_gating_soundness(outcomes)
    by_id = {o.report_id: o for o in outcomes}
    correct_t1 = sum(
        1 for rec in corpus
        if by_id[rec.report_id].t1.is_positive == (rec.t1_label is T1Label.CANCER)
    )
    assert correct_t1 / len(corpus) > 0.95
