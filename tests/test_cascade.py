import json
import random
import time

import numpy as np
import pytest

from reportable_triage import cascade
from reportable_triage.backend.base import decide
from reportable_triage.backend.baseline import (
    BaselineModel,
    FeatureRows,
    TrainHyper,
    train_baseline,
)
from reportable_triage.backend.remote import RemoteBackend
from reportable_triage.cascade import (
    DEFAULT_BATCH_SIZE,
    FinalLabel,
    TierConfig,
    _assemble,
    _assembly_key,
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
    Tier,
    synth_corpus,
)
from reportable_triage.errors import TriageError, ValidationError
from reportable_triage.preprocess import PipelineVariant, assemble_input, normalize_text

from mock_server import MockClassifyServer

A, B = PipelineVariant.A_SYNOPTIC_FIRST, PipelineVariant.B_DIAGNOSIS_FIRST


# --- or_combine --------------------------------------------------------------

def test_or_combine_one_positive():
    assert or_combine([True, False]) is True


def test_or_combine_none_positive():
    assert or_combine([False, False]) is False


def test_or_combine_both_positive():
    assert or_combine([True, True]) is True


# --- fake backends for orchestration tests -----------------------------------

class InputBackend:
    """A backend whose features are its inputs: it hashes nothing, so the
    cascade never scores it from another member's features."""

    feature_dim = None

    def featurize(self, inputs):
        return list(inputs)

    def send(self, inputs):
        pass  # scored in-process, by score_features


class KeywordBackend(InputBackend):
    """Scores 0.9 when its keyword occurs in the input text, else 0.1."""

    def __init__(self, keyword):
        self.keyword = keyword
        self.calls = 0

    def score_features(self, inputs):
        self.calls += 1
        return [0.9 if self.keyword in inp.text.split() else 0.1 for inp in inputs]


class RecordingBackend(KeywordBackend):
    def __init__(self, keyword):
        super().__init__(keyword)
        self.texts = []

    def score_features(self, inputs):
        self.texts.extend(inp.text for inp in inputs)
        return super().score_features(inputs)


class FailingBackend(InputBackend):
    def score_features(self, inputs):
        raise ValidationError("backend exploded")


def report_from_raw(rid, raw):
    from reportable_triage.sectioner import default_synonym_table, parse_sections
    return PathologyReport(report_id=rid, diagnosis_year=2023, raw_text=raw,
                           sections=tuple(parse_sections(raw, default_synonym_table())))


def member(backend_id, variant, **settings):
    return MemberConfig(backend_id=backend_id, kind="native_baseline", variant=variant,
                        **settings)


def tier_of(task, backends, **settings):
    """A tier of two members, {backend_id: backend} for variant A, then variant B."""
    (id_a, backend_a), (id_b, backend_b) = backends.items()
    return TierConfig(task=task,
                      members=(member(id_a, A, **settings), member(id_b, B, **settings)),
                      backends=(backend_a, backend_b))


def keyword_tier(task, keyword_a="carcinoma", keyword_b="carcinoma"):
    return tier_of(task, {"kw-a": KeywordBackend(keyword_a), "kw-b": KeywordBackend(keyword_b)})


# --- TierConfig validation ----------------------------------------------------

def test_tier_config_needs_two_distinct_variants():
    x, y = KeywordBackend("k"), KeywordBackend("k")
    TierConfig(task=Tier.T1, members=(member("x", A), member("y", B)), backends=(x, y))
    rejected = [
        ((member("x", A), member("y", A)), (x, y), "variants A and B"),
        ((member("x", A),), (x,), "exactly two members"),
        ((member("x", A), member("x", B)), (x, x), "backend_ids must be distinct"),
        ((member("x", A), member("y", B)), (x,), "one backend per member"),
        ((member("x", A, threshold=0.0), member("y", B)), (x, y),
         r"members\[0\]: threshold must be in \(0, 1\)"),
        ((member("x", A), member("y", B, threshold=1.0)), (x, y),
         r"members\[1\]: threshold must be in \(0, 1\)"),
    ]
    for members, backends, reason in rejected:
        with pytest.raises(ValidationError, match=r"^t1 tier\b.*" + reason):
            TierConfig(task=Tier.T1, members=members, backends=backends)


# --- run_tier ------------------------------------------------------------------

def scored(reports, config, batch_size=DEFAULT_BATCH_SIZE):
    """run_tier over reports with the inputs triage would assemble for them."""
    keys = [_assembly_key(m) for m in config.members]
    return run_tier(reports, config, batch_size,
                    inputs=[_assemble(r, keys, {}) for r in reports])


def probabilities(block):
    """A tier block's member probabilities, in member order."""
    return tuple(m["probability"] for m in block["members"])


_CANCER = {"cancer": True, "non_cancer": False}


def member_positive(block):
    """Per member of a t1 block, in member order, whether it called the report cancer."""
    return tuple(_CANCER[m["label"]] for m in block["members"])


def is_positive(block):
    """Whether a t1 block called the report cancer."""
    return _CANCER[block["combined"]]


def test_run_tier_empty():
    assert scored([], keyword_tier(Tier.T1)) == []


def test_run_tier_signal_only_in_synoptic_fires_member_a():
    raw = "SYNOPTIC REPORT:\ncarcinoma present\nDIAGNOSIS:\nsee synoptic note\n"
    report = report_from_raw("R1", raw)
    # member A reads synoptic-first, member B reads diagnosis-first with a tight
    # budget so only its priority section is visible to it
    config = tier_of(Tier.T1, {"kw-a": KeywordBackend("carcinoma"),
                               "kw-b": KeywordBackend("carcinoma")}, token_budget=2)
    [result] = scored([report], config)
    assert probabilities(result) == (0.9, 0.1)
    assert member_positive(result) == (True, False)
    assert is_positive(result)


def test_run_tier_identical_decisions_combined_equal():
    raw = "SYNOPTIC REPORT:\nbenign\nDIAGNOSIS:\nbenign\n"
    [result] = scored([report_from_raw("R1", raw)], keyword_tier(Tier.T1))
    assert member_positive(result) == (False, False)
    assert not is_positive(result)


def test_run_tier_order_preserving_and_batched():
    reports = [
        report_from_raw(f"R{i}",
                        f"SYNOPTIC REPORT:\n{'carcinoma' if i % 3 == 0 else 'benign'}\n"
                        f"DIAGNOSIS:\n{'carcinoma' if i % 3 == 0 else 'benign'}\n")
        for i in range(10)
    ]
    results = scored(reports, keyword_tier(Tier.T1), batch_size=3)
    for i, res in enumerate(results):
        assert is_positive(res) == (i % 3 == 0)


def test_run_tier_member_a_scores_every_batch_in_order_before_member_b():
    calls = []

    class LoggingBackend(KeywordBackend):
        def score_features(self, inputs):
            calls.append((self, [inp.text for inp in inputs]))
            return super().score_features(inputs)

    reports = [report_from_raw(f"R{i}", f"SYNOPTIC REPORT:\nsyn {i}\n"
                                        f"DIAGNOSIS:\ndx {i}\n") for i in range(7)]
    a, b = LoggingBackend("x"), LoggingBackend("x")
    scored(reports, tier_of(Tier.T1, {"rec-a": a, "rec-b": b}), batch_size=3)
    texts = {v: [assemble_input(r, v).text for r in reports] for v in (A, B)}
    assert calls == [(a, texts[A][s:s + 3]) for s in (0, 3, 6)] + \
        [(b, texts[B][s:s + 3]) for s in (0, 3, 6)]


def test_run_tier_scores_the_inputs_it_is_given_by_assembly_key():
    reports = [report_from_raw(f"R{i}", f"SYNOPTIC REPORT:\ncarcinoma {i}\n"
                                        f"DIAGNOSIS:\nnote {i}\n") for i in range(5)]
    a, b = RecordingBackend("x"), RecordingBackend("x")
    config = tier_of(Tier.T1, {"rec-a": a, "rec-b": b}, token_budget=256)
    key_a, key_b = (_assembly_key(m) for m in config.members)
    # inputs member B would not assemble itself, and an unused key beside them
    given = [{key_a: assemble_input(r, A, 2), key_b: assemble_input(r, B, 3),
              (A, 1, ()): None} for r in reports]
    run_tier(reports, config, batch_size=2, inputs=given)
    assert a.texts == [assemble_input(r, A, 2).text for r in reports]
    assert b.texts == [assemble_input(r, B, 3).text for r in reports]


def test_run_tier_backend_failure_names_report_range():
    config = tier_of(Tier.T1, {"broken": FailingBackend(), "kw-b": KeywordBackend("x")})
    reports = [report_from_raw(f"R{i}", "DIAGNOSIS:\nbenign\n") for i in range(4)]
    with pytest.raises(TriageError) as exc:
        scored(reports, config, batch_size=2)
    assert not isinstance(exc.value, ValidationError)  # a runtime failure: exit 2
    assert str(exc.value) == "backend 'broken' failed on reports 'R0'..'R1': backend exploded"


def test_run_tier_rejects_scores_outside_0_1():
    class FixedBackend(InputBackend):
        def __init__(self, score):
            self.score = score

        def score_features(self, inputs):
            return [0.5] * (len(inputs) - 1) + [self.score]

    reports = [report_from_raw(f"R{i}", "DIAGNOSIS:\nbenign\n") for i in range(4)]
    for bad in (1.5, -0.1, float("nan"), True, "0.5"):
        config = tier_of(Tier.T1, {"kw-a": KeywordBackend("x"), "bad": FixedBackend(bad)})
        with pytest.raises(TriageError) as exc:
            scored(reports, config, batch_size=2)
        assert not isinstance(exc.value, ValidationError)  # a runtime failure: exit 2
        assert str(exc.value) == (f"backend 'bad' failed on reports 'R0'..'R1': "
                                  f"score 1 is not a number in [0, 1]: {bad!r}")
    for edge in (0.0, 1.0, 0, 1):
        config = tier_of(Tier.T1, {"kw-a": KeywordBackend("x"), "edge": FixedBackend(edge)})
        results = scored(reports, config, batch_size=2)
        assert [probabilities(r)[1] for r in results] == [0.5, edge, 0.5, edge]


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
    assert [o["report_id"] for o in outcomes] == ["neg", "pos-rep", "pos-nonrep"]
    assert outcomes[0]["final"] == FinalLabel.NON_CANCER.value
    assert outcomes[0]["t2"] is None
    assert outcomes[1]["final"] == FinalLabel.CANCER_REPORTABLE.value
    assert outcomes[2]["final"] == FinalLabel.CANCER_NON_REPORTABLE.value
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
    scored_t2 = sum(1 for o in outcomes if o["t2"] is not None)
    assert scored_t2 == n_pos
    t1_pos = sum(1 for o in outcomes if is_positive(o["t1"]))
    assert t1_pos == n_pos


def test_triage_explicit_t2_scope():
    reports = [report_from_raw("neg", BENIGN_RAW),
               report_from_raw("pos", cancer_raw())]
    t1, t2 = full_cascade()
    outcomes = triage(reports, t1, t2, t2_report_ids={"neg", "pos"})
    assert outcomes[0]["t2"] is not None  # scored even though t1-negative
    # final keeps production semantics
    assert outcomes[0]["final"] == FinalLabel.NON_CANCER.value
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
    t1 = tier_of(Tier.T1, {"kw-a": KeywordBackend("carcinoma"),
                           "kw-b": KeywordBackend("carcinoma")}, token_budget=256)
    t2_a, t2_b = RecordingBackend("staging"), RecordingBackend("staging")
    t2 = TierConfig(task=Tier.T2,
                    members=(member("t2-a", A, token_budget=256),
                             member("t2-b", B, token_budget=t2_budget_b)),
                    backends=(t2_a, t2_b))
    ids = {r.report_id for r in reports[::3]} if t2_scope == "gold" else None
    outcomes = triage(reports, t1, t2, batch_size=3, t2_report_ids=ids)

    selected = [r for r, o in zip(reports, outcomes) if o["t2"] is not None]
    assert 0 < len(selected) < len(reports)
    assert [r.report_id for r in selected] == [
        r.report_id for r, o in zip(reports, outcomes)
        if (is_positive(o["t1"]) if ids is None else r.report_id in ids)]
    assert t2_a.texts == [assemble_input(r, A, 256).text for r in selected]
    assert t2_b.texts == [assemble_input(r, B, t2_budget_b).text for r in selected]
    # tier 2 assembles only for the member whose settings no t1 member shares
    shared = t2_budget_b == 256
    assert len(calls) == 2 * len(reports) + (0 if shared else len(selected))


def test_triage_normalizes_each_section_of_a_report_once(monkeypatch):
    import reportable_triage.preprocess as preprocess

    # every report fits the 512-token budget, so one read of a section
    # serves both variants of both tiers
    reports = [report_from_raw(f"R{i}", f"SYNOPTIC REPORT:\ncarcinoma staging {i}\n"
                                        f"DIAGNOSIS:\ncarcinoma, grade {i % 3}\n"
                                        f"SPECIMEN:\nskin {i}\nCOMMENT:\nsee note\n")
               for i in range(12)]
    t1 = keyword_tier(Tier.T1)
    t2 = TierConfig(task=Tier.T2,
                    members=(member("t2-a", A, token_budget=512),
                             member("t2-b", B, token_budget=512)),
                    backends=(KeywordBackend("staging"), KeywordBackend("staging")))
    normalized = []

    def counting_normalize(text):
        normalized.append(len(text))
        return normalize_text(text)

    monkeypatch.setattr(preprocess, "normalize_text", counting_normalize)
    outcomes = triage(reports, t1, t2, batch_size=5)

    assert all(o["t2"] is not None for o in outcomes)
    assert all(len(r.sections) == 4 for r in reports)
    assert sum(normalized) == sum(len(s.text) for r in reports for s in r.sections)


# --- tier 2 scores the features tier 1 hashed --------------------------------

DIM = 1 << 18


def keyword_model(keyword, feature_dim=DIM):
    """A baseline model that calls a text positive iff keyword is one of its tokens."""
    weights = np.zeros(feature_dim)
    weights[FeatureRows.hash_texts([keyword], feature_dim).indices] = 10.0
    return BaselineModel(feature_dim=feature_dim, weights=weights, bias=-5.0, seed=0,
                         epochs=1, learning_rate=0.1, l2=0.0, final_loss=0.0)


def random_model(seed, feature_dim=DIM):
    weights = np.random.default_rng(seed).normal(size=feature_dim)
    return BaselineModel(feature_dim=feature_dim, weights=weights, bias=0.1, seed=seed,
                         epochs=1, learning_rate=0.1, l2=0.0, final_loss=0.0)


def rescue_reports(n=40):
    """Reports whose synoptic section (what member A reads at budget 3) holds
    alpha, whose diagnosis (what B reads) holds beta, both or neither."""
    rng = random.Random(12)
    return [report_from_raw(f"R{i}", f"SYNOPTIC REPORT:\n{rng.choice(['alpha', 'gamma'])} s{i} "
                                     f"note\nDIAGNOSIS:\n{rng.choice(['beta', 'delta'])} d{i} "
                                     f"note\nSPECIMEN:\nskin {i}\n")
            for i in range(n)]


def rescue_t1():
    return TierConfig(task=Tier.T1,
                      members=(member("t1-a", A, token_budget=3),
                               member("t1-b", B, token_budget=3)),
                      backends=(keyword_model("alpha"), keyword_model("beta")))


def count_hashed_rows(monkeypatch):
    """A list that gets the number of rows of every FeatureRows.hash_texts call."""
    hashed = []
    hash_texts = FeatureRows.hash_texts

    def counting(texts, feature_dim):
        rows = hash_texts(texts, feature_dim)
        hashed.append(len(rows))
        return rows

    monkeypatch.setattr(FeatureRows, "hash_texts", staticmethod(counting))
    return hashed


@pytest.mark.parametrize("t2_scope", ["predicted", "gold"])
@pytest.mark.parametrize("t2_a", ["shared", "other_feature_dim", "other_token_budget"])
def test_tier2_scores_from_tier1_rows_as_from_fresh_hashing(monkeypatch, t2_scope, t2_a):
    reports = rescue_reports()
    budget_a = 4 if t2_a == "other_token_budget" else 3
    dim_a = DIM // 2 if t2_a == "other_feature_dim" else DIM
    t2_models = (random_model(1, dim_a), random_model(2))
    t2 = TierConfig(task=Tier.T2,
                    members=(member("t2-a", A, token_budget=budget_a),
                             member("t2-b", B, token_budget=3)),
                    backends=t2_models)
    ids = {r.report_id for r in reports[1::2]} if t2_scope == "gold" else None
    t1 = rescue_t1()
    hashed = count_hashed_rows(monkeypatch)
    outcomes = triage(reports, t1, t2, batch_size=4, t2_report_ids=ids)
    n_hashed = sum(hashed)

    t1_calls = [member_positive(o["t1"]) for o in outcomes]
    assert (True, False) in t1_calls and (False, True) in t1_calls  # A-only and B-only rescues
    selected = [(r, o) for r, o in zip(reports, outcomes) if o["t2"] is not None]
    assert 0 < len(selected) < len(reports)

    def fresh_score(model, inp):
        rows = model.featurize([inp])
        model.send(rows)
        return model.score_features(rows)[0]

    for report, outcome in selected:
        fresh = (fresh_score(t2_models[0], assemble_input(report, A, budget_a)),
                 fresh_score(t2_models[1], assemble_input(report, B, 3)))
        assert probabilities(outcome["t2"]) == fresh

    # a t2 member that shares its t1 counterpart's assembly key and
    # feature_dim scores that member's rows and hashes nothing; one that does
    # not hashes every report tier 2 selected
    assert n_hashed == 2 * len(reports) + (0 if t2_a == "shared" else len(selected))


def test_shared_tier2_member_failure_names_it_and_a_report_range():
    class Hashing(KeywordBackend):
        feature_dim = 1 << 4

    class FailingHashing(FailingBackend):
        feature_dim = 1 << 4

    # R0 and R1 are t1-negative: a shared t2 member scores them in tier 1 all the same
    reports = [report_from_raw(f"R{i}", cancer_raw() if i > 1 else BENIGN_RAW) for i in range(4)]
    t1 = tier_of(Tier.T1, {"kw-a": Hashing("carcinoma"), "kw-b": Hashing("carcinoma")})
    t2 = tier_of(Tier.T2, {"t2-a": Hashing("staging"), "broken": FailingHashing()})
    with pytest.raises(TriageError) as exc:
        triage(reports, t1, t2, batch_size=2)
    assert not isinstance(exc.value, ValidationError)  # a runtime failure: exit 2
    assert str(exc.value) == "backend 'broken' failed on reports 'R0'..'R1': backend exploded"


def test_remote_tier2_member_sends_the_texts_it_sent_before(monkeypatch):
    reports = rescue_reports()
    t1 = rescue_t1()
    hashed = count_hashed_rows(monkeypatch)
    with MockClassifyServer(MockClassifyServer.score_per_text(0.7)) as server:
        t2 = TierConfig(task=Tier.T2,
                        members=(member("t2-a", A, token_budget=3),
                                 member("t2-b", B, token_budget=3)),
                        backends=tuple(RemoteBackend(endpoint=server.endpoint, task=Tier.T2,
                                                     timeout=5) for _ in "ab"))
        outcomes = triage(reports, t1, t2, batch_size=4)
        for backend in t2.backends:
            backend.close()
    selected = [r for r, o in zip(reports, outcomes) if o["t2"] is not None]
    expected = [[assemble_input(r, v, 3).text for r in selected[s:s + 4]]
                for v in (A, B) for s in range(0, len(selected), 4)]
    assert [json.loads(req.body)["texts"] for req in server.requests] == expected
    assert sum(hashed) == 2 * len(reports)  # tier 1 only


def test_tier1_assembles_the_next_batch_while_the_service_scores_this_one(monkeypatch):
    # tier 1's first member sends batch k, assembles batch k + 1 for both t1
    # keys, then reads batch k's scores
    batch, n = 4, 16
    reports = rescue_reports(n)
    assembled = []  # one entry per assemble_input call
    monkeypatch.setattr(cascade, "assemble_input",
                        lambda *args: assembled.append(args[0]) or assemble_input(*args))

    def through(k):
        """assemble_input calls once batches 0..k are assembled for both keys."""
        return 2 * min(n, (k + 1) * batch)

    seen = []  # per request: calls made when it arrived, and when it was answered

    def respond(captured):
        arrived, deadline = len(assembled), time.monotonic() + 2.0
        # a serial client assembles nothing while it waits: it fails this, not hangs
        while len(assembled) < through(len(seen) + 1) and time.monotonic() < deadline:
            time.sleep(0.001)
        seen.append((arrived, len(assembled)))
        return 200, json.dumps({"scores": [0.7] * len(json.loads(captured.body)["texts"])}
                               ).encode()

    with MockClassifyServer(respond) as server:
        t1, t2 = (TierConfig(task=task,
                             members=(member(f"{task.value}-a", A), member(f"{task.value}-b", B)),
                             backends=tuple(RemoteBackend(endpoint=server.endpoint, task=task,
                                                          timeout=10) for _ in "ab"))
                  for task in (Tier.T1, Tier.T2))
        try:
            triage(reports, t1, t2, batch_size=batch)
        finally:
            for backend in t1.backends + t2.backends:
                backend.close()
    assert len(seen) == 4 * n // batch  # every report is t1-positive at 0.7
    assert seen[0][0] <= through(1)  # request 0 arrives before batch 2 is assembled
    t1_a = seen[:n // batch]
    assert [answered for _, answered in t1_a] == [through(k + 1) for k in range(n // batch)]


def test_triage_rejects_swapped_tier_configs():
    t1, t2 = full_cascade()
    with pytest.raises(ValidationError) as exc:
        triage([], t2, t1)
    assert str(exc.value) == "triage needs a t1 config and a t2 config, in that order"


# --- FN-subset property --------------------------------------------------------

def test_fn_subset_property_randomized():
    rng = random.Random(17)
    for _ in range(50):
        n = 200
        golds = [rng.random() < 0.4 for _ in range(n)]
        a = [rng.random() < 0.7 for _ in range(n)]   # member A says positive
        b = [rng.random() < 0.7 for _ in range(n)]
        combined = [or_combine([decide(0.9 if pa else 0.1, 0.5), decide(0.9 if pb else 0.1, 0.5)])
                    for pa, pb in zip(a, b)]
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
    # gold scope gives the t1-negative report a t2 block
    for t2_ids in (None, {"pos", "neg"}):
        outcomes = triage(reports, t1, t2, t2_report_ids=t2_ids)
        path = tmp_path / "outcomes.jsonl"
        body = "".join(dumps_outcome(o) + "\n" for o in outcomes)
        path.write_text(body, encoding="utf-8")
        loaded = read_outcomes(path)
        assert loaded == {o["report_id"]: o for o in outcomes}
        assert "".join(dumps_outcome(o) + "\n" for o in loaded.values()) == body
        assert list(loaded) == ["pos", "neg"]
        assert loaded["pos"]["final"] == "cancer_reportable"
        assert loaded["pos"]["t1"]["combined_by"] == "or"
        assert len(loaded["pos"]["t1"]["members"]) == 2
        assert (loaded["neg"]["t2"] is None) is (t2_ids is None)
        assert loaded["neg"]["final"] == "non_cancer"
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


def test_read_outcomes_accepts_non_ascii_ids(tmp_path):
    members = [{"backend_id": "modèle-a", "label": "non_cancer", "probability": 0.1,
                "threshold": 0.5},
               {"backend_id": "modèle-b", "label": "non_cancer", "probability": 0,
                "threshold": 0.5}]
    line = {"report_id": "rapport-é1", "final": "non_cancer",
            "t1": {"combined": "non_cancer", "members": members}}
    path = tmp_path / "o.jsonl"
    path.write_text(json.dumps(line, ensure_ascii=False) + "\n", encoding="utf-8")
    assert read_outcomes(path) == {"rapport-é1": line}


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
        models = {f"bl-{name}": train_baseline(pairs(variant, tier), hyper, seed=5)
                  for variant, name in ((A, "a"), (B, "b"))}
        return tier_of(tier, models, token_budget=256)

    outcomes = triage([r.report for r in corpus], tier_config(Tier.T1),
                      tier_config(Tier.T2))
    check_gating_soundness(outcomes)
    by_id = {o["report_id"]: o for o in outcomes}
    correct_t1 = sum(
        1 for rec in corpus
        if is_positive(by_id[rec.report_id]["t1"]) == (rec.t1_label is T1Label.CANCER)
    )
    assert correct_t1 / len(corpus) > 0.95
