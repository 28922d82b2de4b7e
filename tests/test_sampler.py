import math

import pytest
from hypothesis import given, settings, strategies as st

from reportable_triage.corpus import (
    Corpus,
    LabeledReport,
    PathologyReport,
    SynthSpec,
    T1Label,
    T2Label,
    Tier,
    synth_corpus,
)
from reportable_triage.errors import ValidationError
from reportable_triage.sampler import (
    SplitSpec,
    UndersamplePolicy,
    build_dataset,
    class_counts,
    default_policy,
    split,
    undersample,
    undersample_target,
    with_label,
)


def labeled_corpus(n_pos, n_neg, tier=Tier.T1):
    records = []
    pos = tier.positive
    neg = tier.negative
    for i in range(n_pos + n_neg):
        label = pos if i < n_pos else neg
        report = PathologyReport(report_id=f"R{i}", diagnosis_year=2023, raw_text="x")
        if tier is Tier.T1:
            rec = LabeledReport(report=report, t1_label=label)
        else:
            rec = LabeledReport(report=report, t1_label=T1Label.CANCER, t2_label=label)
        records.append(rec)
    return Corpus(records=records)


# --- class_counts ------------------------------------------------------------

def test_class_counts_empty():
    counts = class_counts(Corpus(records=[]), Tier.T1)
    assert counts == {"cancer": 0, "non_cancer": 0}
    assert sum(counts.values()) == 0


def test_class_counts_synth_contract():
    corpus = synth_corpus(SynthSpec(n_reports=10400, cancer_fraction=0.21), seed=1)
    counts = class_counts(corpus, Tier.T1)
    assert counts == {"cancer": 2184, "non_cancer": 8216}


def test_class_counts_all_positive_t2():
    corpus = labeled_corpus(7, 0, Tier.T2)
    counts = class_counts(corpus, Tier.T2)
    assert counts == {"reportable": 7, "non_reportable": 0}


def test_class_counts_requires_labels():
    report = PathologyReport(report_id="R", diagnosis_year=2023, raw_text="x")
    corpus = Corpus(records=[LabeledReport(report=report)])
    with pytest.raises(ValidationError, match="R"):
        class_counts(corpus, Tier.T1)


# --- split -------------------------------------------------------------------

def test_split_deterministic():
    corpus = labeled_corpus(4, 6)
    spec = SplitSpec(seed=7, train_fraction=0.8)
    train1, test1 = split(corpus, spec, Tier.T1)
    train2, test2 = split(corpus, spec, Tier.T1)
    assert [r.report_id for r in train1] == [r.report_id for r in train2]
    assert [r.report_id for r in test1] == [r.report_id for r in test2]


def test_split_partition_is_disjoint_and_exhaustive():
    corpus = labeled_corpus(30, 70)
    train, test = split(corpus, SplitSpec(seed=3), Tier.T1)
    train_ids = {r.report_id for r in train}
    test_ids = {r.report_id for r in test}
    assert not train_ids & test_ids
    assert len(train_ids) + len(test_ids) == 100


def test_split_stratified_counts():
    corpus = labeled_corpus(2184, 8216)
    train, test = split(corpus, SplitSpec(seed=5), Tier.T1)
    tc = class_counts(train, Tier.T1)
    assert tc == {"cancer": 1747, "non_cancer": 6573}
    assert len(test) == 10400 - 8320


def test_split_stratified_within_one_record():
    corpus = labeled_corpus(11, 13)
    train, _ = split(corpus, SplitSpec(seed=5, train_fraction=0.8), Tier.T1)
    counts = class_counts(train, Tier.T1)
    assert abs(counts["cancer"] - 0.8 * 11) <= 0.5
    assert abs(counts["non_cancer"] - 0.8 * 13) <= 0.5


def test_split_unstratified():
    corpus = labeled_corpus(10, 10)
    train, test = split(corpus, SplitSpec(seed=5, stratified=False), Tier.T1)
    assert len(train) == 16 and len(test) == 4


def test_split_preserves_record_order():
    corpus = labeled_corpus(5, 15)
    train, test = split(corpus, SplitSpec(seed=1), Tier.T1)
    ids = [int(r.report_id[1:]) for r in train]
    assert ids == sorted(ids)
    ids = [int(r.report_id[1:]) for r in test]
    assert ids == sorted(ids)


def test_split_unlabeled_record_names_id():
    report = PathologyReport(report_id="R-bad", diagnosis_year=2023, raw_text="x")
    corpus = Corpus(records=[LabeledReport(report=report, t1_label=T1Label.CANCER),
                             LabeledReport(report=PathologyReport(
                                 report_id="R-ok", diagnosis_year=2023, raw_text="x"))])
    with pytest.raises(ValidationError, match="R-ok"):
        split(corpus, SplitSpec(seed=1), Tier.T1)


def test_split_spec_validation():
    with pytest.raises(ValidationError):
        SplitSpec(seed=1, train_fraction=1.0)
    with pytest.raises(ValidationError):
        SplitSpec(seed=1, train_fraction=0.0)


# --- undersample -------------------------------------------------------------

def test_undersample_t1_anchor_counts():
    # floor(0.8 * 17472) = 13977 non-cancers kept, 31449 total
    corpus = labeled_corpus(17472, 20000)
    policy = default_policy(Tier.T1, seed=4)
    out = undersample(corpus, policy)
    counts = class_counts(out, Tier.T1)
    assert counts["cancer"] == 17472
    assert counts["non_cancer"] == 13977
    assert sum(counts.values()) == 31449


def test_undersample_t2_anchor_counts():
    # floor(1.2 * 3520) = 4224 reportables kept, 7744 total
    corpus = labeled_corpus(20000, 3520, Tier.T2)
    policy = default_policy(Tier.T2, seed=4)
    out = undersample(corpus, policy)
    counts = class_counts(out, Tier.T2)
    assert counts["non_reportable"] == 3520
    assert counts["reportable"] == 4224
    assert sum(counts.values()) == 7744


def test_undersample_caps_at_available():
    corpus = labeled_corpus(10, 5)
    policy = UndersamplePolicy(task=Tier.T1, kept_class=T1Label.CANCER,
                               sampled_class=T1Label.NON_CANCER, ratio=0.8, seed=1)
    out = undersample(corpus, policy)
    counts = class_counts(out, Tier.T1)
    assert counts["non_cancer"] == 5  # cannot sample beyond the population


def test_undersample_empty_kept_class():
    corpus = labeled_corpus(0, 5)
    with pytest.raises(ValidationError, match="empty kept class"):
        undersample(corpus, default_policy(Tier.T1, seed=1))


def test_undersample_deterministic_and_seed_sensitive():
    corpus = labeled_corpus(50, 200)
    p1 = default_policy(Tier.T1, seed=8)
    ids1 = [r.report_id for r in undersample(corpus, p1)]
    ids2 = [r.report_id for r in undersample(corpus, p1)]
    assert ids1 == ids2
    p2 = default_policy(Tier.T1, seed=9)
    ids3 = [r.report_id for r in undersample(corpus, p2)]
    assert ids1 != ids3
    assert len(ids1) == len(ids3)


def test_undersample_preserves_order_and_uniqueness():
    corpus = labeled_corpus(20, 100)
    out = undersample(corpus, default_policy(Tier.T1, seed=2))
    ids = [r.report_id for r in out]
    assert len(ids) == len(set(ids))
    nums = [int(r[1:]) for r in ids]
    assert nums == sorted(nums)


def test_policy_validation():
    with pytest.raises(ValidationError):
        UndersamplePolicy(task=Tier.T1, kept_class=T1Label.CANCER,
                          sampled_class=T1Label.CANCER, ratio=0.8, seed=1)
    with pytest.raises(ValidationError):
        UndersamplePolicy(task=Tier.T1, kept_class=T1Label.CANCER,
                          sampled_class=T1Label.NON_CANCER, ratio=0.0, seed=1)
    with pytest.raises(ValidationError):
        UndersamplePolicy(task=Tier.T1, kept_class=T2Label.REPORTABLE,
                          sampled_class=T1Label.NON_CANCER, ratio=1.0, seed=1)


@settings(max_examples=60, deadline=None)
@given(
    n_kept=st.integers(min_value=1, max_value=400),
    n_sampled=st.integers(min_value=0, max_value=400),
    ratio=st.decimals(min_value="0.05", max_value="3.0", places=2).map(float),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_undersample_count_exactness_property(n_kept, n_sampled, ratio, seed):
    corpus = labeled_corpus(n_kept, n_sampled)
    policy = UndersamplePolicy(task=Tier.T1, kept_class=T1Label.CANCER,
                               sampled_class=T1Label.NON_CANCER, ratio=ratio, seed=seed)
    out = undersample(corpus, policy)
    counts = class_counts(out, Tier.T1)
    expected = min(math.floor(ratio * n_kept + 1e-9), n_sampled)
    assert counts["non_cancer"] == expected
    assert counts["non_cancer"] == undersample_target(policy, n_kept, n_sampled)
    assert counts["cancer"] == n_kept
    ids = [r.report_id for r in out]
    assert len(ids) == len(set(ids))


def test_composition_reproduces_pipeline_scale():
    # 104k -> 0.8 split -> t1 undersample lands within 1% of 31,694
    n_cancer = round(104000 * 0.21)          # 21,840
    train_cancer = round(n_cancer * 0.8)     # 17,472
    kept = math.floor(0.8 * train_cancer)    # 13,977
    total = train_cancer + kept              # 31,449
    assert abs(total - 31694) / 31694 < 0.01


# --- build_dataset -----------------------------------------------------------

def test_build_dataset_t1_manifest_arithmetic():
    corpus = synth_corpus(SynthSpec(n_reports=10400, cancer_fraction=0.21), seed=13)
    _, _, manifest = build_dataset(corpus, Tier.T1, SplitSpec(seed=21),
                                   default_policy(Tier.T1, seed=22))
    counts = manifest["counts"]
    assert counts["train_before_undersample"] == {"cancer": 1747, "non_cancer": 6573}
    assert counts["train"] == {"cancer": 1747, "non_cancer": math.floor(0.8 * 1747)}
    assert counts["test"] == {"cancer": 2184 - 1747, "non_cancer": 8216 - 6573}


def test_build_dataset_t2_filters_to_labeled_subset():
    corpus = synth_corpus(SynthSpec(n_reports=2000, cancer_fraction=0.5,
                                    reportable_fraction_within_cancer=0.8), seed=31)
    _, _, manifest = build_dataset(corpus, Tier.T2, SplitSpec(seed=41),
                                   default_policy(Tier.T2, seed=42))
    counts = manifest["counts"]
    n_t2 = sum(1 for r in corpus if r.t2_label is not None)
    assert sum(counts["input"].values()) == n_t2 == 1000
    before = counts["train_before_undersample"]
    assert counts["train"]["reportable"] == min(
        math.floor(1.2 * before["non_reportable"]), before["reportable"])


def test_with_label_subset():
    corpus = synth_corpus(SynthSpec(n_reports=100, cancer_fraction=0.3), seed=51)
    t2 = with_label(corpus, Tier.T2)
    assert all(r.t2_label is not None for r in t2)
    assert len(t2) == sum(1 for r in corpus if r.t2_label is not None)
