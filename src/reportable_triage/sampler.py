"""Train/test splitting and ratio-based majority-class undersampling.

The dataset pipeline is: stratified 80/20 split first (test sets keep the
real-world class distribution), then undersample the training portion only.
Tier 1 keeps every cancer record and downsamples non-cancers to
floor(0.8 * N(cancer)); tier 2 keeps every non-reportable record and
downsamples reportables to floor(1.2 * N(non_reportable)). Sampling is
uniform without replacement, driven entirely by the policy seed and record
order, so a given (corpus, policy) pair always selects the same subset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import Corpus, LabeledReport, T1Label, T2Label, Tier
from .errors import ValidationError
from .util import ratio_floor, ratio_round_half_up


@dataclass(frozen=True)
class SplitSpec:
    seed: int
    train_fraction: float = 0.8
    stratified: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )


@dataclass(frozen=True)
class UndersamplePolicy:
    task: Tier
    kept_class: T1Label | T2Label
    sampled_class: T1Label | T2Label
    ratio: float
    seed: int

    def __post_init__(self) -> None:
        if self.ratio <= 0:
            raise ValidationError(f"ratio must be positive, got {self.ratio}")
        if self.kept_class == self.sampled_class:
            raise ValidationError("kept_class and sampled_class must differ")
        for label in (self.kept_class, self.sampled_class):
            if not isinstance(label, self.task.label_type):
                raise ValidationError(
                    f"label {label!r} does not belong to task {self.task.value}"
                )


def default_policy(task: Tier, seed: int) -> UndersamplePolicy:
    """Default ratios: t1 non-cancer -> 0.8 x cancer; t2 reportable -> 1.2 x non-reportable."""
    if task is Tier.T1:
        return UndersamplePolicy(task=task, kept_class=T1Label.CANCER,
                                 sampled_class=T1Label.NON_CANCER, ratio=0.8, seed=seed)
    return UndersamplePolicy(task=task, kept_class=T2Label.NON_REPORTABLE,
                             sampled_class=T2Label.REPORTABLE, ratio=1.2, seed=seed)


def require_label(record: LabeledReport, task: Tier) -> T1Label | T2Label:
    """The record's label for task; ValidationError if it has none."""
    label = record.label_for(task)
    if label is None:
        raise ValidationError(f"record {record.report_id!r} has no {task.value} label")
    return label


def class_counts(corpus: Corpus, task: Tier) -> dict[str, int]:
    """Records per label value of task, every label listed, in label order."""
    counts = {member.value: 0 for member in task.label_type}
    for record in corpus:
        counts[require_label(record, task).value] += 1
    return counts


def with_label(corpus: Corpus, task: Tier) -> Corpus:
    """The subset of records carrying the task's gold label (order preserved)."""
    return Corpus(records=[r for r in corpus if r.label_for(task) is not None])


def split(corpus: Corpus, spec: SplitSpec, task: Tier) -> tuple[Corpus, Corpus]:
    """Disjoint, exhaustive train/test partition; deterministic for a seed.

    Stratified mode rounds each class's train share half-up, keeping every
    per-class train fraction within one record of train_fraction. Output
    corpora preserve the input record order.
    """
    labels = [require_label(record, task) for record in corpus]
    if spec.stratified:
        strata = [[i for i, lab in enumerate(labels) if lab is label]
                  for label in sorted(task.label_type, key=lambda m: m.value)]
    else:  # one stratum holding every record
        strata = [range(len(labels))]
    rng = random.Random(spec.seed)
    train_indices: set[int] = set()
    for stratum in strata:
        k = ratio_round_half_up(spec.train_fraction, len(stratum))
        train_indices.update(rng.sample(stratum, k))

    train = [r for i, r in enumerate(corpus.records) if i in train_indices]
    test = [r for i, r in enumerate(corpus.records) if i not in train_indices]
    return Corpus(records=train), Corpus(records=test)


def undersample(train: Corpus, policy: UndersamplePolicy) -> Corpus:
    """Keep every kept_class record; retain min(floor(ratio * N_kept), N_sampled)
    sampled_class records drawn uniformly without replacement; original order."""
    kept_idx: list[int] = []
    sampled_idx: list[int] = []
    for i, record in enumerate(train.records):
        label = require_label(record, policy.task)
        if label == policy.kept_class:
            kept_idx.append(i)
        elif label == policy.sampled_class:
            sampled_idx.append(i)
    if not kept_idx:
        raise ValidationError(
            f"empty kept class: no {policy.kept_class.value!r} records in training set"
        )
    target = undersample_target(policy, len(kept_idx), len(sampled_idx))
    rng = random.Random(policy.seed)
    chosen = set(rng.sample(sampled_idx, target))
    keep = set(kept_idx) | chosen
    return Corpus(records=[r for i, r in enumerate(train.records) if i in keep])


def undersample_target(policy: UndersamplePolicy, n_kept: int, n_sampled: int) -> int:
    """The exact number of sampled-class records undersample() will retain."""
    return min(ratio_floor(policy.ratio, n_kept), n_sampled)


def build_dataset(corpus: Corpus, task: Tier, split_spec: SplitSpec,
                  policy: UndersamplePolicy) -> tuple[Corpus, Corpus, dict]:
    """Filter to task-labeled records, split, then undersample the train side.

    Returns (train, test, manifest): manifest is the document manifest.json
    holds, but for the "outputs" that name the files train and test go to.
    """
    labeled = with_label(corpus, task)
    if not labeled.records:
        raise ValidationError(f"no records carry a {task.value} label")
    input_counts = class_counts(labeled, task)
    train_full, test = split(labeled, split_spec, task)
    before = class_counts(train_full, task)
    train = undersample(train_full, policy)
    manifest = {
        "task": task.value,
        "split": {"train_fraction": split_spec.train_fraction, "seed": split_spec.seed,
                  "stratified": split_spec.stratified},
        "undersample": {"kept_class": policy.kept_class.value,
                        "sampled_class": policy.sampled_class.value,
                        "ratio": policy.ratio, "seed": policy.seed},
        "counts": {"input": input_counts, "train_before_undersample": before,
                   "train": class_counts(train, task), "test": class_counts(test, task)},
    }
    return train, test, manifest
