"""Two-tier orchestration and the OR-ensemble combiner.

Each tier runs exactly two members (one synoptic-first, one diagnosis-first),
and a report is positive when at least one member says so. The OR rule means
the ensemble's missed positives are exactly the intersection of the members'
missed positives, which is the whole point: sensitivity never drops below the
better member.

Tier 2 runs on the reports tier 1 called cancer (production gating). For
evaluation against gold tier-2 annotations there is an explicit-scope mode
that scores tier 2 for a caller-supplied report set instead; outcomes written
that way are evaluation artifacts, not production triage.

Member failure fails the whole batch: silently degrading to a single-model
"ensemble" would misstate the sensitivity guarantee.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .backend.base import ClassifierBackend, Decision, decide
from .config import MemberConfig, check_members
from .corpus import PathologyReport, T1Label, T2Label, Tier
from .errors import ConfigurationError, TierExecutionError, TriageError, ValidationError
from .preprocess import NormalizedInput, assemble_input

DEFAULT_BATCH_SIZE = 256


class FinalLabel(str, Enum):
    NON_CANCER = "non_cancer"
    CANCER_NON_REPORTABLE = "cancer_non_reportable"
    CANCER_REPORTABLE = "cancer_reportable"


@dataclass(frozen=True)
class TierConfig:
    """A tier's two members, each scored by the backend at the same index."""

    task: Tier
    members: tuple[MemberConfig, MemberConfig]
    backends: tuple[ClassifierBackend, ClassifierBackend]

    def __post_init__(self) -> None:
        check_members(self.members, f"{self.task.value} tier")
        if len(self.backends) != len(self.members):
            raise ConfigurationError(f"{self.task.value} tier: one backend per member")


@dataclass(frozen=True)
class EnsembleResult:
    member_decisions: tuple[Decision, ...]
    combined_label: T1Label | T2Label

    @property
    def is_positive(self) -> bool:
        return self.combined_label is self.member_decisions[0].task.positive


@dataclass(frozen=True)
class TriageOutcome:
    report_id: str
    t1: EnsembleResult
    t2: Optional[EnsembleResult]
    final: FinalLabel


def or_combine(decisions: Sequence[Decision]) -> T1Label | T2Label:
    """Positive iff at least one member decision is positive."""
    if not decisions:
        raise ConfigurationError("or_combine requires at least one decision")
    task = decisions[0].task
    combined = task.negative
    for d in decisions:
        if d.task is not task:
            raise ConfigurationError("or_combine received decisions from mixed tasks")
        if d.is_positive:
            combined = task.positive
    return combined


def _assembly_key(member: MemberConfig) -> tuple:
    """Members with equal keys assemble the same input from a report."""
    return member.variant, member.token_budget, tuple(member.fallback_sections)


def _score_batch(
    member: MemberConfig,
    backend: ClassifierBackend,
    task: Tier,
    batch: Sequence[PathologyReport],
    inputs: Optional[Sequence[NormalizedInput]],
) -> tuple[Sequence[NormalizedInput], list[Decision]]:
    """The batch's inputs (assembled here unless given) and the member's decisions."""
    if inputs is None:
        inputs = [assemble_input(r, member.variant, member.token_budget,
                                 member.fallback_sections) for r in batch]
    try:
        scores = backend.score_batch(inputs)
    except TriageError as exc:
        raise TierExecutionError(
            f"backend {member.backend_id!r} failed on reports "
            f"{batch[0].report_id!r}..{batch[-1].report_id!r}: {exc}"
        ) from exc
    if len(scores) != len(batch):
        raise TierExecutionError(
            f"backend {member.backend_id!r} returned {len(scores)} scores "
            f"for {len(batch)} reports"
        )
    return inputs, [decide(s, member.threshold, task, member.backend_id) for s in scores]


@dataclass
class Handover:
    """Assembled inputs that one run_tier call keeps for the next tier.

    For each report i whose result passes goes_on(i, result), kept[i] holds
    every member's input. The inputs of the other reports are dropped as soon
    as the tier's last member has scored their batch.
    """

    goes_on: Callable[[int, EnsembleResult], bool]
    kept: dict[int, tuple[NormalizedInput, ...]] = field(default_factory=dict)

    def keep(self, start: int, results: Sequence[EnsembleResult],
             inputs: Sequence[Sequence[NormalizedInput]]) -> None:
        """Keep, of one batch from report `start` on, the inputs of the reports that go on."""
        for j, result in enumerate(results):
            if self.goes_on(start + j, result):
                self.kept[start + j] = tuple(member_inputs[j] for member_inputs in inputs)


def run_tier(
    reports: Sequence[PathologyReport],
    config: TierConfig,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_workers: int = 1,
    *,
    inputs: Sequence[Optional[Sequence[NormalizedInput]]] = (),
    handover: Optional[Handover] = None,
) -> list[EnsembleResult]:
    """Score every report with both members; order-preserving, all-or-nothing.

    Each member scores all its batches before the next member starts.
    Batches may be scored by up to max_workers threads; results are
    reassembled by batch index, so the output never depends on scheduling.
    inputs[m], where given and not None, holds member m's assembled input
    for each report, so that member assembles nothing. A handover, where
    given, keeps the inputs of the reports that go on to the next tier.
    """
    if not reports:
        return []
    starts = range(0, len(reports), batch_size)
    last = len(config.members) - 1

    def job(mi: int, start: int):
        given = inputs[mi] if mi < len(inputs) else None
        return _score_batch(config.members[mi], config.backends[mi], config.task,
                            reports[start:start + batch_size],
                            None if given is None else given[start:start + batch_size])

    order = [(mi, start) for mi in range(last + 1) for start in starts]
    # (inputs, decisions) per scored batch, inputs only for a handover
    scored: dict[tuple[int, int], tuple[Optional[Sequence[NormalizedInput]], list[Decision]]] = {}
    results: list[EnsembleResult] = []
    with ThreadPoolExecutor(max_workers) if max_workers > 1 else nullcontext() as pool:
        if pool is None:
            done = (job(*key) for key in order)
        else:
            futures = {key: pool.submit(job, *key) for key in order}
            done = (futures.pop(key).result() for key in order)
        for (mi, start), (batch_inputs, batch_decisions) in zip(order, done):
            scored[mi, start] = (batch_inputs if handover is not None else None, batch_decisions)
            if mi != last:
                continue
            # every member has now scored this batch
            per_member = [scored.pop((m, start)) for m in range(last + 1)]
            batch = [EnsembleResult(member_decisions=pair, combined_label=or_combine(pair))
                     for pair in zip(*(ds for _, ds in per_member))]
            results.extend(batch)
            if handover is not None:
                handover.keep(start, batch, [inp for inp, _ in per_member])
    return results


def triage(
    reports: Sequence[PathologyReport],
    t1: TierConfig,
    t2: TierConfig,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_workers: int = 1,
    t2_report_ids: Optional[set[str]] = None,
) -> list[TriageOutcome]:
    """Run the cascade over reports, preserving input order.

    With t2_report_ids=None (production mode) tier 2 runs exactly on the
    reports tier 1 called cancer. Passing an explicit id set scores tier 2
    for those reports instead (gold-gated evaluation); the final label still
    follows production semantics, i.e. a tier-1-negative report stays
    non_cancer no matter what tier 2 said.

    A tier-2 member that assembles its input like a tier-1 member reads the
    input that member assembled, so tier 2 assembles it again for no report.
    """
    if t1.task is not Tier.T1 or t2.task is not Tier.T2:
        raise ConfigurationError("triage needs a t1 config and a t2 config, in that order")
    t1_keys = [_assembly_key(m) for m in t1.members]
    # per t2 member, the t1 member whose input it reads, or None
    sources = [t1_keys.index(k) if k in t1_keys else None
               for k in map(_assembly_key, t2.members)]
    goes_on = ((lambda i, result: result.is_positive) if t2_report_ids is None
               else (lambda i, result: reports[i].report_id in t2_report_ids))
    handover = Handover(goes_on)
    t1_results = run_tier(reports, t1, batch_size, max_workers, handover=handover)

    selected = sorted(handover.kept)
    t2_inputs = [None if m is None else [handover.kept[i][m] for i in selected]
                 for m in sources]
    t2_results = run_tier([reports[i] for i in selected], t2, batch_size, max_workers,
                          inputs=t2_inputs)
    t2_by_index = dict(zip(selected, t2_results))

    outcomes: list[TriageOutcome] = []
    for i, (report, t1_res) in enumerate(zip(reports, t1_results)):
        t2_res = t2_by_index.get(i)
        if not t1_res.is_positive:
            final = FinalLabel.NON_CANCER
        elif t2_res is not None and t2_res.is_positive:
            final = FinalLabel.CANCER_REPORTABLE
        else:
            final = FinalLabel.CANCER_NON_REPORTABLE
        outcomes.append(
            TriageOutcome(report_id=report.report_id, t1=t1_res, t2=t2_res, final=final)
        )
    return outcomes


def check_gating_soundness(outcomes: Iterable[TriageOutcome]) -> None:
    """Assert the production invariant: t2 present iff t1 combined positive."""
    for outcome in outcomes:
        has_t2 = outcome.t2 is not None
        if has_t2 != outcome.t1.is_positive:
            raise ValidationError(
                f"outcome {outcome.report_id!r}: t2 "
                f"{'present' if has_t2 else 'absent'} with t1 "
                f"{'positive' if outcome.t1.is_positive else 'negative'}"
            )


# --- outcome file serialization ---------------------------------------------

def _ensemble_to_dict(res: EnsembleResult) -> dict:
    return {
        "combined": res.combined_label.value,
        "combined_by": "or",
        "members": [
            {
                "backend_id": d.backend_id,
                "label": d.label.value,
                "probability": d.score.probability,
                "threshold": d.threshold,
            }
            for d in res.member_decisions
        ],
    }


def outcome_to_dict(outcome: TriageOutcome) -> dict:
    return {
        "report_id": outcome.report_id,
        "final": outcome.final.value,
        "t1": _ensemble_to_dict(outcome.t1),
        "t2": _ensemble_to_dict(outcome.t2) if outcome.t2 is not None else None,
    }


def dumps_outcome(outcome: TriageOutcome) -> str:
    return json.dumps(outcome_to_dict(outcome), ensure_ascii=False, separators=(",", ":"))


def read_outcomes(path) -> list[dict]:
    """Parse an outcomes JSONL file into validated dicts for evaluation."""
    out: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: line {lineno}: invalid JSON: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise ValidationError(f"{path}: line {lineno}: not a JSON object")
            for key in ("report_id", "final", "t1"):
                if key not in obj:
                    raise ValidationError(f"{path}: line {lineno}: missing field {key!r}")
            if not isinstance(obj["report_id"], str):
                raise ValidationError(f"{path}: line {lineno}: report_id is not a string")
            out.append(obj)
    return out
